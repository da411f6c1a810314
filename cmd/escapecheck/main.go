// Command escapecheck gates the //coflow:allocfree contract against
// the compiler's escape analysis: it runs
//
//	go build -gcflags=<module>/...=-m=1 ./...
//
// keeps the "escapes to heap" / "moved to heap" diagnostics that land
// inside annotated functions, and compares them (keyed by file,
// function and message — not line numbers, so unrelated edits do not
// churn) against the committed baseline. A NEW escape in an annotated
// function is printed with its file:line and fails the build;
// pre-existing ones are grandfathered in the baseline. Run it via "make escapecheck"; refresh the baseline
// with "make escapebaseline" after a deliberate change.
//
// It exits 1 on a regression, 2 on a tooling failure.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"coflow/internal/lint"
)

func main() {
	baselinePath := flag.String("baseline", "cmd/escapecheck/escapes-baseline.txt", "baseline file, relative to the module root")
	write := flag.Bool("write", false, "rewrite the baseline instead of comparing")
	dir := flag.String("dir", ".", "directory inside the module to check")
	flag.Parse()

	if err := run(*dir, *baselinePath, *write); err != nil {
		fmt.Fprintln(os.Stderr, "escapecheck:", err)
		os.Exit(2)
	}
}

func run(dir, baselinePath string, write bool) error {
	loader, err := lint.NewLoader(dir)
	if err != nil {
		return err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return err
	}
	ranges := lint.AllocFreeRanges(pkgs, loader.ModuleRoot)
	if len(ranges) == 0 {
		return fmt.Errorf("no //coflow:allocfree functions found — nothing to gate")
	}

	// The compiler replays -m diagnostics from the build cache, so
	// this is cheap on a warm tree.
	cmd := exec.Command("go", "build", "-gcflags="+loader.ModulePath+"/...=-m=1", "./...")
	cmd.Dir = loader.ModuleRoot
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build -m: %v\n%s", err, out.String())
	}
	diags, err := lint.ParseEscapes(&out)
	if err != nil {
		return err
	}
	current, line := lint.EscapeKeys(diags, ranges)

	abs := filepath.Join(loader.ModuleRoot, filepath.FromSlash(baselinePath))
	if write {
		var b strings.Builder
		b.WriteString("# Escape-analysis baseline for //coflow:allocfree functions.\n")
		b.WriteString("# One entry per line: file<TAB>function<TAB>compiler message.\n")
		b.WriteString("# Regenerate with: make escapebaseline\n")
		for _, k := range current {
			b.WriteString(k)
			b.WriteByte('\n')
		}
		if err := os.WriteFile(abs, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("escapecheck: wrote %d baseline entr%s to %s\n", len(current), plural(len(current), "y", "ies"), baselinePath)
		return nil
	}

	f, err := os.Open(abs)
	if err != nil {
		return fmt.Errorf("no baseline at %s (run with -write to create it): %v", baselinePath, err)
	}
	baseline, err := lint.ReadBaseline(f)
	// read-only file: Close cannot lose data and read errors surface from ReadBaseline
	_ = f.Close()
	if err != nil {
		return err
	}

	added, removed := lint.DiffEscapes(current, baseline)
	for _, k := range removed {
		fmt.Printf("escapecheck: note: baseline entry no longer observed (re-run make escapebaseline to tighten): %s\n", strings.ReplaceAll(k, "\t", " "))
	}
	if len(added) > 0 {
		for _, k := range added {
			file, rest, _ := strings.Cut(k, "\t")
			fmt.Fprintf(os.Stderr, "%s:%d: NEW heap escape in //coflow:allocfree function %s\n", file, line[k], strings.ReplaceAll(rest, "\t", ": "))
		}
		fmt.Fprintf(os.Stderr, "escapecheck: %d regression(s) vs %s\n", len(added), baselinePath)
		os.Exit(1)
	}
	fmt.Printf("escapecheck: ok (%d grandfathered escape%s, %d annotated function%s)\n",
		len(current), plural(len(current), "", "s"), len(ranges), plural(len(ranges), "", "s"))
	return nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
