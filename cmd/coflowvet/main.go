// Command coflowvet runs the project's static analyzers (see
// internal/lint) over the whole module and prints one line per
// finding:
//
//	file:line:col: [analyzer] message
//
// With -json it emits the findings as a JSON array of
// {file,line,col,analyzer,severity,message} objects instead, for CI
// annotation tooling. -analyzer a,b restricts the run to the named
// analyzers; -ignores lists every //lint:ignore suppression in the
// module with its reason (the audit trail behind "make
// lintfix-audit").
//
// Exit code contract: 0 when no finding survives the //lint:ignore
// suppressions, 1 when findings remain, 2 on load or usage errors.
// Run it via "make lint"; it is the first gate of "make check".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"coflow/internal/lint"
)

func usage() {
	// best-effort usage text on a dying process
	_, _ = fmt.Fprintf(flag.CommandLine.Output(), `usage: coflowvet [flags]

Runs the module's static analyzers (internal/lint) and reports every
diagnostic that is not covered by a //lint:ignore suppression.

Exit codes:
  0  no findings
  1  findings reported
  2  load or usage error

Flags:
`)
	flag.PrintDefaults()
}

func main() {
	dir := flag.String("dir", ".", "directory inside the module to vet")
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array instead of text lines")
	names := flag.String("analyzer", "", "comma-separated analyzer names to run (default: all)")
	ignores := flag.Bool("ignores", false, "list every //lint:ignore suppression with its reason and exit")
	flag.Usage = usage
	flag.Parse()

	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coflowvet:", err)
		os.Exit(2)
	}

	if *ignores {
		sups, root, err := loadSuppressions(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coflowvet:", err)
			os.Exit(2)
		}
		for _, s := range sups {
			reason := s.Reason
			if reason == "" {
				reason = "(no reason given)"
			}
			fmt.Printf("%s:%d: [%s] %s\n", relFile(root, s.Pos.Filename), s.Pos.Line, s.Analyzer, reason)
		}
		return
	}

	diags, root, err := run(*dir, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coflowvet:", err)
		os.Exit(2)
	}
	if *asJSON {
		out, err := renderJSON(diags, root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coflowvet:", err)
			os.Exit(2)
		}
		fmt.Println(string(out))
	} else {
		for _, d := range diags {
			fmt.Println(renderText(d, root))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "coflowvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// selectAnalyzers resolves a comma-separated -analyzer list against
// lint.All (exact names; empty selects everything).
func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	if names == "" {
		return lint.All, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range lint.All {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (run -list for the set)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-analyzer selected nothing")
	}
	return out, nil
}

// finding is the JSON shape of one diagnostic. Every diagnostic fails
// the gate, so severity is the constant "error"; the key stays so the
// shape consumers parse does not change.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

// renderJSON encodes the diagnostics as an indented JSON array with
// module-relative paths. An empty run encodes as [] rather than null.
func renderJSON(diags []lint.Diagnostic, root string) ([]byte, error) {
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, finding{
			File:     relFile(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Severity: "error",
			Message:  d.Message,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// renderText formats one diagnostic as the classic grep-able line.
func renderText(d lint.Diagnostic, root string) string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", relFile(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// relFile renders file relative to the module root when it is inside
// it.
func relFile(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}

func run(dir string, analyzers []*lint.Analyzer) ([]lint.Diagnostic, string, error) {
	loader, err := lint.NewLoader(dir)
	if err != nil {
		return nil, "", err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, "", err
	}
	index := lint.BuildIndex(pkgs)
	return lint.Run(pkgs, analyzers, index), loader.ModuleRoot, nil
}

func loadSuppressions(dir string) ([]lint.Suppression, string, error) {
	loader, err := lint.NewLoader(dir)
	if err != nil {
		return nil, "", err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, "", err
	}
	return lint.Suppressions(pkgs), loader.ModuleRoot, nil
}
