//go:build slowcheck

package lint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestPlantedRuntimeGates is the third column of the allocPlants
// matrix: with each plant overlaid on the real tree, the
// *DoesNotAllocate tests that fail are exactly the ones the row lists —
// none, for a plant only a static gate can see. One `go test` of every
// internal package per plant, so it runs under -tags=slowcheck only
// (`make slowcheck`).
func TestPlantedRuntimeGates(t *testing.T) {
	failRe := regexp.MustCompile(`(?m)^--- FAIL: (\w+) `)
	for _, row := range allocPlants {
		t.Run(row.name, func(t *testing.T) {
			l, err := NewLoader("../..")
			if err != nil {
				t.Fatalf("NewLoader: %v", err)
			}
			_, dir, _ := row.load(t, l)
			cmd := exec.Command("go", "test", "-count=1", "-vet=off", "-overlay", row.overlay(t, l, dir),
				"-run", "DoesNotAllocate|DoNotAllocate", "./internal/...")
			cmd.Dir = l.ModuleRoot
			out, _ := cmd.CombinedOutput() // a failing gate is the expected outcome
			var failed []string
			for _, m := range failRe.FindAllSubmatch(out, -1) {
				failed = append(failed, string(m[1]))
			}
			slices.Sort(failed)
			if !slices.Equal(failed, row.runtime) {
				t.Errorf("failing runtime gates: got %v, want %v\n%s", failed, row.runtime, out)
			}
		})
	}
}

// TestPlantedRaceGates is the dynamic column of concurrencyPlants: with
// each plant overlaid on the real tree, `go vet` of the planted package
// must stay silent, and the tests of `make race`'s packages that import
// it run as CI runs them, under -race, plus the slowcheck soak. Which
// concurrent test trips the race detector depends on the schedule, so
// a row that lists tests passes when one of them fails, and a row that
// lists none must fail no test beyond its entry in sometimes. One
// `go test -race` per plant.
func TestPlantedRaceGates(t *testing.T) {
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	importers := raceImporters(t, l.ModuleRoot)
	for _, row := range concurrencyPlants {
		t.Run(row.name, func(t *testing.T) {
			l, err := NewLoader("../..")
			if err != nil {
				t.Fatalf("NewLoader: %v", err)
			}
			_, dir, _ := row.load(t, l)
			overlay := row.overlay(t, l, dir)
			vet := exec.Command("go", "vet", "-overlay", overlay, "./"+row.pkg)
			vet.Dir = l.ModuleRoot
			if out, err := vet.CombinedOutput(); err != nil {
				t.Errorf("go vet reports the plant: %v\n%s", err, out)
			}
			pkgs := importers[row.path(l)]
			if len(pkgs) == 0 {
				if row.race != nil {
					t.Errorf("no package of make race imports %s, want %v to fail", row.pkg, row.race)
				}
				return
			}
			cmd := exec.Command("go", append([]string{"test", "-race", "-tags=slowcheck", "-count=1", "-vet=off", "-json", "-overlay", overlay}, pkgs...)...)
			cmd.Dir = l.ModuleRoot
			out, err := cmd.Output()
			if _, ok := err.(*exec.ExitError); err != nil && !ok { // a failing test is the expected outcome
				t.Fatalf("go test -race: %v", err)
			}
			failed := failedTests(t, out, pkgs)
			switch {
			case row.race != nil && !slices.ContainsFunc(row.race, func(test string) bool { return slices.Contains(failed, test) }):
				t.Errorf("none of %q failed under -race; failed: %q", row.race, failed)
			case row.race == nil && slices.ContainsFunc(failed, func(test string) bool { return !slices.Contains(sometimes[row.name], test) }):
				t.Errorf("failed under -race: %q; a test that fails on every run belongs in the row, one that does not in sometimes", failed)
			}
		})
	}
}

// raceImporters maps every module package to the packages of the
// Makefile's race target (the one copy of that list) whose tests
// import it, directly or not.
func raceImporters(t *testing.T, root string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(root + "/Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(data), "\nrace:\n")
	if !ok {
		t.Fatal("the Makefile has no race target")
	}
	recipe, _, _ = strings.Cut(recipe, "\n")
	var patterns []string
	for _, f := range strings.Fields(recipe) {
		if strings.HasPrefix(f, "./") {
			patterns = append(patterns, f)
		}
	}
	if len(patterns) == 0 || !strings.Contains(recipe, "go test -race") {
		t.Fatalf("cannot read the race target's packages from %q", recipe)
	}
	cmd := exec.Command("go", append([]string{"list", "-test", "-f", "{{.ImportPath}}|{{.ForTest}}|{{join .Deps \" \"}}"}, patterns...)...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	sets := map[string]map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.SplitN(sc.Text(), "|", 3)
		pkg := f[1]
		if pkg == "" {
			pkg = strings.TrimSuffix(strings.Fields(f[0])[0], ".test")
		}
		for _, dep := range append(strings.Fields(f[2]), pkg) {
			if sets[dep] == nil {
				sets[dep] = map[string]bool{}
			}
			sets[dep][pkg] = true
		}
	}
	importers := map[string][]string{}
	for dep, set := range sets {
		for pkg := range set {
			importers[dep] = append(importers[dep], pkg)
		}
		slices.Sort(importers[dep])
	}
	return importers
}

// failedTests reads `go test -json` output and returns the failed
// top-level tests as "<package>.<Test>", and "<package>" for a package
// that failed outside any test (a build error, a race after the last
// test), sorted. Each of pkgs must have reported a result: a run that
// never got to the tests fails none of them and would confirm nothing.
func failedTests(t *testing.T, out []byte, pkgs []string) []string {
	t.Helper()
	var failed []string
	byPkg := map[string]bool{}
	done := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var ev struct{ Action, Package, Test string }
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("go test -json: %v", err)
		}
		if ev.Test == "" && (ev.Action == "pass" || ev.Action == "fail") {
			done[ev.Package] = true
		}
		if ev.Action != "fail" || ev.Package == "" {
			continue
		}
		switch short := path.Base(ev.Package); {
		case ev.Test == "":
			if !byPkg[ev.Package] {
				failed = append(failed, short)
			}
		case !strings.Contains(ev.Test, "/"):
			byPkg[ev.Package] = true
			failed = append(failed, short+"."+ev.Test)
		}
	}
	for _, pkg := range pkgs {
		if !done[pkg] {
			t.Fatalf("go test -json reports no result for %s", pkg)
		}
	}
	slices.Sort(failed)
	return failed
}
