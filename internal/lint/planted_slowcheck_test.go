//go:build slowcheck

package lint

import (
	"os/exec"
	"regexp"
	"slices"
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
