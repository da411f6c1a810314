package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnly lists every function and method in a non-test file that no
// non-test file references, with the reason it stays: it is an oracle,
// a verification helper or a fixture constructor the tests check
// production against, or public API of a type the root façade aliases
// (whose callers are outside the module). A declaration that is a
// second way into something production reaches one way does not get a
// row; it gets deleted and its tests use the production way.
var testOnly = []struct {
	file   string   // below the module root
	decls  []string // "Func", "T.Method" or "(*T).Method"
	reason string
}{
	{"internal/bvn/bvn.go", []string{"(*Decomposition).Verify", "(*Decomposition).Augmented", "Augment"},
		"Lemma 2 certificate (coflow.Decomposition.Verify in the façade's example) and the Step 1 matrix it is checked against"},
	{"internal/check/check.go", []string{"NewRecorder", "(*Recorder).Observe", "(*Recorder).Finish"},
		"turns a sequence of StepResults into a Recorded, so check.Schedule validates online runs like switchsim transcripts"},
	{"internal/check/program.go", []string{"RunProgram"},
		"the one op-program interpreter that drives Step against the Reference: the check sweep and the fuzz targets in check and online"},
	{"internal/coflowmodel/coflowmodel.go", []string{"(*Instance).WriteFile", "(*Instance).ZeroReleases", "(*Instance).SortByID"},
		"public API of coflow.Instance (WriteFile is the counterpart of coflow.ReadInstance); each pinned by its own test"},
	{"internal/core/core.go", []string{"AllOptions"},
		"the 12 ordering × case combinations of §4 that the validation sweeps range over"},
	{"internal/exact/exact.go", []string{"Solve", "FeasibleDeadlines"},
		"exhaustive optimum: the oracle above the LP bounds and the §1.1 permutation-schedule witness"},
	{"internal/lp/dense/dense.go", []string{"Solve"},
		"the dense-tableau oracle the revised simplex is checked against (differential sweeps, FuzzSparseVsDense, TestGoldenSparseLP); production has one simplex"},
	{"internal/lpmodel/lpmodel.go", []string{"TrivialLowerBound"},
		"Σ w(r+ρ), the floor under the LP bounds; pinned by TestTrivialLowerBound"},
	{"internal/matching/matching.go", []string{"BruteForceMaxMatching", "HallViolator", "MaxMatchingSize", "PerfectOnSupport"},
		"cold and brute-force oracles for the warm-started Matcher, and the Hall-violator certificate of Lemma 2"},
	{"internal/matrix/matrix.go", []string{"MustFromRows", "(*Matrix).AddMatrix", "(*Matrix).SubMatrix", "(*Matrix).RowSums",
		"(*Matrix).ColSums", "(*Matrix).Total", "(*Matrix).NonZeroCount", "(*Matrix).Equal",
		"NewPermutation", "Permutation.IsValid", "Permutation.Matrix"},
		"dense verification vocabulary (coflow.Matrix in the façade): decompositions are re-summed and compared with it"},
	{"internal/matrix/sparse.go", []string{"(*Sparse).Dense"},
		"materializes the incremental sparse demand for comparison against the dense reference"},
	{"internal/openshop/openshop.go", []string{"FromCoflowInstance", "SWPTOrder", "BottleneckOrder"},
		"inverse of the §1.1 diagonal embedding (round-trip test) and the two baseline orders LPOrder's quality is measured against"},
	{"internal/scenario/builtin.go", []string{"Builtin"},
		"the named scripts that make scenarios and shard's TestScenariosOverHTTP replay"},
	{"internal/scenario/run.go", []string{"Run"},
		"in-process replay with check.Monitor (and Shadow) validating every slot: the make scenarios gate"},
	{"internal/scenario/script.go", []string{"Parse", "(*Script).Encode"},
		"validated JSON form of a script; its production reader went with cmd/coflowload, TestScriptJSONRoundTrip still pins the schema"},
	{"internal/stats/rolling.go", []string{"(*Rolling).Total", "(*Rolling).Last"},
		"window accessors the ring-boundary and differential tests compare with a naive window"},
	{"internal/switchsim/switchsim.go", []string{"OneStage", "WeightedCompletion"},
		"plan and objective helpers the executor tests and the ablation benchmarks build cases with"},
	{"internal/trace/trace.go", []string{"MustGenerate"},
		"fixture constructor for tests and benchmarks"},
}

// TestDeclarationsHaveProductionCallers applies the audit-by-use rule
// to the whole tree: a FuncDecl in a non-test file (cmd/, examples/
// and benchmark/ count as callers) is referenced by some non-test file
// or has a row in testOnly. A row whose declaration is gone, or has
// gained a production caller, fails too. internal/lint, benchmark/ and
// the root façade are not audited: the façade's callers are outside
// the module. Methods that satisfy an interface of the standard
// library or of obs (metric) are reached through that interface and
// are exempt by structure, not by row.
func TestDeclarationsHaveProductionCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; skipped with -short")
	}
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	collect := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	if it, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface); ok {
		ifaces = append(ifaces, it)
	}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		if strings.HasSuffix(p.Path, "/internal/obs") {
			collect(p.Types)
		}
		for _, imp := range p.Types.Imports() {
			if imp.Path() != l.ModulePath && !strings.HasPrefix(imp.Path(), l.ModulePath+"/") {
				collect(imp)
			}
		}
	}
	// viaInterface reports whether fn is a method that some collected
	// interface declares and fn's receiver type implements.
	viaInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && types.Implements(recv.Type(), it) {
					return true
				}
			}
		}
		return false
	}

	rows := map[string]bool{} // "file:decl" of every row → its declaration still exists
	for _, row := range testOnly {
		if row.reason == "" {
			t.Errorf("testOnly row for %s has no reason", row.file)
		}
		for _, d := range row.decls {
			rows[row.file+":"+d] = false
		}
	}
	var unlisted []string
	for _, p := range pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(p.Path, l.ModulePath), "/")
		if rel == "" || rel == "benchmark" || rel == "internal/lint" {
			continue
		}
		for _, f := range p.Files {
			file := rel + "/" + filepath.Base(p.Fset.Position(f.Pos()).Filename)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "main" || fd.Name.Name == "init" {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				key := file + ":" + declName(fd)
				_, listed := rows[key]
				if listed {
					rows[key] = true
				}
				switch {
				case used[fn] || viaInterface(fn):
					if listed {
						t.Errorf("%s is listed in testOnly but has a production caller: drop the row", key)
					}
				case !listed:
					pos := p.Fset.Position(fd.Pos())
					unlisted = append(unlisted, fmt.Sprintf("%s (line %d, %d lines)", key, pos.Line, p.Fset.Position(fd.End()).Line-pos.Line+1))
				}
			}
		}
	}
	sort.Strings(unlisted)
	for _, u := range unlisted {
		t.Errorf("%s is referenced by no non-test file: delete it and let its tests use the production way, or list it in testOnly with the reason it stays", u)
	}
	for key, exists := range rows {
		if !exists {
			t.Errorf("testOnly lists %s, which no longer exists: drop the row", key)
		}
	}
}

// declName renders a FuncDecl as "Func", "T.Method" or "(*T).Method".
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := types.ExprString(fd.Recv.List[0].Type)
	if strings.HasPrefix(recv, "*") {
		recv = "(" + recv + ")"
	}
	return recv + "." + fd.Name.Name
}
