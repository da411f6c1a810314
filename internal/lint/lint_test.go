package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The analyzer tests are golden-diagnostic tests in the analysistest
// style, stdlib-only: each fixture package under testdata/src/<name>
// marks its expected findings with
//
//	// want "regexp"
//	// want(+2) "regexp"
//
// A marker expects exactly one diagnostic on its own line (or, with
// the offset form, N lines below — needed by errflow, where a comment
// adjacent to the flagged line would itself satisfy the
// justification-comment rule and change the verdict). The runner
// fails on any unmatched marker AND on any unexpected diagnostic, so
// the fixtures pin both the positives and the negatives.

var wantRe = regexp.MustCompile(`// want(?:\(\+(\d+)\))? "([^"]*)"`)

type expectation struct {
	file string // base name within the fixture dir
	line int    // expected diagnostic line
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// loadExpectations scans every fixture file for want markers.
func loadExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				offset := 0
				if m[1] != "" {
					for _, c := range m[1] {
						offset = offset*10 + int(c-'0')
					}
				}
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), i+1, m[2], err)
				}
				wants = append(wants, &expectation{
					file: e.Name(),
					line: i + 1 + offset,
					re:   re,
					raw:  m[2],
				})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want markers", dir)
	}
	return wants
}

// runFixture loads one standalone fixture package, runs a single
// analyzer over it, and compares the diagnostics against the want
// markers.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	l := newLoader()
	pkg, err := l.LoadDir(dir, name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	idx := BuildIndex([]*Package{pkg})
	diags := Run([]*Package{pkg}, []*Analyzer{a}, idx)
	wants := loadExpectations(t, dir)

	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == base && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: [%s] %s", base, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.raw)
		}
	}
}

func TestAllocFreeFixture(t *testing.T) { runFixture(t, AllocFree, "allocfree") }
func TestObsGuardFixture(t *testing.T)  { runFixture(t, ObsGuard, "obsguard") }
func TestGuardedByFixture(t *testing.T) { runFixture(t, GuardedBy, "guardedby") }
func TestErrFlowFixture(t *testing.T)   { runFixture(t, ErrFlow, "errflow") }
func TestPooledFixture(t *testing.T)    { runFixture(t, Pooled, "pooled") }
func TestPublishFixture(t *testing.T)   { runFixture(t, Publish, "publish") }

// TestRepoIsLintClean runs the full analyzer set over the whole
// module — the same check "make lint" performs — and demands zero
// findings. It keeps the tree at the bar the analyzers set.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; skipped with -short")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	diags := Run(pkgs, All, BuildIndex(pkgs))
	for _, d := range diags {
		t.Errorf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
}

// TestPlantedViolations is the bar every shipped analyzer must clear:
// it guards a contract real code depends on. Each row copies a real
// package of this module to a temp directory, inserts one violating
// line after an anchor line, loads the copy under the package's real
// import path (so its imports resolve against the live tree) and
// demands a diagnostic of that analyzer on the inserted line. An
// analyzer in All with no row fails the test, and so does a row whose
// anchor — the real site the analyzer protects — is gone.
func TestPlantedViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks real packages with their imports; skipped with -short")
	}
	rows := []struct {
		analyzer *Analyzer
		pkg      string // directory below the module root
		file     string
		anchor   string // full text of the line to insert after, sans indentation
		insert   string
		want     string // regexp over the diagnostic message
	}{
		{AllocFree, "internal/stats", "rolling.go", `s := r.sorted`,
			`_ = make([]float64, 1)`, `Observe is //coflow:allocfree but calls make`},
		{ObsGuard, "internal/obs", "obs.go", `func (c *Counter) metricHelp() string { return c.help }`,
			`func (c *Counter) Reset() { c.v.Store(0) }`, `Reset .* must begin with a nil-receiver guard`},
		{ObsGuard, "internal/shard", "shard.go", `id = int(c.nextID.Add(1))`,
			`if leak := c.obs.ingestSeconds.Start(); id < 0 { leak.End() }`, `span leak started here does not reach`},
		{GuardedBy, "internal/obs", "obs.go", `c := &Counter{name: name, help: help}`,
			`_ = r.names[name]`, `field names is guarded by mu`},
		{GuardedBy, "internal/daemon", "daemon.go", `func (d *Daemon) Cancel(id int) error {`,
			`_ = (&coflowInfo{}).terminal`, `field terminal is guarded by the "loop" serialization domain`},
		{ErrFlow, "internal/daemon", "daemon.go", `enc.SetIndent("", "  ")`,
			`f.Sync()`, `error result of f.Sync is silently discarded`},
		{Pooled, "internal/daemon", "daemon.go", `res := state.Step(slot+1, policy)`,
			`defer func() { _ = res.Served }()`, `pooled value res captured by a function literal`},
		{Publish, "internal/daemon", "daemon.go", `d.snap.Store(view)`,
			`view.Metrics.Ticks++`, `after view was published`},
	}
	covered := map[*Analyzer]bool{}
	for _, row := range rows {
		covered[row.analyzer] = true
		t.Run(row.analyzer.Name+"/"+row.pkg, func(t *testing.T) {
			l, err := NewLoader("../..")
			if err != nil {
				t.Fatalf("NewLoader: %v", err)
			}
			src := filepath.Join(l.ModuleRoot, filepath.FromSlash(row.pkg))
			tmp := t.TempDir()
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			line := 0 // 1-based line of the inserted text
			for _, e := range entries {
				if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
					continue
				}
				data, err := os.ReadFile(filepath.Join(src, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if e.Name() == row.file {
					lines := strings.Split(string(data), "\n")
					for i, text := range lines {
						if strings.TrimSpace(text) == row.anchor {
							if line != 0 {
								t.Fatalf("anchor %q is ambiguous in %s/%s", row.anchor, row.pkg, row.file)
							}
							line = i + 2
						}
					}
					if line == 0 {
						t.Fatalf("anchor %q is gone from %s/%s: the site %s guards has moved or disappeared", row.anchor, row.pkg, row.file, row.analyzer.Name)
					}
					data = []byte(strings.Join(slices.Insert(lines, line-1, row.insert), "\n"))
				}
				if err := os.WriteFile(filepath.Join(tmp, e.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			pkg, err := l.LoadDir(tmp, l.ModulePath+"/"+row.pkg)
			if err != nil {
				t.Fatalf("loading the mutated copy: %v", err)
			}
			// Annotations on the package's module-local imports
			// (pooled and allocfree callees) count, as in a full run.
			var loaded []*Package
			for _, p := range l.pkgs {
				loaded = append(loaded, p)
			}
			diags := Run([]*Package{pkg}, []*Analyzer{row.analyzer}, BuildIndex(loaded))
			re := regexp.MustCompile(row.want)
			for _, d := range diags {
				if d.Analyzer == row.analyzer.Name && filepath.Base(d.Pos.Filename) == row.file && d.Pos.Line == line && re.MatchString(d.Message) {
					return
				}
			}
			t.Errorf("no %s diagnostic matching %q at %s:%d; got %v", row.analyzer.Name, row.want, row.file, line, diags)
		})
	}
	for _, a := range All {
		if !covered[a] {
			t.Errorf("analyzer %s has no planted-violation row: pin it to a real site or delete it", a.Name)
		}
	}
}

// TestFuncAnnotations pins the annotation grammar: the directive must
// be a doc-comment line of the form //coflow:<word>, the word ends at
// whitespace, and annotations stack.
func TestFuncAnnotations(t *testing.T) {
	src := `package p

//coflow:allocfree
//coflow:singlewriter trailing prose is ignored
func both() {}

// coflow:allocfree has a space and is NOT a directive
func spaced() {}

func bare() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "anns.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	got := map[string]map[string]bool{}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			got[fd.Name.Name] = FuncAnnotations(fd)
		}
	}
	if !got["both"]["allocfree"] || !got["both"]["singlewriter"] {
		t.Errorf("both: want allocfree+singlewriter, got %v", got["both"])
	}
	if len(got["spaced"]) != 0 {
		t.Errorf("spaced: want no annotations, got %v", got["spaced"])
	}
	if len(got["bare"]) != 0 {
		t.Errorf("bare: want no annotations, got %v", got["bare"])
	}
}
