package lint

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
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

// plant is one violating line inserted into a copy of a real package
// of this module, at a real site.
type plant struct {
	pkg    string // directory below the module root
	file   string
	anchor string // full text of the line to insert after, sans indentation
	insert string
	decl   string // package-level declarations the line needs, appended to the file
}

// load writes the package's non-test files to a temp directory with
// the plant applied and loads the copy under the package's real import
// path, so its imports resolve against the live tree. It returns the
// loaded copy, its directory and the 1-based line of the inserted
// text. A plant whose anchor — the real site a gate protects — is gone
// or ambiguous fails the test.
func (p plant) load(t *testing.T, l *Loader) (pkg *Package, dir string, line int) {
	t.Helper()
	src := filepath.Join(l.ModuleRoot, filepath.FromSlash(p.pkg))
	dir = t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == p.file {
			lines := strings.Split(string(data), "\n")
			for i, text := range lines {
				if strings.TrimSpace(text) == p.anchor {
					if line != 0 {
						t.Fatalf("anchor %q is ambiguous in %s/%s", p.anchor, p.pkg, p.file)
					}
					line = i + 2
				}
			}
			if line == 0 {
				t.Fatalf("anchor %q is gone from %s/%s: the site this plant guards has moved or disappeared", p.anchor, p.pkg, p.file)
			}
			data = []byte(strings.Join(slices.Insert(lines, line-1, p.insert), "\n") + "\n" + p.decl + "\n")
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkg, err = l.LoadDir(dir, l.ModulePath+"/"+p.pkg)
	if err != nil {
		t.Fatalf("loading the mutated copy: %v", err)
	}
	return pkg, dir, line
}

// diagnosticsAt runs one analyzer over a planted copy and returns its
// findings on the planted line. Annotations on the package's
// module-local imports (pooled and allocfree callees) count, as in a
// full run.
func diagnosticsAt(l *Loader, a *Analyzer, pkg *Package, file string, line int) []string {
	var loaded []*Package
	for _, p := range l.pkgs {
		loaded = append(loaded, p)
	}
	var out []string
	for _, d := range Run([]*Package{pkg}, []*Analyzer{a}, BuildIndex(loaded)) {
		if d.Analyzer == a.Name && filepath.Base(d.Pos.Filename) == file && d.Pos.Line == line {
			out = append(out, d.Message)
		}
	}
	return out
}

// overlay writes a `go build -overlay` file that swaps the planted
// copy of p's file in for the real one, and returns its path.
func (p plant) overlay(t *testing.T, l *Loader, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "overlay.json")
	data, err := json.Marshal(map[string]map[string]string{"Replace": {
		filepath.Join(l.ModuleRoot, filepath.FromSlash(p.pkg), p.file): filepath.Join(dir, p.file),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// newEscapes is cmd/escapecheck on a planted copy: compile the package
// with the plant overlaid, keep the heap escapes inside its
// //coflow:allocfree functions and return the keys the committed
// baseline does not grandfather.
func newEscapes(t *testing.T, l *Loader, p plant, pkg *Package, dir string) []string {
	t.Helper()
	cmd := exec.Command("go", "build", "-overlay", p.overlay(t, l, dir),
		"-gcflags="+l.ModulePath+"/"+p.pkg+"=-m=1", "./"+p.pkg)
	cmd.Dir = l.ModuleRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -m of the planted %s: %v\n%s", p.pkg, err, out)
	}
	diags, err := ParseEscapes(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	ranges := AllocFreeRanges([]*Package{pkg}, dir)
	for i := range ranges {
		ranges[i].File = p.pkg + "/" + ranges[i].File
	}
	f, err := os.Open(filepath.Join(l.ModuleRoot, "cmd", "escapecheck", "escapes-baseline.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	baseline, err := ReadBaseline(f)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := EscapeKeys(diags, ranges)
	added, _ := DiffEscapes(keys, baseline)
	return added
}

const (
	stepGo    = "step.go"
	inStep    = "internal/online"
	stepEntry = `s.obs.Steps.Inc()` // first statement of Step: every slot
)

// allocPlants is the planted-regression matrix behind the split of the
// //coflow:allocfree contract over its three gates (DESIGN.md "Static
// analysis" prints it as a table): realistic regressions, one line
// each, in copies of real hot-path code, with what each gate says.
// allocfree is a regexp over the analyzer's finding on the planted
// line, escape one over the new cmd/escapecheck report, "" where the
// gate must stay silent; runtime lists the *DoesNotAllocate tests that
// fail (TestPlantedViolations checks the two static columns,
// TestPlantedRuntimeGates, under -tags=slowcheck, the third).
//
// A rule of the analyzer stays only while some plant here is caught by
// it and by neither other gate; TestPlantedViolations fails otherwise.
var allocPlants = []struct {
	name string
	plant
	allocfree, escape string
	runtime           []string
}{
	// Seen by allocfree alone: amortized growth and cold callees.
	{"append-growth", plant{inStep, stepGo, `s.obs.FullScans.Inc()`,
		`slotLog = append(slotLog, slot)`, `var slotLog []int64`},
		`appends to slotLog`, "", nil},
	{"map-growth", plant{"internal/stats", "rolling.go", `s := r.sorted`,
		`seen[v] = r.next`, `var seen = map[float64]int{}`},
		`Observe .* writes into a map`, "", nil},
	{"callee-cold", plant{inStep, stepGo, `matchSpan := s.obs.MatchSeconds.Start()`,
		`s.regrow(slot)`, "//go:noinline\nfunc (s *State) regrow(slot int64) {\n\tif slot%4096 == 0 {\n\t\ts.served = make([]Assignment, 0, 2*cap(s.served))\n\t}\n}"},
		`calls .*regrow which is not annotated`, "", nil},

	// Seen by the compiler alone: a cold branch no gate case reaches.
	{"cold-make", plant{inStep, "online.go", `if !slices.IsSortedFunc(list, prioCmp) {`,
		`s.active = make([]*cfState, 0, len(list))`, ""},
		"", `prioritizeList\tmake\(\[\]\*cfState, 0, len\(list\)\) escapes to heap`, nil},

	// Hot-path regressions: some gate must name them.
	{"append-copy", plant{inStep, stepGo, `res.Served = s.served`,
		`res.Served = append([]Assignment(nil), s.served...)`, ""},
		`appends to expression`, "", stepGates},
	{"addr-of-local", plant{inStep, stepGo, `res.Completed = s.completed`,
		`lastStep = &res`, `var lastStep *StepResult`},
		"", `\).step\tmoved to heap: res`, stepGates},
	{"fmt", plant{inStep, stepGo, stepEntry,
		`_ = fmt.Sprintf("slot %d under %v", slot, policy)`, ""},
		"", `\).Step\tslot escapes to heap`, everyStepGate},
	{"boxing", plant{inStep, stepGo, stepEntry,
		`s.obs.note("slot", slot)`, "//coflow:allocfree\nfunc (o *Obs) note(kv ...any) { lastNote = kv }\n\nvar lastNote []any"},
		"", `\).Step\t\.\.\. argument escapes to heap`, everyStepGate},
	{"closure-escapes", plant{inStep, stepGo, `res.Active = len(s.active)`,
		`stepHook = func() int { return res.Active }`, `var stepHook func() int`},
		"", `\).step\tfunc literal escapes to heap`, stepGates},
	{"go-statement", plant{inStep, stepGo, stepEntry,
		`go func() { s.obs.IdleSteps.Add(0) }()`, ""},
		"", `\).Step\tfunc literal escapes to heap`, everyStepGate},
	{"string-concat", plant{inStep, stepGo, stepEntry,
		`lastPolicy = "policy " + policyNames[policy]`, "var lastPolicy string\n\nvar policyNames = [...]string{\"FIFO\", \"SEBF\", \"WSPT\"}"},
		"", `\).Step\t"policy " \+ policyNames\[policy\] escapes to heap`, everyStepGate},
	{"conversion", plant{inStep, stepGo, stepEntry,
		`lastPolicy = []byte(policyNames[policy])`, "var lastPolicy []byte\n\nvar policyNames = [...]string{\"FIFO\", \"SEBF\", \"WSPT\"}"},
		"", `\).Step\t\(\[\]byte\)\(policyNames\[policy\]\) escapes to heap`, everyStepGate},
	{"slice-literal", plant{inStep, stepGo, `s.completed = s.completed[:0]`,
		`s.completed = []int{}`, ""},
		"", `\).step\t\[\]int\{\} escapes to heap`, []string{"TestStepDoesNotAllocate", "TestStepObsEnabledDoesNotAllocate", "TestStepWithFailedPortDoesNotAllocate"}},
	{"map-literal", plant{inStep, stepGo, `s.rowBusy[src] = true`,
		`lastSeen = map[int]bool{st.key: true}`, `var lastSeen map[int]bool`},
		"", `\).step\tmap\[int\]bool\{\.\.\.\} escapes to heap`, stepGates},
	{"callee-inlined", plant{inStep, stepGo, `matchSpan := s.obs.MatchSeconds.Start()`,
		`s.rowBusy = freshBusy(s.ports)`, `func freshBusy(n int) []bool { return make([]bool, n) }`},
		`calls .*freshBusy which is not annotated`, `\).step\tmake\(\[\]bool, n\) escapes to heap`, stepGates},
	{"callee-hot", plant{inStep, stepGo, `matchSpan := s.obs.MatchSeconds.Start()`,
		`s.rowBusy = freshBusy(s.ports)`, "//go:noinline\nfunc freshBusy(n int) []bool { return make([]bool, n) }"},
		`calls .*freshBusy which is not annotated`, "", stepGates},
	{"update-rowsums", plant{"internal/bvn", "decomposer.go", `cols := dc.demand.ColSumsInto(dc.augSc.cols)`,
		`rows = dc.demand.RowSums()`, ""},
		`calls .*RowSums which is not annotated`, `\).Update\tmake\(\[\]int64, matrix.m.rows\) escapes to heap`, planGates},
	{"update-composite", plant{"internal/bvn", "decomposer.go", `dc.dec.augmented = nil`,
		`return &Decomposition{Load: rho2, Terms: dc.terms, m: dc.m}, nil`, ""},
		"", `\).Update\t&Decomposition\{\.\.\.\} escapes to heap`, planGates},
	{"kuhn-visited", plant{"internal/matching", "incremental.go", `adj := mt.adjDat[off : off+mt.adjLen[u]]`,
		`_ = make([]bool, mt.n)`, ""},
		"", `\).kuhn\tmake\(\[\]bool, mt.n\) escapes to heap`, planGates},

	// Not regressions: neither allocates, and no gate may say it does.
	{"const-make", plant{"internal/stats", "rolling.go", `s := r.sorted`,
		`_ = make([]float64, 1)`, ""},
		"", "", nil},
	{"closure-local", plant{inStep, stepGo, stepEntry,
		`defer func() { s.obs.IdleSteps.Add(0) }()`, ""},
		"", "", nil},
}

var (
	// stepGates measure the full scan of online.(*State).step: a
	// completion every slot forbids the replay.
	stepGates = []string{"TestPlannerTickDoesNotAllocate", "TestStepDoesNotAllocate", "TestStepObsEnabledDoesNotAllocate", "TestStepWithFailedPortDoesNotAllocate"}
	// everyStepGate adds the gate that only ever replays.
	everyStepGate = append([]string{"TestPerShardTickDoesNotAllocate"}, stepGates...)
	// planGates reach Decomposer.Update and the matcher under it.
	planGates = []string{"TestDecomposeDoesNotAllocate", "TestPlannerTickDoesNotAllocate"}
)

// TestPlantedViolations is the bar every shipped analyzer must clear:
// it guards a contract real code depends on. Each row plants one
// violating line in a copy of a real package and demands a diagnostic
// of that analyzer on the inserted line. An analyzer in All with no
// row fails the test, and so does a row whose anchor is gone.
//
// allocfree shares its contract with two other gates, so its rows are
// the allocPlants matrix: both static columns are checked per plant,
// and each of the analyzer's three rules must have a plant that it
// catches and the other two gates do not.
func TestPlantedViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks real packages with their imports; skipped with -short")
	}
	rows := []struct {
		analyzer *Analyzer
		plant
		want string // regexp over the diagnostic message
	}{
		{ObsGuard, plant{"internal/obs", "obs.go", `func (c *Counter) metricHelp() string { return c.help }`,
			`func (c *Counter) Reset() { c.v.Store(0) }`, ""}, `Reset .* must begin with a nil-receiver guard`},
		{ObsGuard, plant{"internal/shard", "shard.go", `id = int(c.nextID.Add(1))`,
			`if leak := c.obs.ingestSeconds.Start(); id < 0 { leak.End() }`, ""}, `span leak started here does not reach`},
		{GuardedBy, plant{"internal/obs", "obs.go", `c := &Counter{name: name, help: help}`,
			`_ = r.names[name]`, ""}, `field names is guarded by mu`},
		{GuardedBy, plant{"internal/daemon", "daemon.go", `func (d *Daemon) Cancel(id int) error {`,
			`_ = (&coflowInfo{}).terminal`, ""}, `field terminal is guarded by the "loop" serialization domain`},
		{ErrFlow, plant{"internal/daemon", "daemon.go", `enc.SetIndent("", "  ")`,
			`f.Sync()`, ""}, `error result of f.Sync is silently discarded`},
		{Pooled, plant{"internal/daemon", "daemon.go", `res := state.Step(slot+1, policy)`,
			`defer func() { _ = res.Served }()`, ""}, `pooled value res captured by a function literal`},
		{Publish, plant{"internal/daemon", "daemon.go", `d.snap.Store(view)`,
			`view.Metrics.Ticks++`, ""}, `after view was published`},
	}
	covered := map[*Analyzer]bool{AllocFree: true}
	for _, row := range rows {
		covered[row.analyzer] = true
		t.Run(row.analyzer.Name+"/"+row.pkg, func(t *testing.T) {
			l, err := NewLoader("../..")
			if err != nil {
				t.Fatalf("NewLoader: %v", err)
			}
			pkg, _, line := row.load(t, l)
			got := diagnosticsAt(l, row.analyzer, pkg, row.file, line)
			if !slices.ContainsFunc(got, regexp.MustCompile(row.want).MatchString) {
				t.Errorf("no %s diagnostic matching %q at %s:%d; got %q", row.analyzer.Name, row.want, row.file, line, got)
			}
		})
	}
	for _, a := range All {
		if !covered[a] {
			t.Errorf("analyzer %s has no planted-violation row: pin it to a real site or delete it", a.Name)
		}
	}

	// matches: the gate said nothing where want is "", and something
	// matching want where it is not.
	matches := func(want string, got []string) bool {
		if want == "" {
			return len(got) == 0
		}
		return slices.ContainsFunc(got, regexp.MustCompile(want).MatchString)
	}
	for _, row := range allocPlants {
		t.Run("allocfree/"+row.name, func(t *testing.T) {
			l, err := NewLoader("../..")
			if err != nil {
				t.Fatalf("NewLoader: %v", err)
			}
			pkg, dir, line := row.load(t, l)
			if got := diagnosticsAt(l, AllocFree, pkg, row.file, line); !matches(row.allocfree, got) {
				t.Errorf("allocfree at %s:%d: want %q, got %q", row.file, line, row.allocfree, got)
			}
			if got := newEscapes(t, l, row.plant, pkg, dir); !matches(row.escape, got) {
				t.Errorf("escapecheck: want %q, got %q", row.escape, got)
			}
		})
	}
	for _, rule := range []string{"appends to", "writes into a map", "is not annotated"} {
		alone := false
		for _, row := range allocPlants {
			if row.escape == "" && row.runtime == nil && strings.Contains(row.allocfree, rule) {
				alone = true
			}
		}
		if !alone {
			t.Errorf("no plant is caught by allocfree's %q rule and by neither other gate: the rule duplicates them, delete it", rule)
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

// TestDocsNameWhatTheLinterShips keeps README.md and DESIGN.md to the
// linter as it is: an analyzer bullet ("* **name**") must name an
// analyzer `coflowvet -list` prints, every shipped analyzer must have
// its bullet in both files, and a //coflow:<word> must be in the
// annotation vocabulary. CI's docs job runs it.
func TestDocsNameWhatTheLinterShips(t *testing.T) {
	shipped := map[string]bool{}
	for _, a := range All {
		shipped[a.Name] = true
	}
	bullet := regexp.MustCompile(`(?m)^\* \*\*([a-z]+)\*\*`)
	word := regexp.MustCompile(`//coflow:([a-z]+)`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		named := map[string]bool{}
		for _, m := range bullet.FindAllSubmatch(data, -1) {
			named[string(m[1])] = true
			if !shipped[string(m[1])] {
				t.Errorf("%s has a bullet for analyzer %q, which coflowvet -list does not print", doc, m[1])
			}
		}
		for name := range shipped {
			if !named[name] {
				t.Errorf("%s has no \"* **%s**\" bullet for a shipped analyzer", doc, name)
			}
		}
		for _, m := range word.FindAllSubmatch(data, -1) {
			if !annotations[string(m[1])] {
				t.Errorf("%s names //coflow:%s, which the linter rejects as an unknown annotation", doc, m[1])
			}
		}
	}
}
