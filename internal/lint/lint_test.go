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
		if d.Analyzer == a.Name && !slices.ContainsFunc(ruleFamilies[a], func(rule string) bool { return strings.Contains(d.Message, rule) }) {
			t.Errorf("%s:%d: %q belongs to no rule family of %s in ruleFamilies", base, d.Pos.Line, d.Message, a.Name)
		}
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

// plant is a regression written into a copy of a real package of this
// module, at real sites: one or more edits of one file, plus the
// package-level declarations they need.
type plant struct {
	pkg   string // directory below the module root
	file  string
	edits []edit
	decl  string // appended to the file
}

// edit finds its anchor — the full text of one line, or of consecutive
// lines joined by "\n", sans indentation, unique in the file — and
// inserts its text after it, or in its place when cut is set.
type edit struct {
	anchor, insert string
	cut            bool
}

// after is the one-edit plant body: insert after anchor.
func after(anchor, insert string) []edit { return []edit{{anchor: anchor, insert: insert}} }

// load writes the package's non-test files to a temp directory with
// the plant applied and loads the copy under the package's real import
// path, so its imports resolve against the live tree. It returns the
// loaded copy, its directory and the 1-based line where the first
// edit's text starts. A plant whose anchor — the real site a gate
// protects — is gone or ambiguous fails the test.
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
			for k, ed := range p.edits {
				want := strings.Split(ed.anchor, "\n")
				at := -1
				for i := range lines {
					if len(lines)-i >= len(want) && slices.EqualFunc(lines[i:i+len(want)], want, func(a, b string) bool {
						return strings.TrimSpace(a) == b
					}) {
						if at >= 0 {
							t.Fatalf("anchor %q is ambiguous in %s/%s", ed.anchor, p.pkg, p.file)
						}
						at = i
					}
				}
				if at < 0 {
					t.Fatalf("anchor %q is gone from %s/%s: the site this plant guards has moved or disappeared", ed.anchor, p.pkg, p.file)
				}
				var ins []string
				if ed.insert != "" {
					ins = strings.Split(ed.insert, "\n")
				}
				cut := 0
				if ed.cut {
					cut = len(want)
				} else {
					at += len(want)
				}
				lines = slices.Replace(lines, at, at+cut, ins...)
				switch {
				case k == 0:
					line = at + 1
				case at < line:
					line += len(ins) - cut
				}
			}
			data = []byte(strings.Join(lines, "\n") + "\n" + p.decl + "\n")
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkg, err = l.LoadDir(dir, p.path(l))
	if err != nil {
		t.Fatalf("loading the mutated copy: %v", err)
	}
	return pkg, dir, line
}

// findings runs one analyzer over a planted copy and returns its
// findings there; the real package is lint-clean, so each is the
// plant's. Annotations on the package's module-local imports (pooled
// and allocfree callees) count, as in a full run.
func findings(l *Loader, a *Analyzer, pkg *Package) []Diagnostic {
	var loaded []*Package
	for _, p := range l.pkgs {
		loaded = append(loaded, p)
	}
	var out []Diagnostic
	for _, d := range Run([]*Package{pkg}, []*Analyzer{a}, BuildIndex(loaded)) {
		if d.Analyzer == a.Name {
			out = append(out, d)
		}
	}
	return out
}

// messages returns the messages of the findings on file:line, or of
// all of them when file is "".
func messages(ds []Diagnostic, file string, line int) []string {
	var out []string
	for _, d := range ds {
		if file == "" || filepath.Base(d.Pos.Filename) == file && d.Pos.Line == line {
			out = append(out, d.Message)
		}
	}
	return out
}

// path is the planted package's import path; pkg "." is the module
// root.
func (p plant) path(l *Loader) string {
	if p.pkg == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + p.pkg
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
		"-gcflags="+p.path(l)+"=-m=1", "./"+p.pkg)
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
	{"append-growth", plant{inStep, stepGo, after(`s.obs.FullScans.Inc()`,
		`slotLog = append(slotLog, slot)`), `var slotLog []int64`},
		`appends to slotLog`, "", nil},
	{"map-growth", plant{"internal/stats", "rolling.go", after(`s := r.sorted`,
		`seen[v] = r.next`), `var seen = map[float64]int{}`},
		`Observe .* writes into a map`, "", nil},
	{"callee-cold", plant{inStep, stepGo, after(`matchSpan := s.obs.MatchSeconds.Start()`,
		`s.regrow(slot)`), "//go:noinline\nfunc (s *State) regrow(slot int64) {\n\tif slot%4096 == 0 {\n\t\ts.served = make([]Assignment, 0, 2*cap(s.served))\n\t}\n}"},
		`calls .*regrow which is not annotated`, "", nil},

	// Seen by the compiler alone: a cold branch no gate case reaches.
	{"cold-make", plant{inStep, "online.go", after(`if !slices.IsSortedFunc(list, prioCmp) {`,
		`s.active = make([]*cfState, 0, len(list))`), ""},
		"", `prioritizeList\tmake\(\[\]\*cfState, 0, len\(list\)\) escapes to heap`, nil},

	// Hot-path regressions: some gate must name them.
	{"append-copy", plant{inStep, stepGo, after(`res.Served = s.served`,
		`res.Served = append([]Assignment(nil), s.served...)`), ""},
		`appends to expression`, "", stepGates},
	{"addr-of-local", plant{inStep, stepGo, after(`res.Completed = s.completed`,
		`lastStep = &res`), `var lastStep *StepResult`},
		"", `\).step\tmoved to heap: res`, stepGates},
	{"fmt", plant{inStep, stepGo, after(stepEntry,
		`_ = fmt.Sprintf("slot %d under %v", slot, policy)`), ""},
		"", `\).Step\tslot escapes to heap`, everyStepGate},
	{"boxing", plant{inStep, stepGo, after(stepEntry,
		`s.obs.note("slot", slot)`), "//coflow:allocfree\nfunc (o *Obs) note(kv ...any) { lastNote = kv }\n\nvar lastNote []any"},
		"", `\).Step\t\.\.\. argument escapes to heap`, everyStepGate},
	{"closure-escapes", plant{inStep, stepGo, after(`res.Active = len(s.active)`,
		`stepHook = func() int { return res.Active }`), `var stepHook func() int`},
		"", `\).step\tfunc literal escapes to heap`, stepGates},
	{"go-statement", plant{inStep, stepGo, after(stepEntry,
		`go func() { s.obs.IdleSteps.Add(0) }()`), ""},
		"", `\).Step\tfunc literal escapes to heap`, everyStepGate},
	{"string-concat", plant{inStep, stepGo, after(stepEntry,
		`lastPolicy = "policy " + policyNames[policy]`), "var lastPolicy string\n\nvar policyNames = [...]string{\"FIFO\", \"SEBF\", \"WSPT\"}"},
		"", `\).Step\t"policy " \+ policyNames\[policy\] escapes to heap`, everyStepGate},
	{"conversion", plant{inStep, stepGo, after(stepEntry,
		`lastPolicy = []byte(policyNames[policy])`), "var lastPolicy []byte\n\nvar policyNames = [...]string{\"FIFO\", \"SEBF\", \"WSPT\"}"},
		"", `\).Step\t\(\[\]byte\)\(policyNames\[policy\]\) escapes to heap`, everyStepGate},
	{"slice-literal", plant{inStep, stepGo, after(`s.completed = s.completed[:0]`,
		`s.completed = []int{}`), ""},
		"", `\).step\t\[\]int\{\} escapes to heap`, []string{"TestStepDoesNotAllocate", "TestStepObsEnabledDoesNotAllocate", "TestStepWithFailedPortDoesNotAllocate"}},
	{"map-literal", plant{inStep, stepGo, after(`s.rowBusy[src] = true`,
		`lastSeen = map[int]bool{st.key: true}`), `var lastSeen map[int]bool`},
		"", `\).step\tmap\[int\]bool\{\.\.\.\} escapes to heap`, stepGates},
	{"callee-inlined", plant{inStep, stepGo, after(`matchSpan := s.obs.MatchSeconds.Start()`,
		`s.rowBusy = freshBusy(s.ports)`), `func freshBusy(n int) []bool { return make([]bool, n) }`},
		`calls .*freshBusy which is not annotated`, `\).step\tmake\(\[\]bool, n\) escapes to heap`, stepGates},
	{"callee-hot", plant{inStep, stepGo, after(`matchSpan := s.obs.MatchSeconds.Start()`,
		`s.rowBusy = freshBusy(s.ports)`), "//go:noinline\nfunc freshBusy(n int) []bool { return make([]bool, n) }"},
		`calls .*freshBusy which is not annotated`, "", stepGates},
	{"update-rowsums", plant{"internal/bvn", "decomposer.go", after(`cols := dc.demand.ColSumsInto(dc.augSc.cols)`,
		`rows = dc.demand.RowSums()`), ""},
		`calls .*RowSums which is not annotated`, `\).Update\tmake\(\[\]int64, matrix.m.rows\) escapes to heap`, planGates},
	{"update-composite", plant{"internal/bvn", "decomposer.go", after(`dc.dec.augmented = nil`,
		`return &Decomposition{Load: rho2, Terms: dc.terms, m: dc.m}, nil`), ""},
		"", `\).Update\t&Decomposition\{\.\.\.\} escapes to heap`, planGates},
	{"kuhn-visited", plant{"internal/matching", "incremental.go", after(`adj := mt.adjDat[off : off+mt.adjLen[u]]`,
		`_ = make([]bool, mt.n)`), ""},
		"", `\).kuhn\tmake\(\[\]bool, mt.n\) escapes to heap`, planGates},

	// Not regressions: neither allocates, and no gate may say it does.
	{"const-make", plant{"internal/stats", "rolling.go", after(`s := r.sorted`,
		`_ = make([]float64, 1)`), ""},
		"", "", nil},
	{"closure-local", plant{inStep, stepGo, after(stepEntry,
		`defer func() { s.obs.IdleSteps.Add(0) }()`), ""},
		"", "", nil},
}

// concurrencyPlants is the planted-regression matrix behind the other
// five analyzers (DESIGN.md "Static analysis" prints it as a table):
// realistic regressions in copies of real code, with the one analyzer
// that reports each (by, and a regexp over its findings anywhere in the
// planted package; every other analyzer must stay silent) and, as
// "<package>.<Test>", the tests that failed in each of five runs when
// the plant was overlaid on the tree and the packages of `make race`
// ran under -race with the slowcheck soak (race; TestPlantedRaceGates
// re-derives it). A row with no analyzer and no test is in
// notRegressions.
var concurrencyPlants = []struct {
	name string
	plant
	by   *Analyzer
	want string
	race []string
}{
	// Loans of //coflow:pooled results.
	{"schedule-uncopied", plant{inDaemon, daemonGo, []edit{{anchor: lastScheduleCopy,
		insert: `lastSchedule = res.Served`, cut: true}}, ""},
		nil, "", []string{"daemon.TestPublishedScheduleIsImmutable"}},
	{"step-loan-goroutine", plant{inDaemon, daemonGo, []edit{{anchor: lastScheduleCopy,
		insert: `go func() { lastSchedule = append([]online.Assignment(nil), res.Served...) }()`, cut: true}}, ""},
		nil, "", []string{
			"daemon.TestCancelPlanInterleavings",
			"daemon.TestE2E",
			"daemon.TestPublishedScheduleIsImmutable",
			"daemon.TestRegisterTickComplete",
			"daemon.TestScheduleSnapshotIsAMatching",
			"shard.TestHTTPPrometheus",
			"shard.TestScenariosOverHTTP",
			"shard.TestWireGolden"}},
	{"plan-terms-field", plant{inDaemon, daemonGo, []edit{
		{anchor: `"coflow/internal/check"`, insert: `"coflow/internal/bvn"`},
		{anchor: `snap atomic.Pointer[Snapshot]`, insert: `planTerms []bvn.Term // the live plan's terms, read by publish`},
		{anchor: "if err := planner.Observe(res.Served); err != nil {\nplanFail(err)\n} else if _, err := planner.Plan(); err != nil {\nplanFail(err)\n}",
			insert: "if err := planner.Observe(res.Served); err != nil {\n\tplanFail(err)\n} else if plan, err := planner.Plan(); err != nil {\n\tplanFail(err)\n} else {\n\td.planTerms = plan.Terms\n}", cut: true},
		{anchor: `view.Metrics.PlanTerms = planner.Terms()`, insert: `view.Metrics.PlanTerms = len(d.planTerms)`, cut: true}}, ""},
		nil, "", []string{"daemon.TestCancelRefreshesPlan"}},
	{"plan-stale-check", plant{"internal/scenario", "run.go", []edit{
		{anchor: `if err := planner.Observe(res.Served); err != nil {`,
			insert: "prev, _ := planner.Plan() // the Plan below reports any error\nif err := planner.Observe(res.Served); err != nil {", cut: true},
		{anchor: `if got, want := planner.Load(), rho(); got != want {`,
			insert: "if prev.Load < planner.Load() {\n\tviolate(\"slot %d: plan load rose from %d to %d\", s, prev.Load, planner.Load())\n}\nif got, want := planner.Load(), rho(); got != want {", cut: true}}, ""},
		Pooled, `pooled value prev used after a later call on "planner"`, nil},
	{"loan-returned", plant{".", "coflow.go", []edit{{anchor: `return dec.Clone(), nil`,
		insert: `return dec, nil`, cut: true}}, ""},
		nil, "", nil},

	// Publication through atomic.Pointer.
	{"snapshot-write", plant{inDaemon, daemonGo, after(`d.snap.Store(view)`,
		`view.Metrics.QueueDepth = len(d.cmds)`), ""},
		Publish, `write to view.Metrics.QueueDepth after view was published`, []string{
			"daemon.TestE2ERealTicker",
			"shard.TestChurnSoak",
			"shard.TestConcurrentCancelAndTick",
			"shard.TestHTTPBulkCancel",
			"shard.TestHTTPBulkMalformed",
			"shard.TestHTTPBulkRegister",
			"shard.TestHTTPMetricsAndHealth",
			"shard.TestMetricsAmortized",
			"shard.TestRegisterPinned",
			"shard.TestRegisterRoutesByHash"}},
	{"snapshot-alias-write", plant{inDaemon, daemonGo, []edit{
		{anchor: `view.Metrics = Metrics{`, insert: "m := &view.Metrics\n*m = Metrics{", cut: true},
		{anchor: `d.snap.Store(view)`, insert: `m.QueueDepth = len(d.cmds)`}}, ""},
		Publish, `write to m.QueueDepth after m was published`, []string{
			"daemon.TestE2ERealTicker",
			"shard.TestChurnSoak",
			"shard.TestConcurrentCancelAndTick",
			"shard.TestHTTPBulkCancel",
			"shard.TestHTTPBulkMalformed",
			"shard.TestHTTPBulkRegister",
			"shard.TestHTTPMetricsAndHealth",
			"shard.TestRegisterPinned",
			"shard.TestRegisterRoutesByHash"}},
	{"aggregate-write", plant{"internal/shard", "shard.go", after(`c.agg.Store(&aggregate{metrics: m})`,
		`m.Routed = c.obs.routed.Value()`), ""},
		Publish, `write to m.Routed after m was published`, nil},
	{"get-handler-sort", plant{"internal/shard", "http.go", []edit{
		{anchor: `"strconv"`, insert: `"slices"`},
		{anchor: `assignments := snap.Schedule`, insert: `slices.SortFunc(assignments, func(a, b online.Assignment) int { return a.Src - b.Src })`}}, ""},
		nil, "", []string{"shard.TestWireGolden"}},

	// The event loop's state and the registry's lock.
	{"terminal-from-cancel", plant{inDaemon, daemonGo, []edit{
		{anchor: `coflows[id] = ci`, insert: `infos.Store(infoKey{d, id}, ci)`},
		{anchor: `func (d *Daemon) Cancel(id int) error {`,
			insert: "if v, ok := infos.Load(infoKey{d, id}); ok && v.(*coflowInfo).terminal != nil {\n\treturn fmt.Errorf(\"%w: coflow %d already %s\", ErrTerminalCoflow, id, v.(*coflowInfo).terminal.State)\n}"}},
		"// infos lets Cancel answer a terminal coflow without a loop round trip.\nvar infos sync.Map\n\ntype infoKey struct {\n\td  *Daemon\n\tid int\n}"},
		GuardedBy, `field terminal is guarded by the "loop" serialization domain`, nil},
	{"publish-off-loop", plant{inDaemon, daemonGo, []edit{{anchor: "break drain\n}\n}\npublish()",
		insert: "break drain\n}\n}\ngo publish()", cut: true}}, ""},
		nil, "", []string{
			"daemon.TestRegisterTickComplete",
			"daemon.TestZeroDemandCompletesAtRelease",
			"shard.TestChurnSoak",
			"shard.TestConcurrentCancelAndTick",
			"shard.TestHTTPBulkCancel",
			"shard.TestHTTPListAndSchedule",
			"shard.TestHTTPPrometheus",
			"shard.TestRegisterRoutesByHash",
			"shard.TestScenariosOverHTTP",
			"shard.TestWireGolden"}},
	{"registry-unlocked", plant{"internal/obs", "obs.go", []edit{{anchor: "r.mu.Lock()\ndefer r.mu.Unlock()\nif r.names[name] {",
		insert: `if r.names[name] {`, cut: true}}, ""},
		GuardedBy, `field names is guarded by mu but the access does not hold r.mu`, nil},

	// The obs layer's spans and nil guards.
	{"span-early-return", plant{inStep, stepGo, after(stepEntry,
		"if len(s.list) == 0 {\n\treturn StepResult{Slot: slot}\n}"), ""},
		ObsGuard, `span stepSpan started here does not reach stepSpan.End\(\)`, []string{"daemon.TestEnrichedMetricsJSON", "daemon.TestPrometheusScrape"}},
	{"span-error-path", plant{"internal/switchsim", "switchsim.go", []edit{{anchor: "stageSpan.End()\nreturn nil, err",
		insert: `return nil, err`, cut: true}}, ""},
		ObsGuard, `span stageSpan started here does not reach stageSpan.End\(\)`, nil},
	{"nil-guard-cut", plant{"internal/obs", "obs.go", []edit{{anchor: "func (h *Histogram) Quantile(q float64) float64 {\nif h == nil {\nreturn 0\n}",
		insert: `func (h *Histogram) Quantile(q float64) float64 {`, cut: true}}, ""},
		nil, "", []string{"obs.TestNilRegistryAndMetricsAreNoOps"}},
	{"dump-guard-cut", plant{"internal/obs", "render.go", []edit{{anchor: "func (r *Registry) Dump() []MetricJSON {\nif r == nil {\nreturn nil\n}",
		insert: `func (r *Registry) Dump() []MetricJSON {`, cut: true}}, ""},
		nil, "", []string{"obs.TestNilRegistryAndMetricsAreNoOps"}},
	{"unguarded-method", plant{"internal/obs", "obs.go", after(`func (c *Counter) metricHelp() string { return c.help }`,
		"\n// Reset zeroes the count.\nfunc (c *Counter) Reset() { c.v.Store(0) }"), ""},
		nil, "", []string{"obs.TestNilRegistryAndMetricsAreNoOps"}},

	// Discarded errors.
	{"snapshot-error-dropped", plant{inDaemon, daemonGo, []edit{{anchor: `d.closeErr = d.writeSnapshot(d.cfg.SnapshotPath)`,
		insert: `d.writeSnapshot(d.cfg.SnapshotPath)`, cut: true}}, ""},
		ErrFlow, `error result of d.writeSnapshot is silently discarded`, []string{"daemon.TestSnapshotWriteFailureSurfaces"}},
	{"close-error-dropped", plant{"internal/shard", "shard.go", []edit{{anchor: "for i, d := range c.fabrics {\nerrs[i] = d.Close()",
		insert: "for _, d := range c.fabrics {\n\td.Close()", cut: true}}, ""},
		ErrFlow, `error result of d.Close is silently discarded`, nil},
	{"blank-uncommented", plant{inDaemon, daemonGo, []edit{{anchor: `_ = os.Remove(tmp) // best effort: the temp file is junk`,
		insert: `_ = os.Remove(tmp)`, cut: true}}, ""},
		ErrFlow, `_ discards an error without an adjacent justification comment`, nil},
}

// notRegressions are the concurrencyPlants rows no gate names, with
// why none needs to.
var notRegressions = map[string]string{
	"loan-returned": "the façade's Decomposer dies with the call, so nothing ever recycles the returned loan",
}

// sometimes lists, for concurrencyPlants rows whose race column is
// empty, the tests that caught the plant in some of the runs but not
// in all: a catch that depends on the schedule does not count.
var sometimes = map[string][]string{
	"terminal-from-cancel": {"daemon.TestConcurrentRegistrationsAndReads"},
}

const (
	inDaemon         = "internal/daemon"
	daemonGo         = "daemon.go"
	lastScheduleCopy = `lastSchedule = append([]online.Assignment(nil), res.Served...)`
)

var (
	// stepGates measure the full scan of online.(*State).step: a
	// completion every slot forbids the replay.
	stepGates = []string{"TestPlannerTickDoesNotAllocate", "TestStepDoesNotAllocate", "TestStepObsEnabledDoesNotAllocate", "TestStepWithFailedPortDoesNotAllocate"}
	// everyStepGate adds the gate that only ever replays.
	everyStepGate = append([]string{"TestPerShardTickDoesNotAllocate"}, stepGates...)
	// planGates reach Decomposer.Update and the matcher under it.
	planGates = []string{"TestDecomposeDoesNotAllocate", "TestPlannerTickDoesNotAllocate"}
)

// ruleFamilies names every rule of every shipped analyzer by a
// fragment of its message. runFixture fails on a finding that belongs
// to no family, and TestPlantedViolations on a family that no plant
// needs.
var ruleFamilies = map[*Analyzer][]string{
	AllocFree: {"appends to", "writes into a map", "is not annotated"},
	ObsGuard:  {"does not reach"},
	GuardedBy: {"but the access does not hold", "serialization domain"},
	ErrFlow:   {"is silently discarded", "without an adjacent justification comment"},
	Pooled:    {"used after a later call"},
	Publish:   {"was published"},
}

// TestPlantedViolations is the bar every shipped analyzer must clear.
// Each row of allocPlants and concurrencyPlants writes a realistic
// regression into a copy of a real package and demands exactly the
// static findings the row lists; a row whose anchor is gone fails. Then
// the rule, fixed before the data: every rule family of every analyzer
// must have a plant that it catches and no other gate does — not the
// compiler's escape analysis, not a runtime test, not -race (the
// dynamic columns are re-derived by the slowcheck tests).
func TestPlantedViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks real packages with their imports; skipped with -short")
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
			if got := messages(findings(l, AllocFree, pkg), row.file, line); !matches(row.allocfree, got) {
				t.Errorf("allocfree at %s:%d: want %q, got %q", row.file, line, row.allocfree, got)
			}
			if got := newEscapes(t, l, row.plant, pkg, dir); !matches(row.escape, got) {
				t.Errorf("escapecheck: want %q, got %q", row.escape, got)
			}
		})
	}
	for _, row := range concurrencyPlants {
		t.Run(row.name, func(t *testing.T) {
			l, err := NewLoader("../..")
			if err != nil {
				t.Fatalf("NewLoader: %v", err)
			}
			pkg, _, _ := row.load(t, l)
			for _, a := range All {
				want := ""
				if a == row.by {
					want = row.want
				}
				if got := messages(findings(l, a, pkg), "", 0); !matches(want, got) {
					t.Errorf("%s: want %q, got %q", a.Name, want, got)
				}
			}
		})
	}

	for _, row := range concurrencyPlants {
		if _, ok := notRegressions[row.name]; ok != (row.by == nil && row.race == nil) {
			t.Errorf("plant %s: a row is in notRegressions exactly when no gate names it", row.name)
		}
	}
	for _, a := range All {
		rules, ok := ruleFamilies[a]
		if !ok {
			t.Errorf("analyzer %s has no rule families: name them in ruleFamilies", a.Name)
		}
		for _, rule := range rules {
			alone := false
			for _, row := range allocPlants {
				if a == AllocFree && row.escape == "" && row.runtime == nil && strings.Contains(row.allocfree, rule) {
					alone = true
				}
			}
			for _, row := range concurrencyPlants {
				if a == row.by && row.race == nil && strings.Contains(row.want, rule) {
					alone = true
				}
			}
			if !alone {
				t.Errorf("no plant is caught by %s's %q rule and by no other gate: the rule duplicates them, delete it", a.Name, rule)
			}
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
