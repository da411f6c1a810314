package coflowmodel

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"coflow/internal/matrix"
)

func figure1Coflow() Coflow {
	return Coflow{
		ID:     1,
		Weight: 1,
		Flows: []Flow{
			{0, 0, 1}, {0, 1, 2},
			{1, 0, 2}, {1, 1, 1},
		},
	}
}

func TestCoflowMatrixAndLoad(t *testing.T) {
	c := figure1Coflow()
	d := c.Matrix(2)
	want := matrix.MustFromRows([][]int64{{1, 2}, {2, 1}})
	if !d.Equal(want) {
		t.Fatalf("Matrix = %v, want %v", d, want)
	}
	if got := c.Load(2); got != 3 {
		t.Fatalf("Load = %d, want 3", got)
	}
	if got := c.TotalSize(); got != 6 {
		t.Fatalf("TotalSize = %d, want 6", got)
	}
}

// Load is called once per coflow by every ordering rule and once per
// registration by the daemon: up to 128 ports it sums on the stack.
// Beyond that it allocates, and must still equal the largest of
// RowLoads and ColLoads.
func TestLoadDoesNotAllocate(t *testing.T) {
	for _, m := range []int{1, 100, 128, 129, 300} {
		c := Coflow{ID: 1, Weight: 1}
		for i := 0; i < 3*m; i++ {
			c.Flows = append(c.Flows, Flow{Src: i * 7 % m, Dst: i * i % m, Size: int64(1 + i%5)})
		}
		var want int64
		for _, v := range append(c.RowLoads(m), c.ColLoads(m)...) {
			want = max(want, v)
		}
		if got := c.Load(m); got != want {
			t.Fatalf("Load(%d) = %d, the largest row or column load is %d", m, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.Load(m) }); m <= 128 && allocs != 0 {
			t.Fatalf("Load(%d) allocates %v times per call, want 0", m, allocs)
		}
	}
}

func TestCoflowDuplicatePairsAccumulate(t *testing.T) {
	c := Coflow{ID: 1, Weight: 1, Flows: []Flow{{0, 1, 2}, {0, 1, 3}}}
	if got := c.Matrix(2).At(0, 1); got != 5 {
		t.Fatalf("accumulated size = %d, want 5", got)
	}
	if got := c.NonZeroFlows(); got != 1 {
		t.Fatalf("NonZeroFlows = %d, want 1 (same pair)", got)
	}
}

func TestRowColLoads(t *testing.T) {
	c := figure1Coflow()
	rows := c.RowLoads(2)
	cols := c.ColLoads(2)
	if rows[0] != 3 || rows[1] != 3 || cols[0] != 3 || cols[1] != 3 {
		t.Fatalf("loads: rows=%v cols=%v, want all 3", rows, cols)
	}
}

func TestWidth(t *testing.T) {
	c := Coflow{Flows: []Flow{{0, 5, 1}, {0, 6, 2}, {3, 5, 1}, {4, 9, 0}}}
	in, out := c.Width()
	if in != 2 || out != 2 {
		t.Fatalf("Width = (%d,%d), want (2,2); zero-size flow must not count", in, out)
	}
}

func TestFromMatrixRoundTrip(t *testing.T) {
	d := matrix.MustFromRows([][]int64{{0, 4, 0}, {1, 0, 0}, {0, 0, 9}})
	c := FromMatrix(7, 2.5, 3, d)
	if c.ID != 7 || c.Weight != 2.5 || c.Release != 3 {
		t.Fatalf("metadata lost: %+v", c)
	}
	if !c.Matrix(3).Equal(d) {
		t.Fatalf("round trip failed: %v != %v", c.Matrix(3), d)
	}
	if c.NonZeroFlows() != 3 {
		t.Fatalf("NonZeroFlows = %d, want 3", c.NonZeroFlows())
	}
}

func validInstance() *Instance {
	return &Instance{
		Ports: 2,
		Coflows: []Coflow{
			figure1Coflow(),
			{ID: 2, Weight: 2, Release: 5, Flows: []Flow{{1, 0, 4}}},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validInstance().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Instance){
		"zero ports":     func(i *Instance) { i.Ports = 0 },
		"dup id":         func(i *Instance) { i.Coflows[1].ID = 1 },
		"bad weight":     func(i *Instance) { i.Coflows[0].Weight = 0 },
		"neg release":    func(i *Instance) { i.Coflows[0].Release = -1 },
		"port range src": func(i *Instance) { i.Coflows[0].Flows[0].Src = 2 },
		"port range dst": func(i *Instance) { i.Coflows[0].Flows[0].Dst = -1 },
		"neg flow size":  func(i *Instance) { i.Coflows[0].Flows[0].Size = -2 },
	}
	for name, corrupt := range cases {
		ins := validInstance()
		corrupt(ins)
		if err := ins.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}

func TestTotalWorkAndHorizon(t *testing.T) {
	ins := validInstance()
	if got := ins.TotalWork(); got != 10 {
		t.Fatalf("TotalWork = %d, want 10", got)
	}
	if got := ins.MaxRelease(); got != 5 {
		t.Fatalf("MaxRelease = %d, want 5", got)
	}
	if got := ins.Horizon(); got != 15 {
		t.Fatalf("Horizon = %d, want 15", got)
	}
}

func TestWeightHelpers(t *testing.T) {
	ins := validInstance()
	ins.SetEqualWeights()
	for _, c := range ins.Coflows {
		if c.Weight != 1 {
			t.Fatalf("equal weights: got %g", c.Weight)
		}
	}
	rng := rand.New(rand.NewSource(1))
	ins.SetRandomPermutationWeights(rng)
	seen := map[float64]bool{}
	for _, c := range ins.Coflows {
		if c.Weight < 1 || c.Weight > float64(len(ins.Coflows)) || seen[c.Weight] {
			t.Fatalf("permutation weights invalid: %v", ins.Coflows)
		}
		seen[c.Weight] = true
	}
}

func TestFilterMinFlows(t *testing.T) {
	ins := validInstance()
	f := ins.FilterMinFlows(2)
	if len(f.Coflows) != 1 || f.Coflows[0].ID != 1 {
		t.Fatalf("filter kept %v", f.Coflows)
	}
	// Original untouched.
	if len(ins.Coflows) != 2 {
		t.Fatal("filter modified original")
	}
}

func TestZeroReleases(t *testing.T) {
	z := validInstance().ZeroReleases()
	for _, c := range z.Coflows {
		if c.Release != 0 {
			t.Fatalf("release %d survived", c.Release)
		}
	}
}

func TestSortByID(t *testing.T) {
	ins := &Instance{Ports: 1, Coflows: []Coflow{
		{ID: 3, Weight: 1}, {ID: 1, Weight: 1}, {ID: 2, Weight: 1},
	}}
	ins.SortByID()
	for i, want := range []int{1, 2, 3} {
		if ins.Coflows[i].ID != want {
			t.Fatalf("order %v", ins.Coflows)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ins := validInstance()
	var buf bytes.Buffer
	if err := ins.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ports != ins.Ports || len(got.Coflows) != len(ins.Coflows) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Coflows[0].Flows[1] != ins.Coflows[0].Flows[1] {
		t.Fatalf("flow lost: %+v", got.Coflows[0])
	}
}

func TestReadRejectsInvalid(t *testing.T) {
	if _, err := Read(bytes.NewBufferString(`{"ports":0,"coflows":[]}`)); err == nil {
		t.Fatal("invalid instance accepted")
	}
	if _, err := Read(bytes.NewBufferString(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inst.json")
	ins := validInstance()
	if err := ins.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalWork() != ins.TotalWork() {
		t.Fatal("file round trip mismatch")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}

func TestCloneIndependence(t *testing.T) {
	ins := validInstance()
	c := ins.Clone()
	c.Coflows[0].Flows[0].Size = 99
	if ins.Coflows[0].Flows[0].Size == 99 {
		t.Fatal("Clone shares flow storage")
	}
}
