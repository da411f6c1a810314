// Package coflowmodel defines the problem data of the paper: coflows
// (collections of parallel flows with a common performance goal),
// scheduling instances over an m×m non-blocking switch, and their
// serialization.
//
// A coflow k is an m×m demand matrix D(k) together with a positive
// weight w_k and an integer release date r_k. Demands are stored
// sparsely (real traces are sparse); dense matrices are materialized
// on demand for the Birkhoff–von Neumann machinery.
package coflowmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"coflow/internal/matrix"
)

// Flow is one point-to-point transfer within a coflow: Size data
// units from ingress port Src to egress port Dst.
type Flow struct {
	Src  int   `json:"src"`
	Dst  int   `json:"dst"`
	Size int64 `json:"size"`
}

// Coflow is a collection of parallel flows released together.
type Coflow struct {
	ID      int     `json:"id"`
	Weight  float64 `json:"weight"`
	Release int64   `json:"release"`
	Flows   []Flow  `json:"flows"`
}

// Clone returns a deep copy of c.
func (c *Coflow) Clone() Coflow {
	out := *c
	out.Flows = make([]Flow, len(c.Flows))
	copy(out.Flows, c.Flows)
	return out
}

// Matrix materializes the demand matrix D(k) on an m-port switch.
// Flows sharing a port pair accumulate.
func (c *Coflow) Matrix(m int) *matrix.Matrix {
	d := matrix.NewSquare(m)
	for _, f := range c.Flows {
		d.Add(f.Src, f.Dst, f.Size)
	}
	return d
}

// RowLoads returns, per ingress port, the total demand of the coflow.
func (c *Coflow) RowLoads(m int) []int64 {
	out := make([]int64, m)
	for _, f := range c.Flows {
		out[f.Src] += f.Size
	}
	return out
}

// ColLoads returns, per egress port, the total demand of the coflow.
func (c *Coflow) ColLoads(m int) []int64 {
	out := make([]int64, m)
	for _, f := range c.Flows {
		out[f.Dst] += f.Size
	}
	return out
}

// Load returns ρ(D(k)) for an m-port switch: the maximum port load
// (Eq. 18), the minimum time to clear the coflow in isolation. Up to
// 128 ports both sum vectors live on the stack and nothing is
// allocated.
func (c *Coflow) Load(m int) int64 {
	var stack [2 * 128]int64
	sums := stack[:]
	if 2*m > len(sums) {
		sums = make([]int64, 2*m)
	}
	rows, cols := sums[:m], sums[m:2*m]
	for _, f := range c.Flows {
		rows[f.Src] += f.Size
		cols[f.Dst] += f.Size
	}
	var load int64
	for i := range rows {
		load = max(load, rows[i], cols[i])
	}
	return load
}

// TotalSize returns the total number of data units in the coflow.
func (c *Coflow) TotalSize() int64 {
	var s int64
	for _, f := range c.Flows {
		s += f.Size
	}
	return s
}

// NonZeroFlows returns the number of distinct port pairs with positive
// demand (the paper's M0 filtering statistic).
func (c *Coflow) NonZeroFlows() int {
	seen := make(map[[2]int]int64, len(c.Flows))
	for _, f := range c.Flows {
		if f.Size > 0 {
			seen[[2]int{f.Src, f.Dst}] += f.Size
		}
	}
	return len(seen)
}

// Width returns (#active ingress ports, #active egress ports), the
// "mappers × reducers" shape of the coflow.
func (c *Coflow) Width() (in, out int) {
	srcs := map[int]bool{}
	dsts := map[int]bool{}
	for _, f := range c.Flows {
		if f.Size > 0 {
			srcs[f.Src] = true
			dsts[f.Dst] = true
		}
	}
	return len(srcs), len(dsts)
}

// FromMatrix builds a Coflow from a dense demand matrix.
func FromMatrix(id int, weight float64, release int64, d *matrix.Matrix) Coflow {
	c := Coflow{ID: id, Weight: weight, Release: release}
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if v := d.At(i, j); v > 0 {
				c.Flows = append(c.Flows, Flow{Src: i, Dst: j, Size: v})
			}
		}
	}
	return c
}

// Instance is a complete coflow scheduling problem: an m-port switch
// and n coflows.
type Instance struct {
	Ports   int      `json:"ports"`
	Coflows []Coflow `json:"coflows"`
}

// Clone returns a deep copy of the instance.
func (ins *Instance) Clone() *Instance {
	out := &Instance{Ports: ins.Ports, Coflows: make([]Coflow, len(ins.Coflows))}
	for i := range ins.Coflows {
		out.Coflows[i] = ins.Coflows[i].Clone()
	}
	return out
}

// Validate checks structural soundness: positive port count, port
// indices in range, non-negative sizes and release dates, positive
// weights, and distinct coflow IDs.
func (ins *Instance) Validate() error {
	if ins.Ports <= 0 {
		return fmt.Errorf("coflowmodel: non-positive port count %d", ins.Ports)
	}
	ids := make(map[int]bool, len(ins.Coflows))
	for k := range ins.Coflows {
		c := &ins.Coflows[k]
		if ids[c.ID] {
			return fmt.Errorf("coflowmodel: duplicate coflow ID %d", c.ID)
		}
		ids[c.ID] = true
		if c.Weight <= 0 {
			return fmt.Errorf("coflowmodel: coflow %d has non-positive weight %g", c.ID, c.Weight)
		}
		if c.Release < 0 {
			return fmt.Errorf("coflowmodel: coflow %d has negative release %d", c.ID, c.Release)
		}
		for _, f := range c.Flows {
			if f.Src < 0 || f.Src >= ins.Ports || f.Dst < 0 || f.Dst >= ins.Ports {
				return fmt.Errorf("coflowmodel: coflow %d flow (%d→%d) outside %d ports",
					c.ID, f.Src, f.Dst, ins.Ports)
			}
			if f.Size < 0 {
				return fmt.Errorf("coflowmodel: coflow %d has negative flow size %d", c.ID, f.Size)
			}
		}
	}
	return nil
}

// TotalWork returns the total number of data units over all coflows.
func (ins *Instance) TotalWork() int64 {
	var s int64
	for k := range ins.Coflows {
		s += ins.Coflows[k].TotalSize()
	}
	return s
}

// MaxRelease returns the latest release date.
func (ins *Instance) MaxRelease() int64 {
	var r int64
	for k := range ins.Coflows {
		if ins.Coflows[k].Release > r {
			r = ins.Coflows[k].Release
		}
	}
	return r
}

// Horizon returns the paper's T = max_k r_k + Σ_k Σ_ij d_ij(k): a time
// by which even the naive one-unit-per-slot schedule finishes.
func (ins *Instance) Horizon() int64 {
	return ins.MaxRelease() + ins.TotalWork()
}

// SetEqualWeights assigns weight 1 to every coflow.
func (ins *Instance) SetEqualWeights() {
	for k := range ins.Coflows {
		ins.Coflows[k].Weight = 1
	}
}

// SetRandomPermutationWeights assigns the weights {1, 2, …, n} in a
// random order (the paper's "random weights" setting).
func (ins *Instance) SetRandomPermutationWeights(rng *rand.Rand) {
	n := len(ins.Coflows)
	perm := rng.Perm(n)
	for k := range ins.Coflows {
		ins.Coflows[k].Weight = float64(perm[k] + 1)
	}
}

// FilterMinFlows returns a new instance containing only coflows with
// at least minFlows non-zero flows (the paper's M0 ≥ … filter).
func (ins *Instance) FilterMinFlows(minFlows int) *Instance {
	out := &Instance{Ports: ins.Ports}
	for k := range ins.Coflows {
		if ins.Coflows[k].NonZeroFlows() >= minFlows {
			out.Coflows = append(out.Coflows, ins.Coflows[k].Clone())
		}
	}
	return out
}

// ZeroReleases returns a copy of the instance with all release dates
// set to 0 (the paper's experimental setting).
func (ins *Instance) ZeroReleases() *Instance {
	out := ins.Clone()
	for k := range out.Coflows {
		out.Coflows[k].Release = 0
	}
	return out
}

// SortByID orders coflows by ascending ID (the trace arrival order
// used by the H_A baseline).
func (ins *Instance) SortByID() {
	sort.Slice(ins.Coflows, func(a, b int) bool { return ins.Coflows[a].ID < ins.Coflows[b].ID })
}

// Write serializes the instance as indented JSON.
func (ins *Instance) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ins)
}

// Read parses an instance from JSON and validates it.
func Read(r io.Reader) (*Instance, error) {
	var ins Instance
	if err := json.NewDecoder(r).Decode(&ins); err != nil {
		return nil, fmt.Errorf("coflowmodel: decode: %w", err)
	}
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	return &ins, nil
}

// WriteFile saves the instance to path.
func (ins *Instance) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	//lint:ignore errflow safety net for early returns; the success path checks the explicit Close below
	defer f.Close()
	if err := ins.Write(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile loads and validates an instance from path.
func ReadFile(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore errflow read-only file: Close cannot lose data and read errors surface from Read
	defer f.Close()
	return Read(f)
}
