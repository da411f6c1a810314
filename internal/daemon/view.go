package daemon

import "encoding/json"

// CoflowView is the snapshot's coflow table: an immutable layered
// view over a flattened base map plus a bounded, append-only delta of
// statuses that changed since the last flatten. It exists so the loop
// can publish a register or cancel without rebuilding a status for
// every coflow the fabric has ever seen — the O(all coflows) flatten
// is paid only on ticks (whose statuses all change anyway) and on
// delta overflow, so ingest-heavy bursts publish in O(1).
//
// Lookups see base ∪ delta with later delta entries winning. A view
// is immutable: the base map is never written after it is published,
// and the delta backing array is append-only past every published
// view's bound, so concurrent readers need no locks.
type CoflowView struct {
	base  map[int]*CoflowStatus
	delta []viewDelta // shared backing array; this view reads [:n]
	n     int
}

type viewDelta struct {
	id int
	cs *CoflowStatus
}

// Get returns the status of one coflow, or nil if the view has never
// seen the ID. Newer delta entries shadow base entries.
func (v *CoflowView) Get(id int) *CoflowStatus {
	if v == nil {
		return nil
	}
	for i := v.n - 1; i >= 0; i-- {
		if v.delta[i].id == id {
			return v.delta[i].cs
		}
	}
	return v.base[id]
}

// Range calls f for every coflow in the view (iteration order is
// unspecified, like a map). Returning false stops the walk.
func (v *CoflowView) Range(f func(id int, cs *CoflowStatus) bool) {
	if v == nil {
		return
	}
	var seen map[int]bool
	if v.n > 0 {
		seen = make(map[int]bool, v.n)
	}
	for i := v.n - 1; i >= 0; i-- {
		d := v.delta[i]
		if seen[d.id] {
			continue
		}
		seen[d.id] = true
		if !f(d.id, d.cs) {
			return
		}
	}
	for id, cs := range v.base {
		if seen[id] {
			continue
		}
		if !f(id, cs) {
			return
		}
	}
}

// Map materializes the view as a plain map. The result is a fresh
// copy the caller owns.
func (v *CoflowView) Map() map[int]*CoflowStatus {
	if v == nil {
		return nil
	}
	out := make(map[int]*CoflowStatus, len(v.base)+v.n)
	v.Range(func(id int, cs *CoflowStatus) bool {
		out[id] = cs
		return true
	})
	return out
}

// MarshalJSON renders the view exactly like the map it replaced: a
// JSON object keyed by coflow ID. The snapshot file format and the
// /v1/coflows wire format are unchanged.
func (v *CoflowView) MarshalJSON() ([]byte, error) {
	return json.Marshal(v.Map())
}

// UnmarshalJSON accepts the same object form (snapshot files written
// by Close round-trip).
func (v *CoflowView) UnmarshalJSON(b []byte) error {
	var m map[int]*CoflowStatus
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*v = CoflowView{base: m}
	return nil
}
