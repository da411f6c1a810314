package coflowmodel

import (
	"errors"
	"fmt"
)

// ErrMalformed marks registration payloads that failed to DECODE (as
// opposed to well-formed JSON that failed validation). HTTP layers
// branch on it with errors.Is to classify 400s for clients.
var ErrMalformed = errors.New("coflowmodel: malformed registration")

// Registration is the wire format for registering a coflow with a
// running scheduler (coflowd's POST /v1/coflows): the caller supplies
// demand and an optional weight; the service assigns the ID and the
// release date ("now", the service's current slot). It is
// deliberately a subset of Coflow — clients must not pick IDs or
// backdate releases.
type Registration struct {
	// Weight is the coflow's weight w_k; zero means "default" (1).
	Weight float64 `json:"weight,omitempty"`
	// Flows is the sparse demand. Flows sharing a port pair
	// accumulate. A registration with no positive demand is legal and
	// completes at its release slot.
	Flows []Flow `json:"flows"`
	// Fabric, when set, pins the registration to an explicit switch
	// fabric in a sharded deployment instead of letting the router
	// hash it. nil means "route by hash". Single-fabric services
	// accept only nil or 0; a sharded cluster validates the range and
	// rejects unknown fabric IDs with a structured 400.
	Fabric *int `json:"fabric,omitempty"`
}

// Validate checks the registration against an m-port switch: weight
// must not be negative (zero is the default), ports must be in range,
// and sizes non-negative.
func (reg *Registration) Validate(ports int) error {
	if reg.Weight < 0 {
		return fmt.Errorf("coflowmodel: registration has negative weight %g", reg.Weight)
	}
	if reg.Fabric != nil && *reg.Fabric < 0 {
		return fmt.Errorf("coflowmodel: registration has negative fabric %d", *reg.Fabric)
	}
	for _, f := range reg.Flows {
		if f.Src < 0 || f.Src >= ports || f.Dst < 0 || f.Dst >= ports {
			return fmt.Errorf("coflowmodel: registration flow (%d→%d) outside %d ports", f.Src, f.Dst, ports)
		}
		if f.Size < 0 {
			return fmt.Errorf("coflowmodel: registration has negative flow size %d", f.Size)
		}
	}
	return nil
}

// Coflow materializes the registration as a Coflow with the
// service-assigned ID and release slot, applying the default weight.
// The flow slice is copied; the registration stays independent.
func (reg *Registration) Coflow(id int, release int64) Coflow {
	w := reg.Weight
	if w == 0 {
		w = 1
	}
	return Coflow{
		ID:      id,
		Weight:  w,
		Release: release,
		Flows:   append([]Flow(nil), reg.Flows...),
	}
}
