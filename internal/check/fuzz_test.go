package check

import (
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/online"
)

// FuzzStepVsReference interprets the fuzz input as an op program —
// interleaved coflow arrivals, cancellations and slot steps on a
// small switch — and runs it through the differential oracle,
// failing on the first fast-path/reference divergence. The program is
// then drained to completion so the saturation exit and the
// completion paths get exercised, not just the slots the program
// happened to request.
func FuzzStepVsReference(f *testing.F) {
	// Seeds cover each policy, arrivals after steps (release
	// crossings), cancellations, and dense multi-coflow contention.
	f.Add(uint8(1), []byte{0, 1, 2, 3, 0, 4, 3, 3})
	f.Add(uint8(0), []byte{0, 0, 0, 3, 6, 3, 3, 3})
	f.Add(uint8(2), []byte{0, 3, 3, 0, 3, 1, 3, 7, 9})
	f.Add(uint8(5), []byte{2, 2, 2, 2, 3, 3, 3, 3, 3, 3})
	f.Add(uint8(4), []byte{0, 255, 3, 128, 3, 64, 6, 3})

	f.Fuzz(func(t *testing.T, cfg uint8, prog []byte) {
		// Cap the program: the reference scheduler is deliberately
		// O(active·m²) per slot, so an unbounded generated input can
		// take tens of seconds and starve the fuzzing loop.
		if len(prog) > 256 {
			prog = prog[:256]
		}
		ports := 1 + int(cfg>>4)%6
		policy := online.Policy(int(cfg) % 3)
		sh := NewShadow(ports, ShadowConfig{NoMinimize: true})

		next := func(i *int) int {
			if *i >= len(prog) {
				return 0
			}
			b := int(prog[*i])
			*i++
			return b
		}

		var slot int64
		key := 0
		step := func() online.StepResult {
			slot++
			res, div := sh.Step(slot, policy)
			if div != nil {
				t.Fatalf("ports=%d policy=%v: %v", ports, policy, div)
			}
			return res
		}
		for i := 0; i < len(prog); {
			switch op := next(&i); op % 8 {
			case 0, 1, 2:
				nf := 1 + next(&i)%3
				flows := make([]coflowmodel.Flow, 0, nf)
				for f := 0; f < nf; f++ {
					flows = append(flows, coflowmodel.Flow{
						Src:  next(&i) % ports,
						Dst:  next(&i) % ports,
						Size: int64(next(&i)%4 + 1),
					})
				}
				weight := float64(1 + op%4)
				release := slot + int64(next(&i)%4)
				if _, err := sh.Add(key, weight, release, flows); err != nil {
					t.Fatalf("add %d rejected: %v", key, err)
				}
				key++
			case 3, 4, 5:
				step()
			case 6:
				if key > 0 {
					sh.Remove(next(&i) % key)
				}
			case 7:
				for n := next(&i)%6 + 1; n > 0; n-- {
					step()
				}
			}
			if div := sh.div; div != nil {
				t.Fatalf("ports=%d policy=%v: %v", ports, policy, div)
			}
		}

		// Drain: releases are at most slot+3 at add time and total
		// demand is bounded by the program length, so a working
		// scheduler finishes within maxSlots. A stall is a bug.
		maxSlots := slot + int64(4*len(prog)) + 8
		for sh.State.Len() > 0 && slot < maxSlots {
			// Once every live coflow is released, demand must shrink
			// every slot: no port fails here, so a work-conserving
			// greedy serves at least one unit.
			allReleased := sh.State.NextRelease(slot) < 0
			if res := step(); allReleased && len(res.Served) == 0 {
				t.Fatalf("ports=%d policy=%v: slot %d served nothing with %d live coflows, all released",
					ports, policy, slot, sh.State.Len())
			}
		}
		if sh.State.Len() > 0 {
			t.Fatalf("ports=%d policy=%v: stalled with %d live coflows after %d slots",
				ports, policy, sh.State.Len(), slot)
		}
		if div := Replay(ports, sh.ops); div != nil {
			t.Fatalf("ports=%d policy=%v: clean run replays divergent: %v", ports, policy, div)
		}
	})
}
