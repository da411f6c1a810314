package check

import (
	"fmt"

	"coflow/internal/coflowmodel"
	"coflow/internal/online"
)

// ProgramRun counts what an op program exercised.
type ProgramRun struct {
	Slots        int // slots stepped
	FailedServes int // slots that served a unit while a port was down
}

// RunProgram interprets prog as an op program on a Shadow of the given
// size — coflow arrivals, cancels, port failures and recoveries, and
// slot steps — and returns the first fast-path/reference divergence as
// its error. It then recovers every port and drains the backlog, so the
// saturation exit and the completion paths run, not only the slots the
// program asked for; a drain slot that serves nothing once every live
// coflow is released is an error too. Last, the recorded log must
// replay clean. Any byte string is a valid program, which makes it a
// fuzz body.
func RunProgram(ports int, policy online.Policy, prog []byte) (ProgramRun, error) {
	sh := NewShadow(ports, ShadowConfig{NoMinimize: true})
	var (
		run  ProgramRun
		slot int64
		keys int
		i    int
	)
	next := func() int {
		if i >= len(prog) {
			return 0
		}
		b := int(prog[i])
		i++
		return b
	}
	step := func() (online.StepResult, error) {
		slot++
		run.Slots++
		res, div := sh.Step(slot, policy)
		if div != nil {
			return res, fmt.Errorf("ports=%d %v: %w", ports, policy, div)
		}
		if len(res.Served) > 0 && sh.State.FailedPortCount() > 0 {
			run.FailedServes++
		}
		return res, nil
	}
	for i < len(prog) {
		var err error
		switch op := next(); op % 9 {
		case 0, 1, 2:
			nf := 1 + next()%4
			flows := make([]coflowmodel.Flow, 0, nf)
			for f := 0; f < nf; f++ {
				flows = append(flows, coflowmodel.Flow{
					Src: next() % ports, Dst: next() % ports, Size: int64(next()%5 + 1),
				})
			}
			weight, release := float64(1+next()%4), slot+int64(next()%3)
			if _, aerr := sh.Add(keys, weight, release, flows); aerr != nil {
				err = fmt.Errorf("add %d rejected: %w", keys, aerr)
			}
			keys++
		case 3, 4:
			_, err = step()
		case 5:
			for n := next()%6 + 1; n > 0 && err == nil; n-- {
				_, err = step()
			}
		case 6:
			if keys > 0 {
				sh.Remove(next() % keys)
			}
		case 7:
			err = sh.FailPort(next() % ports)
		case 8:
			err = sh.RecoverPort(next() % ports)
		}
		if err != nil {
			return run, err
		}
		if sh.div != nil {
			return run, fmt.Errorf("ports=%d %v: %w", ports, policy, sh.div)
		}
	}
	for p := 0; p < ports; p++ {
		if err := sh.RecoverPort(p); err != nil {
			return run, err
		}
	}
	// Releases lie at most 2 slots ahead and an add carries at most 20
	// units, so a working scheduler drains well within this bound.
	for limit := slot + int64(20*len(prog)) + 8; sh.State.Len() > 0; {
		if slot > limit {
			return run, fmt.Errorf("ports=%d %v: stalled with %d live coflows after slot %d", ports, policy, sh.State.Len(), slot)
		}
		// Once every live coflow is released, demand must shrink every
		// slot: with every port up a work-conserving greedy serves at
		// least one unit.
		allReleased := sh.State.NextRelease(slot) < 0
		res, err := step()
		if err != nil {
			return run, err
		}
		if allReleased && len(res.Served) == 0 {
			return run, fmt.Errorf("ports=%d %v: slot %d served nothing with %d live coflows, all released",
				ports, policy, slot, sh.State.Len())
		}
	}
	if div := Replay(ports, sh.ops); div != nil {
		return run, fmt.Errorf("ports=%d %v: clean run replays divergent: %w", ports, policy, div)
	}
	return run, nil
}
