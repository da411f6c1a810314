package lp

// Seams for the package lp_test tests, which compare this package with
// the dense oracle and so cannot be package lp: internal/lp/dense
// imports lp.

// RandomProblem, TwoJobs and SolveRevised are the package lp tests'
// random LP generator, start-basis fixture and raw revised simplex.
var (
	RandomProblem = randomProblem
	TwoJobs       = twoJobs
	SolveRevised  = solveRevised
)

// SolveBreakingDown is Solver.Solve with a revised-simplex stage that
// runs the real one and then reports breakdown(run) as numerical
// breakdown when it is not nil; run counts the stage's runs in this
// solve from 0.
func (s *Solver) SolveBreakingDown(p *Problem, start []int, breakdown func(run int) error) (*Solution, error) {
	run := 0
	return s.solve(p, start, func(r *revised, q *Problem, start []int) (Status, int, error) {
		status, iters, err := r.solve(q, start)
		if planted := breakdown(run); planted != nil {
			err = planted
		}
		run++
		return status, iters, err
	})
}
