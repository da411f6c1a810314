// MapReduce shuffles: three concurrent jobs share a 4×4 fabric. The
// example shows the Birkhoff–von Neumann decomposition that clears an
// individual shuffle in exactly ρ(D) slots (Lemma 4), then compares a
// naive arrival-order schedule against Algorithm 2 on the whole batch.
//
//	go run ./examples/mapreduce
package main

import (
	"fmt"
	"log"

	"coflow"
	"coflow/internal/check"
	"coflow/internal/core"
	"coflow/internal/switchsim"
)

func main() {
	log.SetFlags(0)

	// Job A: wide all-to-all shuffle (4 mappers × 4 reducers).
	a := coflow.NewMatrix(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, 2)
		}
	}
	// Job B: skewed reduce — everything funnels into reducer 0.
	b := coflow.NewMatrix(4)
	b.Set(0, 0, 3)
	b.Set(1, 0, 3)
	b.Set(2, 0, 2)
	// Job C: small interactive job, high weight (latency sensitive).
	c := coflow.NewMatrix(4)
	c.Set(3, 3, 1)
	c.Set(3, 2, 1)

	fmt.Println("Birkhoff–von Neumann decomposition of job A (ρ = 8):")
	dec, err := coflow.Decompose(a)
	if err != nil {
		log.Fatal(err)
	}
	for u, term := range dec.Terms {
		fmt.Printf("  matching %d for %d slots: %v\n", u+1, term.Count, term.Perm.To)
	}
	fmt.Printf("  => %d matchings, %d total slots (= ρ, optimal in isolation)\n\n",
		len(dec.Terms), dec.TotalSlots())

	ins := &coflow.Instance{
		Ports: 4,
		Coflows: []coflow.Coflow{
			coflow.CoflowFromMatrix(1, 1, 0, a),
			coflow.CoflowFromMatrix(2, 1, 0, b),
			coflow.CoflowFromMatrix(3, 8, 0, c), // weight 8: finish it fast
		},
	}

	naive, err := coflow.Schedule(ins, coflow.Options{Ordering: coflow.OrderArrival})
	if err != nil {
		log.Fatal(err)
	}
	smart, err := coflow.Algorithm2(ins)
	if err != nil {
		log.Fatal(err)
	}
	lb, err := coflow.TimeIndexedLowerBound(ins)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Batch of three jobs (weights 1, 1, 8):")
	fmt.Printf("  %-22s %-12s %-12s\n", "", "arrival(a)", "Algorithm 2")
	for k := range ins.Coflows {
		fmt.Printf("  job %d (w=%g) completes  %-12d %-12d\n",
			ins.Coflows[k].ID, ins.Coflows[k].Weight,
			naive.Completion[k], smart.Completion[k])
	}
	fmt.Printf("  total weighted          %-12.0f %-12.0f\n", naive.TotalWeighted, smart.TotalWeighted)
	fmt.Printf("  LP-EXP lower bound      %.0f (no schedule can beat this)\n", lb)

	// Replay Algorithm 2's schedule with unit-level recording, verify
	// it against the paper's constraints, and draw it.
	rec, tr, err := core.ExecuteOrderedRecorded(ins, smart.Order, core.Options{Grouping: true})
	if err != nil {
		log.Fatal(err)
	}
	if vs := check.Schedule(ins, check.FromTranscript(tr, rec.Result)); vs != nil {
		log.Fatalf("transcript failed validation: %d violations, first: %v", len(vs), vs[0])
	}
	fmt.Println()
	fmt.Print(switchsim.RenderGantt(ins, tr, 80))
}
