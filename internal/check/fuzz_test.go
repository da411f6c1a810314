package check

import (
	"math/rand"
	"testing"

	"coflow/internal/online"
)

// TestStepMatchesReferenceOnPrograms pins online.State.Step to the
// Reference slot by slot on seeded op programs with cancels and port
// failure windows, under every policy, on 1 to 8 ports. A sweep in
// which no slot served a unit while a port was down has not exercised
// the masked priorities and fails.
func TestStepMatchesReferenceOnPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, policy := range []online.Policy{online.FIFO, online.SEBF, online.WSPT} {
		var total ProgramRun
		for trial := 0; trial < 200; trial++ {
			prog := make([]byte, 16+rng.Intn(240))
			rng.Read(prog)
			run, err := RunProgram(1+rng.Intn(8), policy, prog)
			if err != nil {
				t.Fatal(err)
			}
			total.Slots += run.Slots
			total.FailedServes += run.FailedServes
		}
		if total.FailedServes == 0 {
			t.Fatalf("%v: no slot served with a port down over %d slots", policy, total.Slots)
		}
	}
}

// FuzzStepVsReference is TestStepMatchesReferenceOnPrograms' op
// program under the fuzzer: cfg picks the switch size and the policy.
func FuzzStepVsReference(f *testing.F) {
	// Seeds cover each policy, arrivals after steps (release
	// crossings), cancellations, port failure windows and dense
	// multi-coflow contention.
	f.Add(uint8(0x31), []byte{0, 1, 2, 3, 1, 4, 3, 3, 7, 1, 3, 3, 8, 1, 5, 4})
	f.Add(uint8(0x72), []byte{1, 2, 0, 1, 4, 1, 0, 0, 2, 3, 3, 7, 0, 5, 5, 6, 0, 3})
	f.Add(uint8(0x50), []byte{2, 3, 1, 2, 3, 9, 2, 2, 3, 2, 1, 4, 6, 1, 5, 3})
	f.Add(uint8(0x25), []byte{2, 2, 2, 2, 3, 3, 3, 3, 3, 3})
	f.Add(uint8(0x44), []byte{0, 255, 3, 128, 3, 64, 6, 3})
	// Port 1 of 2 down, then one slot: coflow 0 (one unit, weight 1)
	// and coflow 1 (two units, weight 4) contend for the live port 0,
	// and the masked SEBF (0x13) and WSPT (0x14) keys put coflow 1
	// first.
	masked := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 7, 1, 3}
	f.Add(uint8(0x13), masked)
	f.Add(uint8(0x14), masked)

	f.Fuzz(func(t *testing.T, cfg uint8, prog []byte) {
		// Cap the program: the reference scheduler is deliberately
		// O(active·m²) per slot, so an unbounded generated input can
		// take tens of seconds and starve the fuzzing loop.
		if len(prog) > 256 {
			prog = prog[:256]
		}
		if _, err := RunProgram(1+int(cfg>>4)%8, online.Policy(int(cfg)%3), prog); err != nil {
			t.Fatal(err)
		}
	})
}
