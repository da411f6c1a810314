package online_test

import (
	"testing"

	"coflow/internal/check"
	"coflow/internal/online"
)

// FuzzRowScanVsCellScan pins the row walk of State.Step — a busy or
// drained ingress row costs one check, and a row is left at its first
// match — to check.Reference, whose greedy matching scans every cell
// of every active coflow. The input is a check.RunProgram op program
// of arrivals, slots, cancels, port failures and recoveries; cfg picks
// the switch size and the policy. The seeds also seed
// check.FuzzStepVsReference, the target the fuzz runs drive.
func FuzzRowScanVsCellScan(f *testing.F) {
	f.Add(uint8(0x31), []byte{0, 1, 2, 3, 1, 4, 3, 3, 7, 1, 3, 3, 8, 1, 5, 4})
	f.Add(uint8(0x72), []byte{1, 2, 0, 1, 4, 1, 0, 0, 2, 3, 3, 7, 0, 5, 5, 6, 0, 3})
	f.Add(uint8(0x50), []byte{2, 3, 1, 2, 3, 9, 2, 2, 3, 2, 1, 4, 6, 1, 5, 3})
	f.Fuzz(func(t *testing.T, cfg uint8, prog []byte) {
		// The reference is O(active·m²) per slot; cap the program so
		// one input stays well under a second.
		if len(prog) > 256 {
			prog = prog[:256]
		}
		if _, err := check.RunProgram(1+int(cfg>>4)%8, online.Policy(int(cfg)%3), prog); err != nil {
			t.Fatal(err)
		}
	})
}
