package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runRecord is one run as a set file keeps it: which workload, seed
// and mode, and the result object the run printed.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	report
}

// setFile is what -out writes and -compare reads.
type setFile struct {
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// write stores the set with one run per line: small enough to commit,
// and a changed run shows as a changed line.
func (f *setFile) write(path string) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"seconds\": %v, \"runs\": [", f.Seconds)
	for i := range f.Runs {
		line, err := json.Marshal(&f.Runs[i])
		if err != nil {
			return err
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
		b.Write(line)
	}
	b.WriteString("\n]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// runSuite runs every workload untraced and then traced, each run in a
// child process of its own so that peak memory and allocation belong to
// one workload. Set i of sets uses seed+i, so one file can hold the
// several seeds a spread is computed over, and two files written by the
// same command hold the same inputs.
func runSuite(seed int64, seconds float64, sets int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := setFile{Seconds: seconds}
	failed := false
	for set := 0; set < sets; set++ {
		for _, w := range workloads() {
			for trace, defs := range [][]metricDef{endToEnd, perLayer} {
				rec := runRecord{Workload: w.name(), Seed: seed + int64(set), Trace: trace}
				if err := runChild(exe, seconds, &rec); err != nil {
					return err
				}
				fmt.Printf("== %s  seed %d  trace %d  attempted %d  failed %d\n", rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
				for _, d := range defs {
					if v := rec.Metrics[d.Name].Value; v != 0 {
						fmt.Printf("   %-30s %16.6g %s\n", d.Name, v, d.Unit)
					}
				}
				failed = failed || !rec.Correct
				file.Runs = append(file.Runs, rec)
			}
		}
	}
	if out != "" {
		if err := file.write(out); err != nil {
			return err
		}
	}
	if failed {
		return errFailed
	}
	return nil
}

// runChild runs one workload in a child process, waits for it, and
// parses the result object off the last line it printed. A child that
// counted failures still printed its result; one that printed none is
// an error.
func runChild(exe string, seconds float64, rec *runRecord) error {
	cmd := exec.Command(exe,
		"-workload", rec.Workload,
		"-seed", strconv.FormatInt(rec.Seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(rec.Trace))
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rec.report); err != nil || rec.Metrics == nil {
		return fmt.Errorf("%s (trace %d) printed no result: %v", rec.Workload, rec.Trace, runErr)
	}
	return nil
}
