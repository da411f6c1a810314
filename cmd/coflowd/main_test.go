package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestShutdownLogFollowsClose runs the real binary, stops it with
// SIGTERM and reads its log: "final state written" may appear only
// when every fabric wrote its snapshot, and a failed write leaves the
// close error as the only word on the matter. The unwritable target
// sits under a regular file, which no user (root included) can create
// a file in.
func TestShutdownLogFollowsClose(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "coflowd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, shards, snapshot string
		written                bool
	}{
		{"one fabric, writable", "1", filepath.Join(dir, "one.json"), true},
		{"three fabrics, writable", "3", filepath.Join(dir, "three.json"), true},
		{"one fabric, unwritable", "1", filepath.Join(blocker, "one.json"), false},
		{"three fabrics, unwritable", "3", filepath.Join(blocker, "three.json"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-ports", "4",
				"-tick", "1ms", "-shards", tc.shards, "-snapshot", tc.snapshot)
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var logged strings.Builder
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				line := sc.Text()
				logged.WriteString(line + "\n")
				if strings.Contains(line, "serving on") {
					if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := cmd.Wait(); err != nil {
				t.Fatalf("coflowd exited with %v\n%s", err, logged.String())
			}
			out := logged.String()
			claimed := strings.Contains(out, "final state written")
			failed := strings.Contains(out, "coflowd: close:")
			if claimed != tc.written || failed == tc.written {
				t.Fatalf("snapshot written=%v, but log claims written=%v and reports a close error=%v\n%s",
					tc.written, claimed, failed, out)
			}
		})
	}
}
