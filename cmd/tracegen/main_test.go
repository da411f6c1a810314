package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFormatLeavesOutputAlone runs the real binary with a mistyped
// -format over an existing -out file: it must exit 1 with the file's
// bytes untouched (it used to create, and so truncate, the file before
// looking at -format).
func TestBadFormatLeavesOutputAlone(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "tracegen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	path := filepath.Join(dir, "trace.json")
	const kept = `{"ports": 2, "coflows": []}`
	if err := os.WriteFile(path, []byte(kept), 0o600); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-out", path, "-format", "bogus", "-ports", "4", "-coflows", "2").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(string(out), "unknown -format") {
		t.Fatalf("tracegen -format bogus: err %v, output %q; want exit 1 naming the flag", err, out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != kept {
		t.Fatalf("existing -out file changed: %q, want %q", got, kept)
	}
}
