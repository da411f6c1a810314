package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden file instead of comparing:
//
//	go test ./cmd/experiments/ -run TestAllGolden -update
//
// Read the diff before committing: a moved number is either a
// deliberate algorithm change or a regression.
var update = flag.Bool("update", false, "rewrite testdata/all.golden with the current output of experiments all")

// TestAllGolden pins the reproduction: the output of `experiments all`
// at its default flags (Table 1, Figures 2a/2b, the §4.2 bound and the
// extensions table) must equal the committed golden byte for byte.
func TestAllGolden(t *testing.T) {
	cfg, _, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeAll(&got, cfg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/experiments/ -run TestAllGolden -update)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("experiments all drifted from %s at line %d (run -update if intended):\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

func TestParseFilters(t *testing.T) {
	got, err := parseFilters("50, 40,30")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{50, 40, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseFilters = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "a,b", "-3", ","} {
		if _, err := parseFilters(bad); err == nil {
			t.Errorf("parseFilters(%q) accepted", bad)
		}
	}
}

func TestScalingSizes(t *testing.T) {
	sizes := scalingSizes(64)
	if len(sizes) == 0 || sizes[len(sizes)-1] != 64 {
		t.Fatalf("scalingSizes(64) = %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("sizes not increasing: %v", sizes)
		}
	}
	if got := scalingSizes(8); len(got) != 1 || got[0] != 8 {
		t.Fatalf("scalingSizes(8) = %v", got)
	}
}
