package lint

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseEscapes(t *testing.T) {
	const out = `# coflow/internal/matrix
internal/matrix/sparse.go:10:6: can inline (*Sparse).Len
internal/matrix/sparse.go:42:17: d escapes to heap
internal/matrix/sparse.go:44:9: moved to heap: e
internal/matrix/sparse.go:50:20: ... argument does not escape
internal/matrix/other.go:7:2: []int{...} does not escape
# coflow/internal/online
internal/online/step.go:12:3: leaking param: s
`
	diags, err := ParseEscapes(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ParseEscapes: %v", err)
	}
	want := []EscapeDiag{
		{File: "internal/matrix/sparse.go", Line: 42, Msg: "d escapes to heap"},
		{File: "internal/matrix/sparse.go", Line: 44, Msg: "moved to heap: e"},
	}
	if !reflect.DeepEqual(diags, want) {
		t.Errorf("ParseEscapes = %v, want %v", diags, want)
	}
}

func TestEscapeKeysFiltersAndDedups(t *testing.T) {
	ranges := []LineRange{
		{File: "a.go", Func: "(*T).M", Start: 10, End: 20},
		{File: "a.go", Func: "F", Start: 30, End: 40},
	}
	diags := []EscapeDiag{
		{File: "a.go", Line: 15, Msg: "x escapes to heap"},
		{File: "a.go", Line: 16, Msg: "x escapes to heap"}, // same key: collapses
		{File: "a.go", Line: 35, Msg: "y escapes to heap"},
		{File: "a.go", Line: 25, Msg: "z escapes to heap"}, // between ranges: dropped
		{File: "b.go", Line: 15, Msg: "w escapes to heap"}, // other file: dropped
	}
	got, line := EscapeKeys(diags, ranges)
	want := []string{
		"a.go\t(*T).M\tx escapes to heap",
		"a.go\tF\ty escapes to heap",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EscapeKeys = %v, want %v", got, want)
	}
	if line[want[0]] != 15 || line[want[1]] != 35 {
		t.Errorf("EscapeKeys lines = %v, want the first diagnostic of each key (15, 35)", line)
	}
}

func TestDiffEscapes(t *testing.T) {
	current := []string{"a", "b", "d"}
	baseline := []string{"a", "c"}
	added, removed := DiffEscapes(current, baseline)
	if !reflect.DeepEqual(added, []string{"b", "d"}) {
		t.Errorf("added = %v, want [b d]", added)
	}
	if !reflect.DeepEqual(removed, []string{"c"}) {
		t.Errorf("removed = %v, want [c]", removed)
	}
}

func TestReadBaseline(t *testing.T) {
	const in = `# header comment
# another

a.go	F	x escapes to heap
b.go	G	moved to heap: y
`
	got, err := ReadBaseline(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadBaseline: %v", err)
	}
	want := []string{
		"a.go\tF\tx escapes to heap",
		"b.go\tG\tmoved to heap: y",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReadBaseline = %v, want %v", got, want)
	}
}

// TestAllocFreeRanges loads the allocfree fixture and checks the
// annotated-function spans come back with display names and
// root-relative paths.
func TestAllocFreeRanges(t *testing.T) {
	dir := filepath.Join("testdata", "src", "allocfree")
	l := newLoader()
	pkg, err := l.LoadDir(dir, "allocfree")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	// The loader parsed with dir-relative paths, so the same relative
	// dir works as the root for path trimming.
	ranges := AllocFreeRanges([]*Package{pkg}, dir)
	byFunc := map[string]LineRange{}
	for _, r := range ranges {
		byFunc[r.Func] = r
	}
	plain, ok := byFunc["appendsFresh"]
	if !ok {
		t.Fatalf("appendsFresh missing from ranges: %v", ranges)
	}
	if plain.File != "allocfree.go" {
		t.Errorf("File = %q, want root-relative %q", plain.File, "allocfree.go")
	}
	if plain.Start <= 0 || plain.End <= plain.Start {
		t.Errorf("bad span for appendsFresh: %+v", plain)
	}
	if _, ok := byFunc["(*scratch).appendsOwned"]; !ok {
		t.Errorf("method display name (*scratch).appendsOwned missing: %v", ranges)
	}
	if _, ok := byFunc["unannotated"]; ok {
		t.Errorf("unannotated function must not appear in allocfree ranges")
	}
}
