package coflowmodel

import (
	"errors"
	"strings"
	"testing"
)

func TestParseRegistrationsSingleObject(t *testing.T) {
	rs, err := ParseRegistrations(strings.NewReader(
		`{"weight": 2, "flows": [{"src": 0, "dst": 1, "size": 4}]}`), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Bulk {
		t.Fatal("object body reported as bulk")
	}
	if len(rs.Items) != 1 || rs.Errs[0] != nil || rs.Items[0].Weight != 2 {
		t.Fatalf("parsed %+v errs %v", rs.Items, rs.Errs)
	}

	// A single-object validation failure is index-addressed at 0, not
	// a body-level error.
	rs, err = ParseRegistrations(strings.NewReader(
		`{"flows": [{"src": 9, "dst": 0, "size": 1}]}`), 2)
	if err != nil {
		t.Fatalf("validation failure escalated to body error: %v", err)
	}
	if rs.Errs[0] == nil {
		t.Fatalf("out-of-range flow not flagged: errs %v", rs.Errs)
	}

	// Only whitespace may follow the object: a second value would be
	// dropped without a word.
	const one = `{"flows": [{"src": 0, "dst": 1, "size": 4}]}`
	if _, err := ParseRegistrations(strings.NewReader(one+" \n\t"), 2); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{" " + one, " garbage", "]", " 7"} {
		if rs, err := ParseRegistrations(strings.NewReader(one+tail), 2); !errors.Is(err, ErrMalformed) {
			t.Errorf("object followed by %q: %+v, %v, want ErrMalformed", tail, rs, err)
		}
	}
}

func TestParseRegistrationsArray(t *testing.T) {
	body := `[
		{"weight": 1, "flows": [{"src": 0, "dst": 1, "size": 2}]},
		{"flows": [{"src": 9, "dst": 0, "size": 1}]},
		{"typo": true},
		{"weight": 3, "flows": []},
		7,
		null
	]`
	rs, err := ParseRegistrations(strings.NewReader(body), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Bulk {
		t.Fatal("array body not reported as bulk")
	}
	if len(rs.Items) != 6 || len(rs.Errs) != 6 {
		t.Fatalf("decoded %d items / %d errs, want 6/6", len(rs.Items), len(rs.Errs))
	}
	if rs.Errs[0] != nil || rs.Errs[3] != nil {
		t.Errorf("valid items flagged: %v / %v", rs.Errs[0], rs.Errs[3])
	}
	if rs.Errs[1] == nil {
		t.Error("out-of-range item 1 not flagged")
	}
	if rs.Errs[2] == nil || !errors.Is(rs.Errs[2], ErrMalformed) {
		t.Errorf("unknown-field item 2: %v, want ErrMalformed", rs.Errs[2])
	}
	if rs.Errs[4] == nil || !errors.Is(rs.Errs[4], ErrMalformed) {
		t.Errorf("non-object item 4: %v, want ErrMalformed", rs.Errs[4])
	}
	if rs.Items[5] != nil || !errors.Is(rs.Errs[5], ErrMalformed) {
		t.Errorf("null item 5: %+v, %v, want ErrMalformed", rs.Items[5], rs.Errs[5])
	}

	// Only whitespace may follow the closing bracket.
	if _, err := ParseRegistrations(strings.NewReader(body+"\n "), 2); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{" garbage", " []", ` {"flows": []}`, "]"} {
		if rs, err := ParseRegistrations(strings.NewReader(body+tail), 2); !errors.Is(err, ErrMalformed) {
			t.Errorf("array followed by %q: %+v, %v, want ErrMalformed", tail, rs, err)
		}
	}
}

func TestParseRegistrationsBodyLevelErrors(t *testing.T) {
	for _, bad := range []string{
		``,                   // empty body
		`not json`,           // not JSON at all
		`42`,                 // neither object nor array
		`"str"`,              // neither object nor array
		`[{"flows": []}`,     // unterminated array
		`{"flows": [`,        // unterminated object
		`[{"flows": []},, ]`, // broken array structure
	} {
		rs, err := ParseRegistrations(strings.NewReader(bad), 2)
		if err == nil {
			t.Errorf("ParseRegistrations accepted %q: %+v", bad, rs)
			continue
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseRegistrations(%q) error %v does not wrap ErrMalformed", bad, err)
		}
	}
}

func TestParseRegistrationsEmptyArray(t *testing.T) {
	rs, err := ParseRegistrations(strings.NewReader(`[]`), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Bulk || len(rs.Items) != 0 || len(rs.Errs) != 0 {
		t.Fatalf("empty array parsed as %+v", rs)
	}
}

func TestRegistrationFabricField(t *testing.T) {
	rs, err := ParseRegistrations(strings.NewReader(
		`{"fabric": 3, "flows": [{"src": 0, "dst": 1, "size": 1}]}`), 2)
	if err != nil || rs.Errs[0] != nil {
		t.Fatalf("fabric-pinned registration rejected: %v / %v", err, rs.Errs)
	}
	if rs.Items[0].Fabric == nil || *rs.Items[0].Fabric != 3 {
		t.Fatalf("fabric not decoded: %+v", rs.Items[0])
	}
	// Absent fabric stays nil (hash-routed), and a negative one fails
	// validation.
	rs, err = ParseRegistrations(strings.NewReader(`{"flows": []}`), 2)
	if err != nil || rs.Items[0].Fabric != nil {
		t.Fatalf("absent fabric decoded as %+v (err %v)", rs.Items[0].Fabric, err)
	}
	neg := -1
	if err := (&Registration{Fabric: &neg}).Validate(2); err == nil {
		t.Fatal("negative fabric accepted")
	}
}
