package coflowmodel

import (
	"strings"
	"testing"
)

func TestRegistrationValidate(t *testing.T) {
	good := Registration{Weight: 2, Flows: []Flow{{Src: 0, Dst: 1, Size: 3}}}
	if err := good.Validate(2); err != nil {
		t.Fatal(err)
	}
	bad := []Registration{
		{Weight: -1},
		{Flows: []Flow{{Src: 2, Dst: 0, Size: 1}}},
		{Flows: []Flow{{Src: 0, Dst: -1, Size: 1}}},
		{Flows: []Flow{{Src: 0, Dst: 0, Size: -5}}},
	}
	for i, reg := range bad {
		if err := reg.Validate(2); err == nil {
			t.Errorf("bad registration %d accepted", i)
		}
	}
}

func TestRegistrationCoflowDefaultsWeight(t *testing.T) {
	reg := Registration{Flows: []Flow{{Src: 0, Dst: 0, Size: 1}}}
	c := reg.Coflow(7, 42)
	if c.ID != 7 || c.Release != 42 || c.Weight != 1 {
		t.Fatalf("Coflow = %+v, want ID 7, Release 42, Weight 1", c)
	}
	// The materialized flows are a copy.
	c.Flows[0].Size = 99
	if reg.Flows[0].Size != 1 {
		t.Fatal("Coflow shares the registration's flow slice")
	}
	reg.Weight = 3
	if w := reg.Coflow(1, 0).Weight; w != 3 {
		t.Fatalf("explicit weight = %g, want 3", w)
	}
}

func TestParseRegistration(t *testing.T) {
	// One object through the parser the HTTP plane uses: a decode
	// failure is the body's error, a validation failure is item 0's.
	parse := func(body string) (*Registration, error) {
		rs, err := ParseRegistrations(strings.NewReader(body), 2)
		if err != nil {
			return nil, err
		}
		return rs.Items[0], rs.Errs[0]
	}
	reg, err := parse(`{"weight": 2, "flows": [{"src": 0, "dst": 1, "size": 4}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Weight != 2 || len(reg.Flows) != 1 || reg.Flows[0].Size != 4 {
		t.Fatalf("parsed %+v", reg)
	}
	for _, bad := range []string{
		`{"flows": [{"src": 9, "dst": 0, "size": 1}]}`, // out of range
		`{"weights": 2}`,    // unknown field
		`{"flows": "nope"}`, // wrong type
		`not json`,
		`{"flows": [{"src": 0, "dst": 1, "size": 4}]} {"x": 1}`, // a second object
	} {
		if _, err := parse(bad); err == nil {
			t.Errorf("ParseRegistrations accepted %q", bad)
		}
	}
}
