package main

import (
	"encoding/json"
	"go/token"
	"testing"

	"coflow/internal/lint"
)

func TestSelectAnalyzersAll(t *testing.T) {
	got, err := selectAnalyzers("")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lint.All) {
		t.Fatalf("empty filter selected %d analyzers, want all %d", len(got), len(lint.All))
	}
}

func TestSelectAnalyzersFilter(t *testing.T) {
	got, err := selectAnalyzers("pooled, publish")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "pooled" || got[1].Name != "publish" {
		names := make([]string, len(got))
		for i, a := range got {
			names[i] = a.Name
		}
		t.Fatalf("filter selected %v, want [pooled publish]", names)
	}
}

func TestSelectAnalyzersUnknown(t *testing.T) {
	if _, err := selectAnalyzers("pooled,nosuch"); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
	if _, err := selectAnalyzers(" , "); err == nil {
		t.Fatal("empty selection accepted")
	}
}

func TestRenderJSON(t *testing.T) {
	diags := []lint.Diagnostic{
		{
			Pos:      token.Position{Filename: "/mod/internal/x/x.go", Line: 3, Column: 7},
			Analyzer: "pooled",
			Message:  "loan escaped",
		},
		{
			Pos:      token.Position{Filename: "/elsewhere/y.go", Line: 1, Column: 1},
			Analyzer: "publish",
			Message:  "write after publication",
		},
	}
	out, err := renderJSON(diags, "/mod")
	if err != nil {
		t.Fatal(err)
	}
	var got []finding
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d findings, want 2", len(got))
	}
	if got[0].File != "internal/x/x.go" || got[0].Line != 3 || got[0].Col != 7 ||
		got[0].Analyzer != "pooled" || got[0].Severity != "error" || got[0].Message != "loan escaped" {
		t.Fatalf("first finding = %+v", got[0])
	}
	if got[1].File != "/elsewhere/y.go" {
		t.Fatalf("file outside the module root was relativized: %q", got[1].File)
	}
	if got[1].Severity != "error" {
		t.Fatalf("severity = %q, want error", got[1].Severity)
	}
}

func TestRenderJSONEmpty(t *testing.T) {
	out, err := renderJSON(nil, "/mod")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "[]" {
		t.Fatalf("empty run encodes as %q, want []", out)
	}
}

func TestRenderText(t *testing.T) {
	d := lint.Diagnostic{
		Pos:      token.Position{Filename: "/mod/a.go", Line: 2, Column: 5},
		Analyzer: "publish",
		Message:  "write after publication",
	}
	want := "a.go:2:5: [publish] write after publication"
	if got := renderText(d, "/mod"); got != want {
		t.Fatalf("renderText = %q, want %q", got, want)
	}
}
