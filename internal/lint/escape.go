package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"io"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file is the compiler's share of the //coflow:allocfree
// contract: every value the escape analysis heap-allocates — literal,
// make, closure, boxed argument, built string — on a hot branch or a
// cold one. (The allocfree analyzer keeps only what the compiler does
// not report: amortized growth and un-annotated callees.)
// cmd/escapecheck runs `go build -gcflags=<module>/...=-m=1`, keeps
// the "escapes to heap" diagnostics that land inside annotated
// functions, and compares them against a committed baseline — the gate
// is compare-only, so pre-existing escapes (cold panic and error
// paths, one-time pool growth) are grandfathered there, once, and only
// a NEW escape in an annotated function fails the build.
//
// Baseline entries are keyed (file, function, message), NOT line
// numbers, so edits elsewhere in a file do not churn the baseline.

// LineRange is the span of one annotated function in a file.
type LineRange struct {
	File  string // module-root-relative path, forward slashes
	Func  string // function or method name (methods as "(T).Name")
	Start int    // first line of the declaration (doc comment excluded)
	End   int    // last line of the body
}

// AllocFreeRanges collects the spans of every //coflow:allocfree
// function in the packages, sorted by (File, Start). moduleRoot
// makes the file paths relative.
func AllocFreeRanges(pkgs []*Package, moduleRoot string) []LineRange {
	var out []LineRange
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !FuncAnnotations(fd)["allocfree"] {
					continue
				}
				start := pkg.Fset.Position(fd.Type.Pos())
				end := pkg.Fset.Position(fd.Body.End())
				file := start.Filename
				if rel, err := filepath.Rel(moduleRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = filepath.ToSlash(rel)
				}
				out = append(out, LineRange{
					File:  file,
					Func:  funcDisplayName(fd),
					Start: start.Line,
					End:   end.Line,
				})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].File != out[b].File {
			return out[a].File < out[b].File
		}
		return out[a].Start < out[b].Start
	})
	return out
}

// funcDisplayName renders fd as "Name" or "(T).Name" / "(*T).Name".
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	var b strings.Builder
	b.WriteByte('(')
	writeRecvType(&b, recv)
	b.WriteString(").")
	b.WriteString(fd.Name.Name)
	return b.String()
}

func writeRecvType(b *strings.Builder, e ast.Expr) {
	switch t := e.(type) {
	case *ast.StarExpr:
		b.WriteByte('*')
		writeRecvType(b, t.X)
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.IndexExpr: // generic receiver T[P]
		writeRecvType(b, t.X)
	case *ast.IndexListExpr:
		writeRecvType(b, t.X)
	default:
		b.WriteString("?")
	}
}

// EscapeDiag is one compiler escape diagnostic.
type EscapeDiag struct {
	File string // as printed by the compiler (module-root-relative when run there)
	Line int
	Msg  string // e.g. "&Trace{...} escapes to heap"
}

// escapeRe matches the -m=1 diagnostics that mean a heap allocation:
// "<x> escapes to heap" and "moved to heap: <x>".
var escapeRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*escapes to heap.*|moved to heap.*)$`)

// ParseEscapes scans `go build -gcflags=-m=1` output (one diagnostic
// per line, "# pkg" headers and unrelated inline/bounds lines
// ignored) for heap-escape diagnostics.
func ParseEscapes(r io.Reader) ([]EscapeDiag, error) {
	var out []EscapeDiag
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		m := escapeRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		line, err := strconv.Atoi(m[2])
		if err != nil {
			return nil, fmt.Errorf("lint: bad escape line number in %q", sc.Text())
		}
		out = append(out, EscapeDiag{File: filepath.ToSlash(m[1]), Line: line, Msg: m[4]})
	}
	return out, sc.Err()
}

// EscapeKeys keeps the diagnostics landing inside an allocfree range
// and normalizes each to its baseline key "file<TAB>func<TAB>msg";
// keys come back sorted, with the line of the first diagnostic
// carrying each. Line numbers are deliberately not part of the key, so
// unrelated edits do not churn the baseline; the price is that a
// second site with the same message in the same function collapses
// into the first.
func EscapeKeys(diags []EscapeDiag, ranges []LineRange) (keys []string, line map[string]int) {
	line = map[string]int{}
	for _, d := range diags {
		for _, r := range ranges {
			if d.File == r.File && d.Line >= r.Start && d.Line <= r.End {
				key := d.File + "\t" + r.Func + "\t" + d.Msg
				if _, seen := line[key]; !seen {
					line[key] = d.Line
					keys = append(keys, key)
				}
				break
			}
		}
	}
	sort.Strings(keys)
	return keys, line
}

// DiffEscapes returns the keys present in current but not in
// baseline (the regressions) and the keys in baseline no longer
// present (fixed escapes, reported so the baseline can be re-tightened).
func DiffEscapes(current, baseline []string) (added, removed []string) {
	base := map[string]bool{}
	for _, k := range baseline {
		base[k] = true
	}
	cur := map[string]bool{}
	for _, k := range current {
		cur[k] = true
		if !base[k] {
			added = append(added, k)
		}
	}
	for _, k := range baseline {
		if !cur[k] {
			removed = append(removed, k)
		}
	}
	return added, removed
}

// ReadBaseline parses a baseline file: one key per line, "#" comments
// and blank lines ignored.
func ReadBaseline(r io.Reader) ([]string, error) {
	var out []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, sc.Text())
	}
	return out, sc.Err()
}
