// Package lint is the project's static-analysis framework: a
// stdlib-only (go/parser, go/ast, go/types, go/importer — no x/tools)
// multi-analyzer harness that checks, at "make check" time, the
// contracts of this module that no compiler pass, race run or
// behaviour test reliably sees.
//
// Six analyzers ship with it (see their files), and each rule of each
// is kept by a planted regression only it catches: the allocPlants and
// concurrencyPlants matrices in lint_test.go write realistic
// regressions into copies of real packages and run every gate on
// them, and TestPlantedViolations fails for a rule that another gate
// duplicates (DESIGN.md "Static analysis" prints the tables). Three
// analyzers look at one statement at a time, three follow control flow
// over the CFG + bit-vector dataflow engine in cfg.go / flow.go:
//
//	allocfree  in //coflow:allocfree functions: append outside
//	           caller-owned scratch, map writes, un-annotated module
//	           callees
//	guardedby  a field commented "// guarded by <mu>" is touched only
//	           under <mu>.Lock/RLock, or — when <mu> names no sibling
//	           mutex but a serialization domain — only in
//	           //coflow:singlewriter functions
//	errflow    no silently discarded error returns; "_ =" needs an
//	           adjacent justification comment
//	obsguard   every Histogram.Start span reaches End on all return
//	           paths (flow)
//	pooled     a //coflow:pooled result is not used after the next
//	           pooled call on the same receiver (flow)
//	publish    no writes to a value, or a local alias of it, after it
//	           was handed to atomic.Pointer.Store (flow)
//
// The //coflow:<word> annotations on a function's doc comment are
// allocfree, singlewriter and pooled; any other word is a diagnostic,
// so a typo cannot silently leave a function unguarded. Every
// diagnostic fails the gate; there is no advisory severity.
//
// Suppression: a diagnostic is silenced by
//
//	//lint:ignore <analyzer> <reason>
//
// either trailing the offending line or on the line directly above
// it. The reason is mandatory — a reasonless ignore is itself a
// diagnostic — and so is a directive that silences nothing while its
// analyzer runs, so a suppression cannot outlive the finding it was
// written for and hide the next one on that line.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// All is the shipped analyzer set, in the order cmd/coflowvet runs
// them.
var All = []*Analyzer{AllocFree, ObsGuard, GuardedBy, ErrFlow, Pooled, Publish}

// Diagnostic is one analyzer finding at a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Analyzer is one named per-package check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries everything one analyzer needs for one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Index    *Index

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Defs[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Uses[id]
}

// Index is the module-wide annotation index shared by every pass:
// which function objects carry which //coflow: annotations. It spans
// packages — the loader shares type objects across the load, so a
// call in internal/online to a function annotated in internal/matrix
// resolves to the same *types.Func the index recorded.
type Index struct {
	funcs map[types.Object]map[string]bool
}

// BuildIndex scans every package's function declarations for
// //coflow:<word> annotations.
func BuildIndex(pkgs []*Package) *Index {
	idx := &Index{funcs: map[types.Object]map[string]bool{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				anns := FuncAnnotations(fd)
				if len(anns) == 0 {
					continue
				}
				if obj := pkg.Info.Defs[fd.Name]; obj != nil {
					idx.funcs[obj] = anns
				}
			}
		}
	}
	return idx
}

// Annotated reports whether the function object carries the
// annotation (e.g. "allocfree").
func (idx *Index) Annotated(obj types.Object, ann string) bool {
	if idx == nil || obj == nil {
		return false
	}
	return idx.funcs[obj][ann]
}

// annotations is the //coflow:<word> vocabulary; Run reports any other
// word on a function as a diagnostic.
var annotations = map[string]bool{"allocfree": true, "singlewriter": true, "pooled": true}

// annotationWord returns the <word> of a //coflow:<word> comment
// line (the word ends at whitespace), or "" when c is not one.
func annotationWord(c *ast.Comment) string {
	rest, ok := strings.CutPrefix(c.Text, "//coflow:")
	if f := strings.Fields(rest); ok && len(f) > 0 {
		return f[0]
	}
	return ""
}

// FuncAnnotations extracts the //coflow:<word> annotations from a
// function's doc comment.
func FuncAnnotations(fd *ast.FuncDecl) map[string]bool {
	if fd.Doc == nil {
		return nil
	}
	var anns map[string]bool
	for _, c := range fd.Doc.List {
		word := annotationWord(c)
		if word == "" {
			continue
		}
		if anns == nil {
			anns = map[string]bool{}
		}
		anns[word] = true
	}
	return anns
}

// ignoreRe matches the suppression directive: analyzer name, then the
// mandatory free-text reason.
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)[ \t]*(.*)$`)

// ignore is one parsed //lint:ignore directive.
type ignore struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool // silenced at least one diagnostic of this Run
}

// collectIgnores gathers the suppression directives of a package,
// keyed by filename and line. A directive suppresses matching
// diagnostics on its own line and on the line directly below it.
func collectIgnores(fset *token.FileSet, pkg *Package) map[string]map[int][]*ignore {
	out := map[string]map[int][]*ignore{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*ignore{}
					out[pos.Filename] = byLine
				}
				ig := &ignore{analyzer: m[1], reason: strings.TrimSpace(m[2]), pos: pos}
				byLine[pos.Line] = append(byLine[pos.Line], ig)
			}
		}
	}
	return out
}

// Run executes the analyzers over the packages, applies the
// //lint:ignore suppressions, and returns the surviving diagnostics
// sorted by position. The framework's own findings carry the analyzer
// name "lint": a //coflow:<word> outside the annotation vocabulary, a
// suppression without a reason, and a suppression of one of the
// analyzers being run that silenced nothing.
func Run(pkgs []*Package, analyzers []*Analyzer, index *Index) []Diagnostic {
	var raw []Diagnostic
	running := map[string]bool{}
	for _, a := range analyzers {
		running[a.Name] = true
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Pkg:      pkg,
				Index:    index,
				diags:    &raw,
			})
		}
	}
	var out []Diagnostic
	own := func(pos token.Position, msg string) {
		out = append(out, Diagnostic{Pos: pos, Analyzer: "lint", Message: msg})
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if word := annotationWord(c); word != "" && !annotations[word] {
						own(pkg.Fset.Position(c.Pos()), "unknown annotation //coflow:"+word)
					}
				}
			}
		}
		ignores := collectIgnores(pkg.Fset, pkg)
		for _, d := range raw {
			if !inPackage(pkg, d.Pos.Filename) {
				continue
			}
			if suppressed(ignores, d) {
				continue
			}
			out = append(out, d)
		}
		for _, byLine := range ignores {
			for _, igs := range byLine {
				for _, ig := range igs {
					switch {
					case ig.reason == "":
						own(ig.pos, "//lint:ignore "+ig.analyzer+" needs a reason")
					case !ig.used && running[ig.analyzer]:
						own(ig.pos, "//lint:ignore "+ig.analyzer+" suppresses nothing")
					}
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		da, db := out[a], out[b]
		if da.Pos.Filename != db.Pos.Filename {
			return da.Pos.Filename < db.Pos.Filename
		}
		if da.Pos.Line != db.Pos.Line {
			return da.Pos.Line < db.Pos.Line
		}
		if da.Pos.Column != db.Pos.Column {
			return da.Pos.Column < db.Pos.Column
		}
		return da.Analyzer < db.Analyzer
	})
	return out
}

// suppressed reports whether an ignore directive covers d — same
// analyzer, on d's line or the line above — and marks every covering
// directive used.
func suppressed(ignores map[string]map[int][]*ignore, d Diagnostic) bool {
	hit := false
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, ig := range ignores[d.Pos.Filename][line] {
			if ig.reason != "" && ig.analyzer == d.Analyzer {
				ig.used = true
				hit = true
			}
		}
	}
	return hit
}

// Suppression is one //lint:ignore directive, surfaced for the
// `coflowvet -ignores` audit listing so grandfathered suppressions
// stay visible.
type Suppression struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

// Suppressions returns every //lint:ignore directive in the packages,
// sorted by position.
func Suppressions(pkgs []*Package) []Suppression {
	var out []Suppression
	for _, pkg := range pkgs {
		for _, byLine := range collectIgnores(pkg.Fset, pkg) {
			for _, igs := range byLine {
				for _, ig := range igs {
					out = append(out, Suppression{Pos: ig.pos, Analyzer: ig.analyzer, Reason: ig.reason})
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Pos.Filename != out[b].Pos.Filename {
			return out[a].Pos.Filename < out[b].Pos.Filename
		}
		return out[a].Pos.Line < out[b].Pos.Line
	})
	return out
}

// inPackage reports whether filename belongs to pkg (used to
// re-associate a flat diagnostic list with per-package suppression
// tables).
func inPackage(pkg *Package, filename string) bool {
	for _, f := range pkg.Files {
		if pkg.Fset.Position(f.Pos()).Filename == filename {
			return true
		}
	}
	return false
}
