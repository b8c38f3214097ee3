// Package analysis is a dependency-free re-implementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's needs: it
// defines the Analyzer/Pass/Diagnostic vocabulary, runs analyzers over
// type-checked packages, and applies the `//roxvet:ignore <reason>`
// suppression directive uniformly across both entry points (`go vet
// -vettool=roxvet` and the analysistest golden harness).
//
// The engine's load-bearing invariants — immutable published catalogs,
// context propagation, cursor lifecycles, graph/tail isolation, deterministic
// iteration and exact float folding — are enforced mechanically by the
// analyzers under internal/analysis/...; see the "Invariants and static
// enforcement" section of DESIGN.md for the invariant-to-analyzer map and the
// escape-hatch policy.
//
// The x/tools module is deliberately not imported: this repository builds
// with the standard library only, so the framework (the vet tool protocol in
// unitchecker.go, the golden harness in analysistest) is implemented from
// go/ast, go/types and the go command itself.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check: a name, a documentation string, and
// the function that inspects a package and reports diagnostics.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects one package through pass and reports findings via
	// pass.Report/Reportf. A non-nil error aborts the whole run (reserved
	// for internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Report records one finding.
func (p *Pass) Report(d Diagnostic) {
	if d.Analyzer == "" {
		d.Analyzer = p.Analyzer.Name
	}
	p.report(d)
}

// Reportf records one finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position inside the analyzed package, the
// analyzer that produced it, and a human-readable message.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Finding is a Diagnostic with its position resolved against the file set —
// the stable, printable form used by every front end.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line:col form go vet
// users expect.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Position, f.Message, f.Analyzer)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map analyzers rely on populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// RunPackage applies every analyzer to pkg, filters the findings through the
// `//roxvet:ignore <reason>` directives of the package's files, appends a
// diagnostic for each malformed (reason-less) directive, and returns the
// surviving findings sorted by position. This is the single choke point both
// front ends (vettool, analysistest) share, so directive semantics cannot
// drift between them.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	ig := scanIgnores(pkg.Fset, pkg.Files)
	var out []Finding
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if ig.suppressed(pos) {
			continue
		}
		out = append(out, Finding{Position: pos, Analyzer: d.Analyzer, Message: d.Message})
	}
	out = append(out, ig.malformed...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// PathHasSuffix reports whether a package import path is the named path or
// ends with it as a whole path segment ("internal/plan" matches both
// "repro/internal/plan" and a test fixture's "internal/plan", but never
// "notinternal/plan-b").
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// Deref peels pointers off a type.
func Deref(t types.Type) types.Type {
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// NamedOf returns the named type behind t (after peeling pointers and
// aliases), or nil.
func NamedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	n, _ := Deref(types.Unalias(t)).(*types.Named)
	return n
}

// IsNamedType reports whether t (after pointers/aliases) is the named type
// `name` declared in a package whose import path matches pkgSuffix per
// PathHasSuffix.
func IsNamedType(t types.Type, pkgSuffix, name string) bool {
	n := NamedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && PathHasSuffix(n.Obj().Pkg().Path(), pkgSuffix)
}

// FuncAnnotated reports whether the function declaration carries the
// `//roxvet:<marker>` directive in its doc comment (directive comments are
// invisible in rendered godoc, like //go:noinline).
func FuncAnnotated(fn *ast.FuncDecl, marker string) bool {
	if fn == nil || fn.Doc == nil {
		return false
	}
	want := "roxvet:" + marker
	for _, c := range fn.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		if text == want || strings.HasPrefix(text, want+" ") {
			return true
		}
	}
	return false
}

// IsTestFile reports whether pos lies in a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
