// Package ctxflow enforces the context-propagation discipline the serving
// and (future) distributed layers depend on: cancellation must flow from the
// caller through every execution path, so library code never mints its own
// root context. context.Background()/TODO() are reserved for package main,
// tests, and functions explicitly annotated as roots with //roxvet:ctxroot —
// a lifecycle root such as a server's drain context. A function that already
// receives a ctx must thread it, and exported APIs taking a ctx take it
// first. See the "Invariants and static enforcement" section of DESIGN.md.
package ctxflow

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags fresh context roots in library code and ctx-parameter
// style violations.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "ctxflow reports context.Background()/context.TODO() outside package main, " +
		"_test.go files and //roxvet:ctxroot-annotated functions; calls that mint a " +
		"fresh root inside a function that already has a ctx parameter; and exported " +
		"functions whose context.Context parameter is not first.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		isTest := analysis.IsTestFile(pass.Fset, f.Pos())
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxFirst(pass, fd)
			root := isMain || isTest || analysis.FuncAnnotated(fd, "ctxroot")
			visit(pass, fd.Body, hasCtxParam(pass.TypesInfo, fd.Type), root)
		}
	}
	return nil
}

// visit walks a function body flagging fresh context roots. hasCtx tracks
// whether the nearest enclosing function (declaration or literal) receives a
// context.Context; root is inherited by nested literals — a closure inside an
// annotated root is part of that root.
func visit(pass *analysis.Pass, n ast.Node, hasCtx, root bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			visit(pass, n.Body, hasCtx || hasCtxParam(pass.TypesInfo, n.Type), root)
			return false
		case *ast.CallExpr:
			name, ok := contextRootCall(pass.TypesInfo, n)
			if !ok {
				return true
			}
			switch {
			case hasCtx:
				pass.Reportf(n.Pos(),
					"context.%s() inside a function that already has a ctx parameter: propagate the caller's ctx instead of minting a fresh root", name)
			case !root:
				pass.Reportf(n.Pos(),
					"context.%s() in library code severs cancellation: accept a ctx from the caller, or annotate a deliberate root with //roxvet:ctxroot <reason>", name)
			}
		}
		return true
	})
}

// contextRootCall reports whether the call is context.Background or
// context.TODO, resolved through the type checker so import renames cannot
// hide it.
func contextRootCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		return name, true
	}
	return "", false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return analysis.IsNamedType(t, "context", "Context")
}

// hasCtxParam reports whether the function type declares a context.Context
// parameter.
func hasCtxParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isContextType(info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// checkCtxFirst reports an exported function whose context.Context parameter
// is not the first parameter (after the receiver) — the position every
// caller and the rest of the codebase expect.
func checkCtxFirst(pass *analysis.Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || fd.Type.Params == nil {
		return
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		isCtx := isContextType(pass.TypesInfo.TypeOf(field.Type))
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isCtx && idx > 0 {
			pass.Reportf(field.Pos(),
				"context.Context must be the first parameter of exported %s", fd.Name.Name)
			return
		}
		idx += n
	}
}
