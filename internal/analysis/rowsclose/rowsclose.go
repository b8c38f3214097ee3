// Package rowsclose enforces the rox.Rows cursor lifecycle: every cursor
// obtained from Execute (or any other *rox.Rows-returning call) must be
// finished — Close, the self-closing All iterator or Collect drain, or an
// escape that hands ownership elsewhere — on every control-flow path, or
// shard streams and pool admission slots leak until the GC's cleanup
// fires. The check is a
// lostcancel-style pass over a per-function CFG (internal/analysis/cfg):
// from each acquisition it walks all paths to the function exit and reports
// the ones no finishing use dominates. Error-return paths from the same
// acquisition (`rows, err := ...; if err != nil { return err }`) are exempt —
// the cursor is nil there. See the "Invariants and static enforcement"
// section of DESIGN.md.
package rowsclose

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer flags *rox.Rows values that may reach the end of their function
// without Close/All or an ownership-transferring escape.
var Analyzer = &analysis.Analyzer{
	Name: "rowsclose",
	Doc: "rowsclose reports rox.Rows cursors that are not finished on every path: " +
		"each Execute result must reach Close, All or Collect (or escape by return, argument, " +
		"assignment or channel send) before the function exits; defer rows.Close() " +
		"right after the error check is the canonical form.",
	Run: run,
}

// finishers are the Rows methods that end the stream and release resources;
// every other method (Next, Item, Err, Stats) consumes without finishing.
var finishers = map[string]bool{"Close": true, "All": true, "Collect": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, body := range functionBodies(f) {
			checkBody(pass, body)
		}
	}
	return nil
}

// functionBodies returns every function body in the file: declarations and
// literals, each analyzed with its own CFG.
func functionBodies(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, n.Body)
			}
		case *ast.FuncLit:
			out = append(out, n.Body)
		}
		return true
	})
	return out
}

// def is one cursor acquisition: the statement, the cursor variable, and the
// error variable paired with it (nil when discarded or absent).
type def struct {
	stmt ast.Stmt
	call *ast.CallExpr
	v    types.Object
	err  types.Object
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var defs []*def
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != nil {
			return false // nested literals get their own pass
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			if d := rowsDef(pass.TypesInfo, st); d != nil {
				if d.v == nil {
					pass.Reportf(st.Pos(), "rox.Rows from %s assigned to the blank identifier: the cursor can never be Closed", callName(d.call))
					return true
				}
				defs = append(defs, d)
			}
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok && returnsRows(pass.TypesInfo, call) {
				pass.Reportf(st.Pos(), "rox.Rows result of %s discarded: the cursor is never Closed", callName(call))
			}
		}
		return true
	})
	if len(defs) == 0 {
		return
	}
	g := cfg.New(body)
	for _, d := range defs {
		site, ok := g.Site[d.stmt]
		if !ok {
			continue // unreachable or inside a construct the CFG elides
		}
		if leaks(pass.TypesInfo, g, site, d) {
			pass.Reportf(d.call.Pos(),
				"rows returned by %s may reach the end of the function without Close or All on some path; defer rows.Close() after the error check", callName(d.call))
		}
	}
}

// rowsDef recognizes `rows, err := ...` / `rows := ...` acquisitions whose
// single RHS call yields a *rox.Rows (possibly in a (rows, error) pair).
func rowsDef(info *types.Info, st *ast.AssignStmt) *def {
	if len(st.Rhs) != 1 {
		return nil
	}
	call, ok := st.Rhs[0].(*ast.CallExpr)
	if !ok || !returnsRows(info, call) {
		return nil
	}
	d := &def{stmt: st, call: call}
	if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
		d.v = info.ObjectOf(id)
	}
	if len(st.Lhs) > 1 {
		if id, ok := st.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
			d.err = info.ObjectOf(id)
		}
	}
	if d.v == nil && len(st.Lhs) > 0 {
		if _, ok := st.Lhs[0].(*ast.Ident); !ok {
			// Assigned into a field/slot: ownership escapes to that storage.
			return nil
		}
	}
	return d
}

// returnsRows reports whether the call's (first) result is *rox.Rows.
func returnsRows(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(0).Type()
	}
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	n := analysis.NamedOf(ptr.Elem())
	return n != nil && n.Obj().Name() == "Rows" && n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "rox"
}

func callName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fn.Sel.Name
	case *ast.Ident:
		return fn.Name
	}
	return "the call"
}

// leaks walks every CFG path from the acquisition site and reports whether
// any reaches the function exit with the cursor still live.
func leaks(info *types.Info, g *cfg.Graph, site cfg.Pos, d *def) bool {
	visited := make(map[*cfg.Block]bool)
	var walk func(b *cfg.Block, from int) bool
	walk = func(b *cfg.Block, from int) bool {
		for i := from; i < len(b.Nodes); i++ {
			if nodeFinishes(info, b.Nodes[i], d) {
				return false
			}
		}
		if b == g.Exit || len(b.Succs) == 0 {
			return true
		}
		for _, s := range b.Succs {
			if visited[s] {
				continue
			}
			visited[s] = true
			if walk(s, 0) {
				return true
			}
		}
		return false
	}
	return walk(site.Block, site.Index+1)
}

// nodeFinishes reports whether executing this node finishes the cursor's
// path: a finishing method call or an ownership escape of the cursor, or an
// error-path exit through the paired error variable.
func nodeFinishes(info *types.Info, n ast.Node, d *def) bool {
	finished := false
	ast.Inspect(n, func(n ast.Node) bool {
		if finished {
			return false
		}
		switch n := n.(type) {
		case *ast.BinaryExpr:
			// `rows == nil` / `rows != nil` checks are neutral.
			if (n.Op == token.EQL || n.Op == token.NEQ) && (isNil(n.X) || isNil(n.Y)) {
				return false
			}
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && info.ObjectOf(id) == d.v && d.v != nil {
				if finishers[n.Sel.Name] {
					finished = true
				}
				// Neutral consumption (Next/Item/...) and unknown methods
				// keep the path open; either way don't re-inspect the ident.
				return false
			}
		case *ast.Ident:
			if d.v != nil && info.ObjectOf(n) == d.v {
				// Any bare appearance — argument, return value, RHS of an
				// assignment, channel send, composite literal — transfers
				// ownership out of this function's responsibility.
				finished = true
			}
		case *ast.ReturnStmt:
			if d.err != nil && usesObj(info, n, d.err) {
				finished = true // error-path return: the cursor is nil here
			}
		case *ast.CallExpr:
			// Consuming the paired error in a call — writeError(..., err),
			// t.Fatal(err), panic(err), fmt.Errorf("...%w", err) — marks the
			// error branch, where the cursor is nil. The `err != nil` guard
			// itself is a bare comparison and stays neutral (handled above),
			// so only the branch that handles the error is excused.
			if d.err != nil && usesObj(info, n, d.err) {
				finished = true
			}
		}
		return !finished
	})
	return finished
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// usesObj reports whether the node references the object.
func usesObj(info *types.Info, n ast.Node, obj types.Object) bool {
	used := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			used = true
		}
		return !used
	})
	return used
}
