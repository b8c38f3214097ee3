// Package xpath is a standalone XPath evaluator over the shredded store,
// built directly on the staircase joins: each location step is one
// structural semijoin against an index extent, which is how MonetDB/XQuery
// evaluates path expressions outside Join Graphs. It supports the
// abbreviated syntax (/, //, @, text(), *, .) and explicit axes
// (ancestor::x, following-sibling::*, …) with existential and value
// predicates.
//
//	nodes, err := xpath.Eval(ix, "/site//open_auction[reserve]/bidder")
//	nodes, err := xpath.Eval(ix, "//person[@id='p3']//education")
//	nodes, err := xpath.Eval(ix, "//item[quantity = 1]/name/text()")
//
// Results are duplicate-free and in document order, per XPath semantics.
package xpath

import (
	"fmt"
	"strconv"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/xmltree"
)

// TestKind classifies node tests.
type TestKind int

// Node tests.
const (
	TestElem    TestKind = iota // name
	TestAnyElem                 // *
	TestAttr                    // @name
	TestAnyAttr                 // @*
	TestText                    // text()
	TestNode                    // node()
)

// Test is a node test.
type Test struct {
	Kind TestKind
	Name string
}

// String renders the test.
func (t Test) String() string {
	switch t.Kind {
	case TestElem:
		return t.Name
	case TestAnyElem:
		return "*"
	case TestAttr:
		return "@" + t.Name
	case TestAnyAttr:
		return "@*"
	case TestText:
		return "text()"
	case TestNode:
		return "node()"
	default:
		return "?"
	}
}

// CmpOp is a predicate comparison operator.
type CmpOp int

// Comparison operators.
const (
	CmpNone CmpOp = iota // existential predicate
	CmpEq
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// Pred is a step predicate: a relative path, optionally compared to a
// literal: [path], [path = "x"], [path < 5].
type Pred struct {
	Path []Step
	Op   CmpOp
	Lit  string
}

// Step is one location step.
type Step struct {
	Axis  ops.Axis
	Test  Test
	Preds []Pred
}

// Expr is a parsed absolute path expression.
type Expr struct {
	Steps []Step
}

// String renders the expression back to (canonical) XPath.
func (e *Expr) String() string {
	s := ""
	for _, st := range e.Steps {
		switch st.Axis {
		case ops.AxisChild:
			s += "/" + st.Test.String()
		case ops.AxisDesc:
			s += "//" + st.Test.String()
		case ops.AxisAttribute:
			s += "/" + st.Test.String()
		default:
			s += "/" + st.Axis.String() + "::" + st.Test.String()
		}
		for range st.Preds {
			s += "[…]"
		}
	}
	return s
}

// Eval evaluates an absolute path expression over the indexed document,
// starting at the document root.
func Eval(ix *index.Index, path string) ([]xmltree.NodeID, error) {
	e, err := Parse(path)
	if err != nil {
		return nil, err
	}
	return EvalExpr(ix, e, []xmltree.NodeID{ix.Doc().Root()})
}

// Count evaluates the expression and returns the result cardinality.
func Count(ix *index.Index, path string) (int, error) {
	nodes, err := Eval(ix, path)
	return len(nodes), err
}

// EvalExpr evaluates a parsed expression from the given context node set
// (sorted, duplicate-free).
func EvalExpr(ix *index.Index, e *Expr, context []xmltree.NodeID) ([]xmltree.NodeID, error) {
	rec := metrics.NewRecorder()
	cur := context
	for _, st := range e.Steps {
		extent, err := extentOf(ix, st.Test)
		if err != nil {
			return nil, err
		}
		cur = ops.StaircaseSemi(rec, ix.Doc(), st.Axis, cur, extent)
		for _, p := range st.Preds {
			cur, err = filterPred(ix, cur, p)
			if err != nil {
				return nil, err
			}
		}
		if len(cur) == 0 {
			return nil, nil
		}
	}
	return cur, nil
}

// extentOf returns the index extent S for a node test.
func extentOf(ix *index.Index, t Test) ([]xmltree.NodeID, error) {
	switch t.Kind {
	case TestElem:
		return ix.Elements(t.Name), nil
	case TestAnyElem:
		return ix.AllElements(), nil
	case TestAttr:
		return ix.AttributesByName(t.Name), nil
	case TestAnyAttr:
		return ix.AllAttributes(), nil
	case TestText:
		return ix.Texts(), nil
	case TestNode:
		// All non-attribute nodes; build on demand from elements+texts.
		elems, texts := ix.AllElements(), ix.Texts()
		out := make([]xmltree.NodeID, 0, len(elems)+len(texts))
		i, j := 0, 0
		for i < len(elems) && j < len(texts) {
			if elems[i] < texts[j] {
				out = append(out, elems[i])
				i++
			} else {
				out = append(out, texts[j])
				j++
			}
		}
		out = append(out, elems[i:]...)
		out = append(out, texts[j:]...)
		return out, nil
	default:
		return nil, fmt.Errorf("xpath: unknown node test %v", t)
	}
}

// filterPred keeps the context nodes for which the predicate holds: the
// relative path has at least one result (existential), optionally with a
// value comparison on the terminal nodes. Implemented with pair-producing
// staircase joins threading the origin context through the chain.
func filterPred(ix *index.Index, context []xmltree.NodeID, p Pred) ([]xmltree.NodeID, error) {
	rec := metrics.NewRecorder()
	d := ix.Doc()
	// frontier maps current nodes back to their origin context nodes.
	frontier := make(map[xmltree.NodeID][]xmltree.NodeID, len(context))
	cur := context
	for _, c := range context {
		frontier[c] = []xmltree.NodeID{c}
	}
	for _, st := range p.Path {
		extent, err := extentOf(ix, st.Test)
		if err != nil {
			return nil, err
		}
		pairs, _ := ops.StepPairs(rec, d, st.Axis, cur, extent, 0)
		next := make(map[xmltree.NodeID]map[xmltree.NodeID]bool)
		for i := range pairs.C {
			s := pairs.S[i]
			if next[s] == nil {
				next[s] = make(map[xmltree.NodeID]bool)
			}
			for _, origin := range frontier[pairs.C[i]] {
				next[s][origin] = true
			}
		}
		frontier = make(map[xmltree.NodeID][]xmltree.NodeID, len(next))
		cur = make([]xmltree.NodeID, 0, len(next))
		for s, origins := range next {
			for o := range origins {
				frontier[s] = append(frontier[s], o)
			}
			cur = append(cur, s)
		}
		cur = xmltree.SortUnique(cur, nil)
		// Nested predicates inside predicate paths.
		for _, np := range st.Preds {
			kept, err := filterPred(ix, cur, np)
			if err != nil {
				return nil, err
			}
			keptSet := make(map[xmltree.NodeID]bool, len(kept))
			for _, k := range kept {
				keptSet[k] = true
			}
			cur = make([]xmltree.NodeID, 0, len(kept))
			for s := range frontier {
				if !keptSet[s] {
					delete(frontier, s)
				} else {
					cur = append(cur, s)
				}
			}
			cur = xmltree.SortUnique(cur, nil)
		}
	}
	survivors := make(map[xmltree.NodeID]bool)
	for s, origins := range frontier {
		if p.Op != CmpNone && !valueMatches(d, s, p.Op, p.Lit) {
			continue
		}
		for _, o := range origins {
			survivors[o] = true
		}
	}
	out := make([]xmltree.NodeID, 0, len(survivors))
	for _, c := range context {
		if survivors[c] {
			out = append(out, c)
		}
	}
	return out, nil
}

// valueMatches applies "node op literal" with XPath-ish coercion: numeric
// comparison when both sides parse as numbers, string comparison otherwise.
func valueMatches(d *xmltree.Document, n xmltree.NodeID, op CmpOp, lit string) bool {
	val := d.StringValue(n)
	if nv, err := strconv.ParseFloat(lit, 64); err == nil {
		if fv, ok := d.NumberValue(n); ok {
			switch op {
			case CmpEq:
				return fv == nv
			case CmpNe:
				return fv != nv
			case CmpLt:
				return fv < nv
			case CmpLe:
				return fv <= nv
			case CmpGt:
				return fv > nv
			case CmpGe:
				return fv >= nv
			}
		}
		return false
	}
	switch op {
	case CmpEq:
		return val == lit
	case CmpNe:
		return val != lit
	case CmpLt:
		return val < lit
	case CmpLe:
		return val <= lit
	case CmpGt:
		return val > lit
	case CmpGe:
		return val >= lit
	}
	return false
}
