package xquery

import (
	"fmt"
	"strings"

	"repro/internal/ops"
)

// Query is the parsed FLWOR query.
type Query struct {
	Lets   []LetClause
	Fors   []ForClause
	Where  []Comparison
	Order  *OrderClause // nil when the query has no order by
	Return ReturnClause
	Limit  *LimitClause // nil when the query has no limit tail
}

// LimitClause is the result window appended after the return expression:
// "limit N [offset M]" keeps at most N result items starting at item M
// (0-based). Like order by it is a tail construct — it restricts which items
// are returned, never which bindings exist, so the Join Graph is identical
// with and without it.
type LimitClause struct {
	Count  int
	Offset int
}

// String renders the clause in source form.
func (l *LimitClause) String() string {
	if l.Offset == 0 {
		return fmt.Sprintf("limit %d", l.Count)
	}
	return fmt.Sprintf("limit %d offset %d", l.Count, l.Offset)
}

// OrderClause is the order-by clause: sort the result tuples by the atomized
// value reached from a bound variable along a (predicate-free) relative path,
// e.g. "order by $a/current descending". Ties keep document order.
type OrderClause struct {
	Ref  PathRef
	Desc bool
}

// String renders the clause in source form.
func (o *OrderClause) String() string {
	s := "order by $" + o.Ref.Var
	for _, st := range o.Ref.Steps {
		s += st.String()
	}
	if o.Desc {
		s += " descending"
	}
	return s
}

// ReturnClause is the return expression: a single variable ($a), an element
// constructor wrapping one or more variables (<pair>{$a}{$b}</pair>), or an
// aggregate — count($a), or sum/avg/min/max over a relative path such as
// sum($a/current).
type ReturnClause struct {
	Vars []string // returned variables, in output order (≥1)
	Elem string   // constructor element name ("" = bare variable)
	// Agg is the aggregate function name ("", "count", "sum", "avg", "min",
	// "max"). Aggregates take exactly one variable and cannot appear inside a
	// constructor.
	Agg string
	// AggPath is the relative path of a numeric aggregate (empty for count,
	// which takes a bare variable, and for sum($v)-style whole-node folds).
	AggPath []Step
}

// Primary returns the first returned variable.
func (r ReturnClause) Primary() string { return r.Vars[0] }

// IsAgg reports whether the clause is an aggregate return.
func (r ReturnClause) IsAgg() bool { return r.Agg != "" }

// String renders the clause in source form.
func (r ReturnClause) String() string {
	if r.Agg != "" {
		s := fmt.Sprintf("%s($%s", r.Agg, r.Vars[0])
		for _, st := range r.AggPath {
			s += st.String()
		}
		return s + ")"
	}
	if r.Elem == "" {
		return "$" + r.Vars[0]
	}
	s := "<" + r.Elem + ">"
	for _, v := range r.Vars {
		s += "{$" + v + "}"
	}
	return s + "</" + r.Elem + ">"
}

// LetClause binds a variable to a document root: let $v := doc("name") or
// let $v := collection("name").
type LetClause struct {
	Var string
	Doc string
	// Collection marks Doc as a logical collection name (a sharded document
	// set) rather than a single document.
	Collection bool
}

// ForClause binds a variable to the result of a path expression.
type ForClause struct {
	Var  string
	Path PathExpr
}

// PathExpr is doc("name")/steps, collection("name")/steps or $var/steps.
type PathExpr struct {
	Doc   string // document or collection name when anchored at doc()/collection()
	Var   string // variable name when anchored at a variable
	Steps []Step
	// Collection marks Doc as a collection name; the compiler records it so
	// the engine can scatter the query over the collection's shards.
	Collection bool
}

// StepKind classifies path steps.
type StepKind int

// Step kinds: element test (a name or *), attribute test (@name or @*),
// text() and node().
const (
	StepElem StepKind = iota
	StepAttr
	StepText
	StepNode
)

// Step is one XPath step with its predicates. The abbreviations parse into
// axes: / is child, // is descendant and @ is attribute.
type Step struct {
	Axis  ops.Axis
	Kind  StepKind
	Name  string // element/attribute name; empty for *, @*, text() and node()
	Preds []Pred
}

// Pred is a step predicate: an existential relative path, optionally ending
// in a value comparison, e.g. [./reserve], [.//current/text() < 145],
// [quantity = 1].
type Pred struct {
	Path []Step
	Op   string // "", "=", "!=", "<", ">", "<=", ">="
	Lit  string
}

// Comparison is a where-clause condition: a path from a variable compared to
// another such path (join) or to a literal (selection).
type Comparison struct {
	LHS PathRef
	RHS *PathRef // nil when comparing to a literal
	Op  string
	Lit string // literal when RHS is nil
}

// PathRef is a relative path from a bound variable, e.g. $a/@person.
type PathRef struct {
	Var   string
	Steps []Step
}

// String renders the query in (normalized) source form, mostly for error
// messages and debugging.
func (q *Query) String() string {
	s := ""
	for _, l := range q.Lets {
		fn := "doc"
		if l.Collection {
			fn = "collection"
		}
		s += fmt.Sprintf("let $%s := %s(%s)\n", l.Var, fn, quote(l.Doc))
	}
	for i, f := range q.Fors {
		kw := "for"
		if i > 0 {
			kw = "   "
		}
		sep := ","
		if i == len(q.Fors)-1 {
			sep = ""
		}
		s += fmt.Sprintf("%s $%s in %s%s\n", kw, f.Var, f.Path, sep)
	}
	for i, c := range q.Where {
		kw := "where"
		if i > 0 {
			kw = "  and"
		}
		s += fmt.Sprintf("%s %s\n", kw, c)
	}
	if q.Order != nil {
		s += q.Order.String() + "\n"
	}
	s += "return " + q.Return.String()
	if q.Limit != nil {
		s += "\n" + q.Limit.String()
	}
	return s
}

// String renders the path expression.
func (p PathExpr) String() string {
	s := ""
	switch {
	case p.Doc != "" && p.Collection:
		s = "collection(" + quote(p.Doc) + ")"
	case p.Doc != "":
		s = "doc(" + quote(p.Doc) + ")"
	default:
		s = "$" + p.Var
	}
	for _, st := range p.Steps {
		s += st.String()
	}
	return s
}

// String renders the step. It is also the compiler's memo key for join
// endpoints, so it renders everything that tells two steps apart.
func (st Step) String() string {
	var s string
	switch st.Axis {
	case ops.AxisChild:
		s = "/" + st.test()
	case ops.AxisDesc:
		s = "//" + st.test()
	case ops.AxisAttribute:
		s = "/@" + st.test()
	default:
		s = "/" + st.Axis.String() + "::" + st.test()
	}
	for _, p := range st.Preds {
		s += p.String()
	}
	return s
}

// test renders the node test.
func (st Step) test() string {
	switch {
	case st.Kind == StepText:
		return "text()"
	case st.Kind == StepNode:
		return "node()"
	case st.Name == "":
		return "*"
	}
	return st.Name
}

// String renders the predicate.
func (p Pred) String() string {
	s := "[."
	for _, st := range p.Path {
		s += st.String()
	}
	if p.Op != "" {
		s += " " + p.Op + " " + literal(p.Lit)
	}
	return s + "]"
}

// String renders the comparison.
func (c Comparison) String() string {
	lhs := "$" + c.LHS.Var
	for _, st := range c.LHS.Steps {
		lhs += st.String()
	}
	if c.RHS != nil {
		rhs := "$" + c.RHS.Var
		for _, st := range c.RHS.Steps {
			rhs += st.String()
		}
		return fmt.Sprintf("%s %s %s", lhs, c.Op, rhs)
	}
	return fmt.Sprintf("%s %s %s", lhs, c.Op, literal(c.Lit))
}

// literal renders a comparison literal: bare when it lexes as a number
// again, quoted otherwise. Either form compiles to the same predicate.
func literal(s string) string {
	if s == "" || !isDigit(s[0]) || strings.Trim(s, "0123456789.") != "" {
		return quote(s)
	}
	return s
}

// quote renders a string literal between delimiters it does not contain:
// the lexer has no escapes, so that is the only form that parses back.
func quote(s string) string {
	if strings.Contains(s, `"`) {
		return "'" + s + "'"
	}
	return `"` + s + `"`
}
