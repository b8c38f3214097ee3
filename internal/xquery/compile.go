package xquery

import (
	"fmt"
	"sort"

	"repro/internal/index"
	"repro/internal/joingraph"
	"repro/internal/ops"
	"repro/internal/plan"
)

// Compile bounds. A query beyond one of them is rejected before anything
// runs, so no query text builds a graph too large to optimize. Each sits at
// more than ten times the largest that any test, example, scenario archive or
// benchmark query reaches: predicates nested 2 deep, 19 vertices and 6 join
// edges.
const (
	// MaxPredicateDepth caps how deeply predicates nest. The lexer counts
	// it, so a deeper query fails before the parser recurses into it.
	MaxPredicateDepth = 64
	// MaxVertices caps the Join Graph's vertices.
	MaxVertices = 1024
	// MaxJoinEdges caps the Join Graph's equi-join edges once the join
	// equivalences are closed: a join class of k vertices has k(k-1)/2.
	MaxJoinEdges = 1024
)

var errTooManyVertices = fmt.Errorf("xquery: the query's Join Graph has more than MaxVertices (%d) vertices", MaxVertices)

// CompileOptions tune Join Graph Isolation.
type CompileOptions struct {
	// NoJoinEquivalences skips adding the transitive equi-join edges
	// (Fig 4's dotted lines). The default adds them, giving the optimizer
	// the full join-order freedom.
	NoJoinEquivalences bool
}

// Compiled is the output of Join Graph Isolation: the Join Graph, the tail
// restoring XQuery semantics, the variable → vertex binding, and the set of
// documents the query touches.
type Compiled struct {
	Graph *joingraph.Graph
	Tail  *plan.Tail
	// Vars maps every for-variable to its Join Graph vertex.
	Vars map[string]int
	// Docs lists the single-document names the query accesses, sorted.
	Docs []string
	// Collections lists the collection names the query accesses, sorted.
	// Graph vertices anchored at collection(...) carry the collection name in
	// their Doc field; the engine instantiates them per shard with
	// ForShard before execution.
	Collections []string
	// ReturnVar is the primary variable of the return clause.
	ReturnVar string
	// Return carries the full return expression (constructor, count).
	Return ReturnClause
}

// ForShard returns a shallow copy of the compiled query whose graph has every
// vertex of collection coll rebound to the shard document shardDoc. Vertex and
// edge IDs are preserved, so the Tail, Vars and Return of the original apply
// unchanged — this is the per-shard unit a scatter-gather executor hands to
// the optimizer.
func (c *Compiled) ForShard(coll, shardDoc string) *Compiled {
	out := *c
	out.Graph = c.Graph.CloneRebindDoc(coll, shardDoc)
	return &out
}

// WithTailLimit returns a shallow copy of the compiled query whose tail
// carries the given limit/offset window (nil clears it), replacing any limit
// clause compiled from the query text. The graph, variable binding and every
// other tail spec are shared — the window is strictly a tail property, so the
// Join Graph fingerprint (and with it any cached plan) is unaffected.
func (c *Compiled) WithTailLimit(l *plan.LimitSpec) *Compiled {
	out := *c
	t := *c.Tail
	t.Limit = l
	out.Tail = &t
	return &out
}

// Compile performs Join Graph Isolation on a parsed query.
func Compile(q *Query, opts CompileOptions) (*Compiled, error) {
	c := &compiler{
		g:       joingraph.New(),
		vars:    make(map[string]int),
		roots:   make(map[string]int),
		docs:    make(map[string]bool),
		colls:   make(map[string]bool),
		refMemo: make(map[string]int),
	}
	for _, l := range q.Lets {
		if _, dup := c.vars[l.Var]; dup {
			return nil, fmt.Errorf("xquery: variable $%s bound twice", l.Var)
		}
		v, err := c.rootVertex(l.Doc, l.Collection)
		if err != nil {
			return nil, err
		}
		c.vars[l.Var] = v
	}
	var forVerts []int
	for _, f := range q.Fors {
		if _, dup := c.vars[f.Var]; dup {
			return nil, fmt.Errorf("xquery: variable $%s bound twice", f.Var)
		}
		v, err := c.compilePathExpr(f.Path)
		if err != nil {
			return nil, err
		}
		c.vars[f.Var] = v
		forVerts = append(forVerts, v)
	}
	for _, cmp := range q.Where {
		if err := c.compileComparison(cmp); err != nil {
			return nil, err
		}
	}
	if len(q.Return.Vars) == 0 {
		return nil, fmt.Errorf("xquery: empty return clause")
	}
	var finals []int
	for _, rv := range q.Return.Vars {
		retV, ok := c.vars[rv]
		if !ok {
			return nil, fmt.Errorf("xquery: return variable $%s not bound", rv)
		}
		if c.g.Vertices[retV].Kind == joingraph.VRoot {
			return nil, fmt.Errorf("xquery: returning a document root ($%s) is not supported", rv)
		}
		finals = append(finals, retV)
	}
	order, agg, err := c.compileTailSpecs(q, finals)
	if err != nil {
		return nil, err
	}
	var limit *plan.LimitSpec
	if q.Limit != nil {
		if q.Return.IsAgg() {
			return nil, fmt.Errorf("xquery: limit has no effect on an aggregate return (%s yields one item)", q.Return.Agg)
		}
		limit = &plan.LimitSpec{Count: q.Limit.Count, Offset: q.Limit.Offset}
	}
	if len(c.g.Vertices) > MaxVertices {
		return nil, errTooManyVertices
	}
	if err := c.g.Validate(); err != nil {
		return nil, fmt.Errorf("xquery: compiled graph invalid: %w", err)
	}
	if !opts.NoJoinEquivalences {
		if _, err := c.g.AddJoinEquivalences(MaxJoinEdges); err != nil {
			return nil, fmt.Errorf("xquery: the query exceeds MaxJoinEdges (%d): %w", MaxJoinEdges, err)
		}
	}
	docs := make([]string, 0, len(c.docs))
	for d := range c.docs {
		docs = append(docs, d)
	}
	sort.Strings(docs)
	colls := make([]string, 0, len(c.colls))
	for name := range c.colls {
		colls = append(colls, name)
	}
	sort.Strings(colls)
	// Scatter-gather binds every collection variable of a result tuple to
	// one shard at a time; two independent collections would need a
	// cross-product of shard pairs, which nothing executes. Rejecting here
	// (compile time) keeps the failure a client error, not an engine one.
	if len(colls) > 1 {
		return nil, fmt.Errorf("xquery: a query may read at most one collection, got %d (%v)", len(colls), colls)
	}
	return &Compiled{
		Graph: c.g,
		Tail: &plan.Tail{
			Project: forVerts,
			Sort:    forVerts,
			Final:   finals,
			Order:   order,
			Agg:     agg,
			Limit:   limit,
		},
		Vars:        c.vars,
		Docs:        docs,
		Collections: colls,
		ReturnVar:   q.Return.Primary(),
		Return:      q.Return,
	}, nil
}

// CompileString parses and compiles in one call.
func CompileString(src string, opts CompileOptions) (*Compiled, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(q, opts)
}

// compileTailSpecs translates the order-by clause and aggregate return into
// the plan.Tail's specs. Both live strictly in the tail — they reference Join
// Graph vertices but add no edges, so the graph (and with it the optimizer's
// plan space and joingraph.Fingerprint) is identical with and without them;
// the engine's plan-cache key covers them separately so a tail change is a
// cache miss, never a wrong answer.
func (c *compiler) compileTailSpecs(q *Query, finals []int) (*plan.OrderSpec, *plan.AggSpec, error) {
	var order *plan.OrderSpec
	var agg *plan.AggSpec
	if q.Order != nil {
		if q.Return.IsAgg() {
			return nil, nil, fmt.Errorf("xquery: order by has no effect on an aggregate return (%s)", q.Return.Agg)
		}
		v, ok := c.vars[q.Order.Ref.Var]
		if !ok {
			return nil, nil, fmt.Errorf("xquery: order by variable $%s not bound", q.Order.Ref.Var)
		}
		if c.g.Vertices[v].Kind == joingraph.VRoot {
			return nil, nil, fmt.Errorf("xquery: order by on a document root ($%s) is not supported", q.Order.Ref.Var)
		}
		path, err := keyPath(q.Order.Ref.Steps)
		if err != nil {
			return nil, nil, err
		}
		order = &plan.OrderSpec{Vertex: v, Path: path, Desc: q.Order.Desc}
	}
	if q.Return.IsAgg() {
		kind, ok := aggKinds[q.Return.Agg]
		if !ok {
			return nil, nil, fmt.Errorf("xquery: unknown aggregate %q", q.Return.Agg)
		}
		path, err := keyPath(q.Return.AggPath)
		if err != nil {
			return nil, nil, err
		}
		agg = &plan.AggSpec{Kind: kind, Vertex: finals[0], Path: path}
	}
	return order, agg, nil
}

// aggKinds maps the parsed aggregate function names onto the tail executor's
// kinds.
var aggKinds = map[string]plan.AggKind{
	"count": plan.AggCount,
	"sum":   plan.AggSum,
	"avg":   plan.AggAvg,
	"min":   plan.AggMin,
	"max":   plan.AggMax,
}

// keyPath translates parser steps into tail key steps. Key paths are
// predicate-free by grammar; the check here keeps that invariant explicit.
// The tail walks child, descendant and attribute steps to named nodes and
// text(), so any other step is an error.
func keyPath(steps []Step) ([]plan.KeyStep, error) {
	out := make([]plan.KeyStep, 0, len(steps))
	for _, st := range steps {
		if len(st.Preds) > 0 {
			return nil, fmt.Errorf("xquery: key path step %s must not carry predicates", st.String())
		}
		keyAxis := st.Axis == ops.AxisChild || st.Axis == ops.AxisDesc || st.Axis == ops.AxisAttribute
		if !keyAxis || st.Kind == StepNode || st.Kind != StepText && st.Name == "" {
			return nil, fmt.Errorf("xquery: key path step %s: only child, descendant and attribute steps to a name or text() are supported", st.String())
		}
		ks := plan.KeyStep{Desc: st.Axis == ops.AxisDesc, Name: st.Name, Attr: st.Kind == StepAttr, Text: st.Kind == StepText}
		out = append(out, ks)
	}
	return out, nil
}

type compiler struct {
	g     *joingraph.Graph
	vars  map[string]int  // variable → vertex
	roots map[string]int  // document/collection name → root vertex
	docs  map[string]bool // touched single documents
	colls map[string]bool // touched collections
	// refMemo shares the vertex of identical join-endpoint paths: the three
	// occurrences of $a1/text() in the DBLP query all mean the same vertex
	// (Fig 4 shows one text() vertex per author with three join edges).
	refMemo map[string]int
}

func (c *compiler) rootVertex(doc string, coll bool) (int, error) {
	// One name cannot be both a document and a collection within a query:
	// the shared root vertex would make the scatter rebind ambiguous.
	if coll && c.docs[doc] || !coll && c.colls[doc] {
		return 0, fmt.Errorf("xquery: %q used as both doc(...) and collection(...)", doc)
	}
	if v, ok := c.roots[doc]; ok {
		return v, nil
	}
	v := c.g.AddRoot(doc)
	c.roots[doc] = v
	if coll {
		c.colls[doc] = true
	} else {
		c.docs[doc] = true
	}
	return v, nil
}

func (c *compiler) compilePathExpr(p PathExpr) (int, error) {
	var cur int
	if p.Doc != "" {
		var err error
		cur, err = c.rootVertex(p.Doc, p.Collection)
		if err != nil {
			return 0, err
		}
	} else {
		v, ok := c.vars[p.Var]
		if !ok {
			return 0, fmt.Errorf("xquery: variable $%s used before binding", p.Var)
		}
		cur = v
	}
	return c.compileSteps(cur, p.Steps)
}

// compileSteps extends the graph from vertex cur along the steps, returning
// the vertex of the final step.
func (c *compiler) compileSteps(cur int, steps []Step) (int, error) {
	doc := c.g.Vertices[cur].Doc
	for _, st := range steps {
		if len(c.g.Vertices) >= MaxVertices {
			return 0, errTooManyVertices
		}
		var next int
		switch st.Kind {
		case StepElem:
			next = c.g.AddElem(doc, st.Name)
		case StepText:
			next = c.g.AddText(doc, joingraph.NoPred)
		case StepAttr:
			next = c.g.AddAttr(doc, st.Name, joingraph.NoPred)
		case StepNode:
			next = c.g.AddVertex(joingraph.VNode, doc, "", joingraph.NoPred)
		}
		c.g.AddStep(cur, next, st.Axis)
		for _, pred := range st.Preds {
			if err := c.compilePred(next, pred); err != nil {
				return 0, err
			}
		}
		cur = next
	}
	return cur, nil
}

// compilePred compiles a step predicate: an existential branch hanging off
// vertex cur, optionally value-restricted at its end.
func (c *compiler) compilePred(cur int, pred Pred) error {
	end, err := c.compileSteps(cur, pred.Path)
	if err != nil {
		return err
	}
	if pred.Op == "" {
		return nil
	}
	return c.applyValuePredicate(end, pred.Op, pred.Lit)
}

// applyValuePredicate attaches "op lit" to vertex v. Value vertices (text,
// attribute) carry the predicate directly; an element vertex gets a text()
// child vertex carrying it, mirroring how Fig 3.1 renders [quantity = 1] as
// quantity —/→ text()=1.
func (c *compiler) applyValuePredicate(v int, op, lit string) error {
	p, err := makePred(op, lit)
	if err != nil {
		return err
	}
	vert := c.g.Vertices[v]
	switch vert.Kind {
	case joingraph.VText, joingraph.VAttr:
		if vert.Pred.Kind != joingraph.PredNone {
			return fmt.Errorf("xquery: vertex %s already value-restricted", vert.Label())
		}
		vert.Pred = p
		return nil
	case joingraph.VElem:
		t := c.g.AddText(vert.Doc, p)
		c.g.AddStep(v, t, ops.AxisChild)
		return nil
	default:
		return fmt.Errorf("xquery: cannot apply value predicate to %s", vert.Label())
	}
}

func makePred(op, lit string) (joingraph.Pred, error) {
	switch op {
	case "=":
		// String equality: the hash-based value index lookup of Sec 2.2.
		return joingraph.EqPred(lit), nil
	case "!=":
		return joingraph.NePred(lit), nil
	}
	if !isNumeric(lit) {
		return joingraph.NoPred, fmt.Errorf("xquery: range comparison %q needs a numeric literal, got %q", op, lit)
	}
	var rop index.RangeOp
	switch op {
	case "<":
		rop = index.Lt
	case "<=":
		rop = index.Le
	case ">":
		rop = index.Gt
	case ">=":
		rop = index.Ge
	default:
		return joingraph.NoPred, fmt.Errorf("xquery: unsupported operator %q", op)
	}
	var num float64
	fmt.Sscanf(lit, "%g", &num)
	return joingraph.RangePred(rop, num), nil
}

// compileComparison compiles a where-clause condition into either an
// equi-join edge (path op path) or a value predicate (path op literal).
// Join endpoints are shared across comparisons (refMemo); literal
// comparisons compile fresh branches, because each general comparison is
// independently existential in XQuery.
func (c *compiler) compileComparison(cmp Comparison) error {
	if cmp.RHS == nil {
		l, err := c.compilePathRef(cmp.LHS)
		if err != nil {
			return err
		}
		return c.applyValuePredicate(l, cmp.Op, cmp.Lit)
	}
	if cmp.Op != "=" {
		return fmt.Errorf("xquery: only equi-joins between paths are supported, got %q", cmp.Op)
	}
	l, err := c.compileJoinEndpoint(cmp.LHS)
	if err != nil {
		return err
	}
	r, err := c.compileJoinEndpoint(*cmp.RHS)
	if err != nil {
		return err
	}
	c.g.AddJoin(l, r)
	return nil
}

func (c *compiler) compilePathRef(ref PathRef) (int, error) {
	v, ok := c.vars[ref.Var]
	if !ok {
		return 0, fmt.Errorf("xquery: variable $%s used before binding", ref.Var)
	}
	return c.compileSteps(v, ref.Steps)
}

// compileJoinEndpoint compiles a join-side path with memoization and coerces
// it to a value vertex.
func (c *compiler) compileJoinEndpoint(ref PathRef) (int, error) {
	key := "$" + ref.Var
	for _, st := range ref.Steps {
		key += st.String()
	}
	if v, ok := c.refMemo[key]; ok {
		return v, nil
	}
	v, err := c.compilePathRef(ref)
	if err != nil {
		return 0, err
	}
	v, err = c.asValueVertex(v)
	if err != nil {
		return 0, err
	}
	c.refMemo[key] = v
	return v, nil
}

// asValueVertex coerces a join endpoint to a value-bearing vertex: element
// vertices are atomized through a text() child, matching XQuery's general
// comparison on element content. A join probes the value index of one name,
// so *, @* and node() cannot end a join path.
func (c *compiler) asValueVertex(v int) (int, error) {
	vert := c.g.Vertices[v]
	switch {
	case vert.Kind == joingraph.VText, vert.Kind == joingraph.VAttr && vert.QName != "":
		return v, nil
	case vert.Kind == joingraph.VElem && vert.QName != "":
		t := c.g.AddText(vert.Doc, joingraph.NoPred)
		c.g.AddStep(v, t, ops.AxisChild)
		return t, nil
	default:
		return 0, fmt.Errorf("xquery: %s cannot participate in a value join", vert.Label())
	}
}
