package xquery

import (
	"fmt"
	"strconv"

	"repro/internal/ops"
)

// Parse parses a query in the supported FLWOR+XPath subset.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse for statically known queries; it panics on error.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokKind) (token, error) {
	t := p.peek()
	if t.kind != k {
		return t, fmt.Errorf("xquery: expected %v, found %v %q at %d", k, t.kind, t.text, t.pos)
	}
	return p.advance(), nil
}

func (p *parser) keyword() string {
	t := p.peek()
	if t.kind == tokName {
		return t.text
	}
	return ""
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	for {
		switch p.keyword() {
		case "let":
			p.advance()
			lc, err := p.parseLet()
			if err != nil {
				return nil, err
			}
			q.Lets = append(q.Lets, lc)
		case "for":
			p.advance()
			for {
				fc, err := p.parseFor()
				if err != nil {
					return nil, err
				}
				q.Fors = append(q.Fors, fc)
				if p.peek().kind != tokComma {
					break
				}
				p.advance()
			}
		default:
			goto clauses
		}
	}
clauses:
	if p.keyword() == "where" {
		p.advance()
		for {
			c, err := p.parseComparison()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, c)
			if p.keyword() != "and" {
				break
			}
			p.advance()
		}
	}
	if p.keyword() == "order" {
		p.advance()
		oc, err := p.parseOrderBy()
		if err != nil {
			return nil, err
		}
		q.Order = oc
	}
	if p.keyword() != "return" {
		return nil, fmt.Errorf("xquery: expected 'return', found %q at %d", p.peek().text, p.peek().pos)
	}
	p.advance()
	ret, err := p.parseReturn()
	if err != nil {
		return nil, err
	}
	q.Return = ret
	if p.keyword() == "limit" {
		p.advance()
		lc, err := p.parseLimit()
		if err != nil {
			return nil, err
		}
		q.Limit = lc
	}
	if _, err := p.expect(tokEOF); err != nil {
		return nil, fmt.Errorf("xquery: trailing input after return clause: %w", err)
	}
	if len(q.Fors) == 0 {
		return nil, fmt.Errorf("xquery: query needs at least one for clause")
	}
	return q, nil
}

// aggNames are the aggregate return functions; count takes a bare variable,
// the numeric aggregates take an optional predicate-free relative path.
var aggNames = map[string]bool{"count": true, "sum": true, "avg": true, "min": true, "max": true}

// parseOrderBy parses the clause after the "order" keyword:
// "by" $var path? ("ascending"|"descending")?. Key paths carry no predicates
// (they select values; they do not filter bindings).
func (p *parser) parseOrderBy() (*OrderClause, error) {
	if p.keyword() != "by" {
		return nil, fmt.Errorf("xquery: expected 'by' after 'order', found %q at %d", p.peek().text, p.peek().pos)
	}
	p.advance()
	v, err := p.expect(tokVar)
	if err != nil {
		return nil, fmt.Errorf("xquery: order by needs a $variable path: %w", err)
	}
	steps, err := p.parseSteps(false)
	if err != nil {
		return nil, err
	}
	oc := &OrderClause{Ref: PathRef{Var: v.text, Steps: steps}}
	switch p.keyword() {
	case "ascending":
		p.advance()
	case "descending":
		p.advance()
		oc.Desc = true
	}
	return oc, nil
}

// parseLimit parses the clause after the "limit" keyword: a positive whole
// count, optionally followed by "offset" and a non-negative whole offset.
func (p *parser) parseLimit() (*LimitClause, error) {
	count, err := p.parseWhole("limit")
	if err != nil {
		return nil, err
	}
	if count < 1 {
		return nil, fmt.Errorf("xquery: limit must be at least 1, got %d", count)
	}
	lc := &LimitClause{Count: count}
	if p.keyword() == "offset" {
		p.advance()
		off, err := p.parseWhole("offset")
		if err != nil {
			return nil, err
		}
		lc.Offset = off
	}
	return lc, nil
}

// parseWhole parses a non-negative whole-number token (clause names the
// construct for error messages).
func (p *parser) parseWhole(clause string) (int, error) {
	t, err := p.expect(tokNumber)
	if err != nil {
		return 0, fmt.Errorf("xquery: %s needs a whole number: %w", clause, err)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("xquery: %s needs a whole number, got %q at %d", clause, t.text, t.pos)
	}
	return n, nil
}

// parseReturn parses the return expression: "$v", an aggregate — "count($v)"
// or "sum|avg|min|max($v/path)" — or a constructor "<name>{$v}…</name>"
// (aggregates cannot nest inside constructors).
func (p *parser) parseReturn() (ReturnClause, error) {
	var r ReturnClause
	switch t := p.peek(); {
	case t.kind == tokVar:
		p.advance()
		r.Vars = []string{t.text}
		return r, nil
	case t.kind == tokName && aggNames[t.text]:
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return r, err
		}
		v, err := p.expect(tokVar)
		if err != nil {
			return r, err
		}
		steps, err := p.parseSteps(false)
		if err != nil {
			return r, err
		}
		if t.text == "count" && len(steps) > 0 {
			return r, fmt.Errorf("xquery: count takes a bare variable, got a path at %d", t.pos)
		}
		if _, err := p.expect(tokRParen); err != nil {
			return r, err
		}
		r.Vars = []string{v.text}
		r.Agg = t.text
		r.AggPath = steps
		return r, nil
	case t.kind == tokLt:
		p.advance()
		name, err := p.expect(tokName)
		if err != nil {
			return r, err
		}
		r.Elem = name.text
		if _, err := p.expect(tokGt); err != nil {
			return r, err
		}
		for p.peek().kind == tokLBrace {
			p.advance()
			if t := p.peek(); t.kind == tokName && aggNames[t.text] {
				return r, fmt.Errorf("xquery: aggregate %s(...) cannot nest inside an element constructor at %d (return the aggregate directly)", t.text, t.pos)
			}
			v, err := p.expect(tokVar)
			if err != nil {
				return r, err
			}
			if _, err := p.expect(tokRBrace); err != nil {
				return r, err
			}
			r.Vars = append(r.Vars, v.text)
		}
		if len(r.Vars) == 0 {
			return r, fmt.Errorf("xquery: element constructor without {$var} content at %d", p.peek().pos)
		}
		// Closing tag: "</name>" lexes as '<' '/' name '>'.
		if _, err := p.expect(tokLt); err != nil {
			return r, err
		}
		if _, err := p.expect(tokSlash); err != nil {
			return r, err
		}
		closing, err := p.expect(tokName)
		if err != nil {
			return r, err
		}
		if closing.text != r.Elem {
			return r, fmt.Errorf("xquery: constructor tags mismatch: <%s> vs </%s>", r.Elem, closing.text)
		}
		if _, err := p.expect(tokGt); err != nil {
			return r, err
		}
		return r, nil
	default:
		return r, fmt.Errorf("xquery: expected return expression, found %q at %d", t.text, t.pos)
	}
}

func (p *parser) parseLet() (LetClause, error) {
	v, err := p.expect(tokVar)
	if err != nil {
		return LetClause{}, err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return LetClause{}, err
	}
	doc, coll, err := p.parseSourceCall()
	if err != nil {
		return LetClause{}, err
	}
	return LetClause{Var: v.text, Doc: doc, Collection: coll}, nil
}

// parseSourceCall parses doc("name") or collection("name"), reporting whether
// the source is a collection.
func (p *parser) parseSourceCall() (string, bool, error) {
	name, err := p.expect(tokName)
	if err != nil {
		return "", false, err
	}
	var coll bool
	switch name.text {
	case "doc", "fn:doc":
	case "collection", "fn:collection":
		coll = true
	default:
		return "", false, fmt.Errorf("xquery: expected doc(...) or collection(...), found %q at %d", name.text, name.pos)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return "", false, err
	}
	s, err := p.expect(tokString)
	if err != nil {
		return "", false, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return "", false, err
	}
	return s.text, coll, nil
}

func (p *parser) parseFor() (ForClause, error) {
	v, err := p.expect(tokVar)
	if err != nil {
		return ForClause{}, err
	}
	if kw := p.keyword(); kw != "in" {
		return ForClause{}, fmt.Errorf("xquery: expected 'in', found %q at %d", p.peek().text, p.peek().pos)
	}
	p.advance()
	path, err := p.parsePath()
	if err != nil {
		return ForClause{}, err
	}
	return ForClause{Var: v.text, Path: path}, nil
}

func (p *parser) parsePath() (PathExpr, error) {
	var pe PathExpr
	switch p.peek().kind {
	case tokVar:
		pe.Var = p.advance().text
	case tokName:
		doc, coll, err := p.parseSourceCall()
		if err != nil {
			return pe, err
		}
		pe.Doc = doc
		pe.Collection = coll
	default:
		return pe, fmt.Errorf("xquery: path must start with doc(...), collection(...) or a variable, found %q at %d", p.peek().text, p.peek().pos)
	}
	steps, err := p.parseSteps(true)
	if err != nil {
		return pe, err
	}
	if len(steps) == 0 {
		return pe, fmt.Errorf("xquery: path without steps at %d", p.peek().pos)
	}
	pe.Steps = steps
	return pe, nil
}

// ParsePath parses a path of steps on its own, such as //a[b]/parent::c,
// which must make up the whole input: the path a FLWOR query would bind,
// without the query around it.
func ParsePath(src string) ([]Step, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	steps, err := p.parseSteps(true)
	if err != nil {
		return nil, err
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("xquery: a path starts with '/' or '//', found %q at %d", p.peek().text, p.peek().pos)
	}
	if _, err := p.expect(tokEOF); err != nil {
		return nil, fmt.Errorf("xquery: trailing input after path: %w", err)
	}
	return steps, nil
}

// parseSteps parses (("/"|"//") step)*. withPreds controls predicate
// parsing.
func (p *parser) parseSteps(withPreds bool) ([]Step, error) {
	var steps []Step
	for {
		sep := p.peek()
		if sep.kind != tokSlash && sep.kind != tokDSlash {
			return steps, nil
		}
		p.advance()
		st, err := p.parseStep(sep.kind == tokDSlash, withPreds)
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}
}

// axisByName returns the axis an explicit step names: any of ops.Axis but
// the attribute axis's reverse, which has no XPath name.
func axisByName(name string) (ops.Axis, bool) {
	for a := ops.AxisChild; a <= ops.AxisAttribute; a++ {
		if a.String() == name {
			return a, true
		}
	}
	return 0, false
}

// parseStep parses one step after its separator: desc is true after '//'.
func (p *parser) parseStep(desc, withPreds bool) (Step, error) {
	st := Step{Axis: ops.AxisChild}
	if desc {
		st.Axis = ops.AxisDesc
	}
	switch t := p.peek(); t.kind {
	case tokAxis:
		if desc {
			return st, fmt.Errorf("xquery: '//' cannot precede the explicit axis %q at %d", t.text+"::", t.pos)
		}
		axis, ok := axisByName(t.text)
		if !ok {
			return st, fmt.Errorf("xquery: unsupported axis %q at %d", t.text+"::", t.pos)
		}
		p.advance()
		st.Axis = axis
	case tokAt:
		p.advance()
		if desc {
			return st, fmt.Errorf("xquery: '//@%s' (descendant attribute step) is not supported at %d; use an element step first", p.peek().text, t.pos)
		}
		st.Axis = ops.AxisAttribute
	}
	if err := p.parseTest(&st); err != nil {
		return st, err
	}
	if withPreds {
		for p.peek().kind == tokLBracket {
			p.advance()
			pred, err := p.parsePred()
			if err != nil {
				return st, err
			}
			st.Preds = append(st.Preds, pred)
		}
	}
	return st, nil
}

// parseTest parses st's node test. The attribute axis takes a name or '*';
// every other axis takes a name, '*', text() or node().
func (p *parser) parseTest(st *Step) error {
	t := p.advance()
	switch {
	case t.kind == tokName && (t.text == "text" || t.text == "node") && p.peek().kind == tokLParen:
		p.advance()
		if _, err := p.expect(tokRParen); err != nil {
			return err
		}
		st.Kind = StepText
		if t.text == "node" {
			st.Kind = StepNode
		}
	case t.kind == tokName:
		st.Name = t.text
	case t.kind == tokStar:
	default:
		return fmt.Errorf("xquery: expected a node test after %s, found %q at %d", st.Axis, t.text, t.pos)
	}
	if st.Axis != ops.AxisAttribute {
		return nil
	}
	if st.Kind != StepElem {
		return fmt.Errorf("xquery: the attribute axis takes a name or '*', found %s at %d", st.test(), t.pos)
	}
	st.Kind = StepAttr
	return nil
}

func (p *parser) parsePred() (Pred, error) {
	var pred Pred
	var steps []Step
	switch p.peek().kind {
	case tokDot:
		p.advance()
		var err error
		steps, err = p.parseSteps(true)
		if err != nil {
			return pred, err
		}
		if len(steps) == 0 {
			return pred, fmt.Errorf("xquery: predicate '.' without steps at %d", p.peek().pos)
		}
	case tokName, tokAt, tokStar, tokAxis:
		// [reserve] is shorthand for [./reserve].
		st, err := p.parseStep(false, true)
		if err != nil {
			return pred, err
		}
		steps = append(steps, st)
		more, err := p.parseSteps(true)
		if err != nil {
			return pred, err
		}
		steps = append(steps, more...)
	default:
		return pred, fmt.Errorf("xquery: unsupported predicate start %q at %d", p.peek().text, p.peek().pos)
	}
	pred.Path = steps
	if isCompareOp(p.peek().kind) {
		pred.Op = p.advance().text
		lit, err := p.parseLiteral()
		if err != nil {
			return pred, err
		}
		pred.Lit = lit
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return pred, err
	}
	return pred, nil
}

// isCompareOp reports whether k is a comparison operator.
func isCompareOp(k tokKind) bool {
	switch k {
	case tokEq, tokNe, tokLt, tokGt, tokLe, tokGe:
		return true
	}
	return false
}

func (p *parser) parseLiteral() (string, error) {
	switch t := p.peek(); t.kind {
	case tokString, tokNumber:
		p.advance()
		return t.text, nil
	default:
		return "", fmt.Errorf("xquery: expected literal, found %q at %d", t.text, t.pos)
	}
}

func (p *parser) parseComparison() (Comparison, error) {
	var c Comparison
	lhs, err := p.parsePathRef()
	if err != nil {
		return c, err
	}
	c.LHS = lhs
	if t := p.peek(); !isCompareOp(t.kind) {
		return c, fmt.Errorf("xquery: expected comparison operator, found %q at %d", t.text, t.pos)
	}
	c.Op = p.advance().text
	if p.peek().kind == tokVar {
		rhs, err := p.parsePathRef()
		if err != nil {
			return c, err
		}
		c.RHS = &rhs
		return c, nil
	}
	lit, err := p.parseLiteral()
	if err != nil {
		return c, err
	}
	c.Lit = lit
	return c, nil
}

func (p *parser) parsePathRef() (PathRef, error) {
	v, err := p.expect(tokVar)
	if err != nil {
		return PathRef{}, err
	}
	steps, err := p.parseSteps(true)
	if err != nil {
		return PathRef{}, err
	}
	return PathRef{Var: v.text, Steps: steps}, nil
}

// isNumeric reports whether a literal parses as a number.
func isNumeric(lit string) bool {
	_, err := strconv.ParseFloat(lit, 64)
	return err == nil
}
