// Package synopsis implements the structural summaries that compile-time
// XML optimizers build their cardinality estimates on — the DataGuide
// family of the paper's related work ([15], Sec 5). A Guide is a path trie
// over the document: one node per distinct root-to-element label path,
// carrying exact occurrence counts, attribute counts, and a value summary
// (numeric histogram + heavy hitters) of the text content.
//
// Linear paths without predicates are estimated *exactly* (that is the
// DataGuide guarantee); predicates and branches fall back to the attribute
// value independence assumption — precisely the blind spot ROX exploits
// (Sec 5: "cardinality estimation techniques are based on the attribute
// value independence heuristic").
package synopsis

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/xmltree"
)

// Guide is a DataGuide-style synopsis of one document.
type Guide struct {
	doc  string
	root *GNode
	// totalElems is the document's element count.
	totalElems int
}

// GNode is one distinct label path.
type GNode struct {
	Name     string
	Count    int // elements with exactly this root path
	Children map[string]*GNode
	Attrs    map[string]int // attribute name → occurrences at this path
	Texts    int            // text children at this path
	Values   *ValueSummary  // summary of the direct text values
}

// Build constructs the synopsis with a single scan over the node table.
func Build(d *xmltree.Document) *Guide {
	g := &Guide{doc: d.Name(), root: newGNode("")}
	// stack[i] is the guide node of the open element at depth i.
	stack := []*GNode{g.root}
	for i := 0; i < d.Len(); i++ {
		n := xmltree.NodeID(i)
		if d.Kind(n) == xmltree.KindDoc {
			continue // the synthetic root is stack[0]
		}
		level := int(d.Level(n))
		if level < len(stack) {
			stack = stack[:level]
		}
		parent := stack[len(stack)-1]
		switch d.Kind(n) {
		case xmltree.KindElem:
			name := d.NodeName(n)
			child := parent.Children[name]
			if child == nil {
				child = newGNode(name)
				parent.Children[name] = child
			}
			child.Count++
			g.totalElems++
			stack = append(stack, child)
		case xmltree.KindAttr:
			parent.Attrs[d.NodeName(n)]++
		case xmltree.KindText:
			parent.Texts++
			parent.Values.Add(d.Value(n))
		}
	}
	seal(g.root)
	return g
}

func newGNode(name string) *GNode {
	return &GNode{
		Name:     name,
		Children: map[string]*GNode{},
		Attrs:    map[string]int{},
		Values:   NewValueSummary(16, 8),
	}
}

// seal freezes the value summaries of n's subtree.
func seal(n *GNode) {
	n.Values.Seal()
	for _, c := range n.Children {
		seal(c)
	}
}

// Size returns the number of guide nodes (distinct label paths) — the
// synopsis footprint.
func (g *Guide) Size() int {
	var count func(*GNode) int
	count = func(n *GNode) int {
		total := 1
		for _, c := range n.Children {
			total += count(c)
		}
		return total
	}
	return count(g.root) - 1 // exclude the synthetic root
}

// PathStep is one step of a linear path pattern.
type PathStep struct {
	Desc bool   // descendant step (//) instead of child (/)
	Name string // element name ("" is not allowed; use EstimatePath on names only)
}

// CountPath returns the exact number of elements reached by the linear path
// from the document root — the DataGuide query. Descendant steps are
// resolved by walking all matching guide branches, so the result is still
// exact (guides store every distinct path).
func (g *Guide) CountPath(steps []PathStep) int {
	frontier := map[*GNode]bool{g.root: true}
	for _, st := range steps {
		next := map[*GNode]bool{}
		for n := range frontier {
			if st.Desc {
				collectDesc(n, st.Name, next)
			} else if c := n.Children[st.Name]; c != nil {
				next[c] = true
			}
		}
		frontier = next
		if len(frontier) == 0 {
			return 0
		}
	}
	total := 0
	for n := range frontier {
		total += n.Count
	}
	return total
}

func collectDesc(n *GNode, name string, out map[*GNode]bool) {
	for _, c := range n.Children {
		if c.Name == name {
			out[c] = true
		}
		collectDesc(c, name, out)
	}
}

// ParsePath parses a linear pattern like "//open_auction/bidder//personref".
func ParsePath(s string) ([]PathStep, error) {
	if !strings.HasPrefix(s, "/") {
		return nil, fmt.Errorf("synopsis: path must be absolute: %q", s)
	}
	var steps []PathStep
	i := 0
	for i < len(s) {
		desc := false
		if strings.HasPrefix(s[i:], "//") {
			desc = true
			i += 2
		} else if s[i] == '/' {
			i++
		} else {
			return nil, fmt.Errorf("synopsis: expected '/' at %d in %q", i, s)
		}
		j := i
		for j < len(s) && s[j] != '/' {
			j++
		}
		if j == i {
			return nil, fmt.Errorf("synopsis: empty step at %d in %q", i, s)
		}
		steps = append(steps, PathStep{Desc: desc, Name: s[i:j]})
		i = j
	}
	return steps, nil
}

// EstimatePath is CountPath over a textual pattern.
func (g *Guide) EstimatePath(pattern string) (int, error) {
	steps, err := ParsePath(pattern)
	if err != nil {
		return 0, err
	}
	return g.CountPath(steps), nil
}

// EstimateWithPredicates estimates the cardinality of a path whose target
// carries value predicates, using the independence assumption: the exact
// structural count is scaled by each predicate's selectivity estimated from
// the value summaries. This is exactly how far a state-of-the-art static
// estimator gets — and where correlated data breaks it.
func (g *Guide) EstimateWithPredicates(pattern string, preds ...ValuePred) (float64, error) {
	steps, err := ParsePath(pattern)
	if err != nil {
		return 0, err
	}
	structural := float64(g.CountPath(steps))
	sel := 1.0
	for _, p := range preds {
		sel *= g.predSelectivity(steps, p)
	}
	return structural * sel, nil
}

// ValuePred is a value predicate on the text content below the path target.
type ValuePred struct {
	Op  string // "=", "<", "<=", ">", ">="
	Val string
}

// predSelectivity estimates the fraction of target elements satisfying the
// predicate from the merged value summaries of the target guide nodes.
func (g *Guide) predSelectivity(steps []PathStep, p ValuePred) float64 {
	frontier := map[*GNode]bool{g.root: true}
	for _, st := range steps {
		next := map[*GNode]bool{}
		for n := range frontier {
			if st.Desc {
				collectDesc(n, st.Name, next)
			} else if c := n.Children[st.Name]; c != nil {
				next[c] = true
			}
		}
		frontier = next
	}
	// Merge target summaries (including their descendants' text, since
	// predicates like [.//current/text() < x] look below the target); for
	// simplicity use the direct summaries of all descendant-or-self nodes.
	var texts int
	var matching float64
	var visit func(n *GNode)
	visit = func(n *GNode) {
		texts += n.Texts
		matching += n.Values.EstimateMatch(p.Op, p.Val) * float64(n.Texts)
		for _, c := range n.Children {
			visit(c)
		}
	}
	for n := range frontier {
		visit(n)
	}
	if texts == 0 {
		return 0.1 // textbook fallback selectivity
	}
	sel := matching / float64(texts)
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// ValueSummary summarizes a stream of text values: an equi-width histogram
// over the numeric values plus a heavy-hitter table for strings
// (space-efficient — the synopsis never stores the data).
type ValueSummary struct {
	buckets   int
	topK      int
	numCount  int
	min, max  float64
	hist      []int
	raw       []float64 // buffered until Seal fixes the bucket bounds
	strCount  int
	heavy     map[string]int
	distilled bool
}

// NewValueSummary returns a summary with the given histogram resolution and
// heavy-hitter capacity.
func NewValueSummary(buckets, topK int) *ValueSummary {
	return &ValueSummary{buckets: buckets, topK: topK, heavy: map[string]int{}}
}

// Add records one value.
func (v *ValueSummary) Add(s string) {
	if f, ok := xmltree.ParseNumber(s); ok {
		v.numCount++
		v.raw = append(v.raw, f)
		return
	}
	v.strCount++
	// Space-saving-ish heavy hitters: admit until capacity, then decay.
	if _, ok := v.heavy[s]; ok || len(v.heavy) < v.topK {
		v.heavy[s]++
		return
	}
	for k := range v.heavy {
		v.heavy[k]--
		if v.heavy[k] <= 0 {
			delete(v.heavy, k)
		}
	}
}

// Seal freezes the histogram bounds and discards the raw buffer.
func (v *ValueSummary) Seal() {
	if v.distilled {
		return
	}
	v.distilled = true
	if len(v.raw) == 0 {
		return
	}
	v.min, v.max = v.raw[0], v.raw[0]
	for _, f := range v.raw {
		v.min = math.Min(v.min, f)
		v.max = math.Max(v.max, f)
	}
	v.hist = make([]int, v.buckets)
	for _, f := range v.raw {
		v.hist[v.bucket(f)]++
	}
	v.raw = nil
}

func (v *ValueSummary) bucket(f float64) int {
	if v.max == v.min {
		return 0
	}
	b := int(float64(v.buckets) * (f - v.min) / (v.max - v.min))
	if b >= v.buckets {
		b = v.buckets - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// EstimateMatch returns the estimated fraction of summarized values
// satisfying "value op literal".
func (v *ValueSummary) EstimateMatch(op, lit string) float64 {
	total := v.numCount + v.strCount
	if total == 0 {
		return 0
	}
	if f, err := strconv.ParseFloat(lit, 64); err == nil && v.numCount > 0 {
		return v.estimateNumeric(op, f) * float64(v.numCount) / float64(total)
	}
	// String equality via heavy hitters; unseen strings get a uniform
	// guess over the unseen mass.
	if op == "=" {
		if c, ok := v.heavy[lit]; ok {
			return float64(c) / float64(total)
		}
		return 0.5 / float64(total+1)
	}
	return 0.1
}

func (v *ValueSummary) estimateNumeric(op string, f float64) float64 {
	if v.numCount == 0 {
		return 0
	}
	if v.hist == nil {
		return 0.1
	}
	width := (v.max - v.min) / float64(len(v.hist))
	cumBelow := 0.0 // estimated count strictly below f
	for i, c := range v.hist {
		lo := v.min + float64(i)*width
		hi := lo + width
		switch {
		case hi <= f:
			cumBelow += float64(c)
		case lo < f:
			if width > 0 {
				cumBelow += float64(c) * (f - lo) / width
			}
		}
	}
	frac := cumBelow / float64(v.numCount)
	switch op {
	case "<":
		return frac
	case "<=":
		return math.Min(1, frac+1.0/float64(v.numCount))
	case ">":
		return 1 - frac
	case ">=":
		return math.Min(1, 1-frac+1.0/float64(v.numCount))
	case "=":
		if f < v.min || f > v.max {
			return 0
		}
		return 1 / math.Max(1, float64(v.numCount))
	default:
		return 0.1
	}
}

// String renders the guide as an indented path tree with counts (debugging
// and documentation).
func (g *Guide) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DataGuide(%s): %d paths, %d elements\n", g.doc, g.Size(), g.totalElems)
	var walk func(n *GNode, depth int)
	walk = func(n *GNode, depth int) {
		names := make([]string, 0, len(n.Children))
		for name := range n.Children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c := n.Children[name]
			fmt.Fprintf(&sb, "%s%s ×%d", strings.Repeat("  ", depth), name, c.Count)
			if c.Texts > 0 {
				fmt.Fprintf(&sb, " (text ×%d)", c.Texts)
			}
			if len(c.Attrs) > 0 {
				attrs := make([]string, 0, len(c.Attrs))
				for a := range c.Attrs {
					attrs = append(attrs, "@"+a)
				}
				sort.Strings(attrs)
				fmt.Fprintf(&sb, " %s", strings.Join(attrs, " "))
			}
			sb.WriteString("\n")
			walk(c, depth+1)
		}
	}
	walk(g.root, 0)
	return sb.String()
}
