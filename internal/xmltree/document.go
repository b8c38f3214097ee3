// Package xmltree implements the relational ("shredded") XML storage that the
// paper's evaluation platform, MonetDB/XQuery, provides: every XML node is a
// tuple in a columnar node table addressed by its pre number (document
// order), with size (subtree width), level (depth), kind, qualified name and
// value columns, plus a parent column that accelerates the upward axes.
//
// This encoding is the range-based pre/size/level variant of the pre/post
// scheme referenced in Sec 2.2; the subtree of node v occupies exactly the
// pre range (v, v+size(v)], which is what makes single-pass staircase joins
// possible.
package xmltree

import (
	"fmt"
	"strconv"
	"strings"
)

// NodeID identifies a node inside one document by its pre number.
type NodeID = int32

// NoNode is the nil node id (e.g. the parent of the document root).
const NoNode NodeID = -1

// Document is an immutable shredded XML document. Construct one with a
// Builder or with Parse; afterwards all accessors are read-only and safe for
// concurrent use.
type Document struct {
	name string // document identifier, e.g. "auction.xml"

	kinds   []Kind
	sizes   []int32 // number of nodes in the subtree below each node
	levels  []int32 // depth; the doc root has level 0
	names   []int32 // qname id for elem/attr/pi nodes, -1 otherwise
	values  []int32 // value id for text/attr/comment nodes, -1 otherwise
	parents []int32 // pre of the parent node, NoNode for the root

	qnames *Dict // qualified names
	vals   *Dict // text and attribute values

	// mapped marks a document whose columns are zero-copy views into a
	// memory-mapped packed container (see OpenPackedFile). The mapping is
	// released when the document becomes unreachable.
	mapped bool

	// base, when non-nil, marks a segmented document produced by an
	// Appender snapshot (the live-ingest append path): nodes [0, baseLen)
	// read through base's columns — possibly zero-copy views into a mapped
	// container — and nodes [baseLen, Len) through this document's own tail
	// columns. The base is never itself segmented. The one cell whose value
	// cannot live in the immutable base is the document root's subtree
	// size; Size special-cases node 0 to Len()-1.
	base    *Document
	baseLen int32
}

// Mapped reports whether the document's columns are backed by a
// memory-mapped packed container rather than heap allocations (for a
// segmented document: whether its base is).
func (d *Document) Mapped() bool {
	if d.base != nil {
		return d.base.mapped
	}
	return d.mapped
}

// Segmented reports whether the document is an append-path overlay: an
// immutable base extended by tail columns. Compaction (Flatten) turns it
// back into a plain single-segment document.
func (d *Document) Segmented() bool { return d.base != nil }

// BaseLen returns the node count of the base segment: 0 for a plain
// document, the base document's length for a segmented one. Nodes at pre
// numbers >= BaseLen were appended after the base was built — the region an
// incremental index maintains (see index.NewDelta).
func (d *Document) BaseLen() int {
	if d.base == nil {
		return 0
	}
	return int(d.baseLen)
}

// Name returns the document identifier (typically its URL or file name).
func (d *Document) Name() string { return d.name }

// Len returns the total number of nodes, including the document root and
// attribute nodes.
func (d *Document) Len() int {
	if d.base != nil {
		return int(d.baseLen) + len(d.kinds)
	}
	return len(d.kinds)
}

// Root returns the pre number of the document root node (always 0).
func (d *Document) Root() NodeID { return 0 }

// Kind returns the kind of node n.
func (d *Document) Kind(n NodeID) Kind {
	if d.base != nil {
		if n < d.baseLen {
			return d.base.kinds[n]
		}
		return d.kinds[n-d.baseLen]
	}
	return d.kinds[n]
}

// Size returns the number of nodes in the subtree below n (excluding n).
func (d *Document) Size(n NodeID) int32 {
	if d.base != nil {
		if n == 0 {
			// The root's subtree is the whole document; its cell in the
			// immutable base still holds the base-only size.
			return int32(d.Len()) - 1
		}
		if n < d.baseLen {
			return d.base.sizes[n]
		}
		return d.sizes[n-d.baseLen]
	}
	return d.sizes[n]
}

// Level returns the depth of n; the root has level 0.
func (d *Document) Level(n NodeID) int32 {
	if d.base != nil {
		if n < d.baseLen {
			return d.base.levels[n]
		}
		return d.levels[n-d.baseLen]
	}
	return d.levels[n]
}

// Parent returns the parent of n, or NoNode for the root.
func (d *Document) Parent(n NodeID) NodeID {
	if d.base != nil {
		if n < d.baseLen {
			return d.base.parents[n]
		}
		return d.parents[n-d.baseLen]
	}
	return d.parents[n]
}

// NameID returns the qname dictionary id of n, or -1 for unnamed kinds.
func (d *Document) NameID(n NodeID) int32 {
	if d.base != nil {
		if n < d.baseLen {
			return d.base.names[n]
		}
		return d.names[n-d.baseLen]
	}
	return d.names[n]
}

// ValueID returns the value dictionary id of n, or -1 for kinds without an
// own value (doc, elem).
func (d *Document) ValueID(n NodeID) int32 {
	if d.base != nil {
		if n < d.baseLen {
			return d.base.values[n]
		}
		return d.values[n-d.baseLen]
	}
	return d.values[n]
}

// NodeName returns the qualified name of n ("" for unnamed kinds).
func (d *Document) NodeName(n NodeID) string {
	id := d.NameID(n)
	if id < 0 {
		return ""
	}
	return d.qnames.String(id)
}

// Value returns the own string value of n ("" for doc/elem nodes; use
// StringValue for the XPath string value of an element).
func (d *Document) Value(n NodeID) string {
	id := d.ValueID(n)
	if id < 0 {
		return ""
	}
	return d.vals.String(id)
}

// QNames exposes the qualified-name dictionary (read-only use).
func (d *Document) QNames() *Dict { return d.qnames }

// Values exposes the value dictionary (read-only use).
func (d *Document) Values() *Dict { return d.vals }

// StringValue returns the XPath string value of n: for text, attribute,
// comment and pi nodes their own value; for document and element nodes the
// concatenation of all descendant text node values in document order. A node
// with at most one text descendant — every leaf element — yields the value
// dictionary's own string; only mixed content is concatenated into a new one.
func (d *Document) StringValue(n NodeID) string {
	switch d.Kind(n) {
	case KindText, KindAttr, KindComment, KindPI:
		return d.Value(n)
	}
	end := n + d.Size(n)
	first := d.nextText(n+1, end)
	if first > end {
		return ""
	}
	i := d.nextText(first+1, end)
	if i > end {
		return d.Value(first)
	}
	var sb strings.Builder
	sb.WriteString(d.Value(first))
	for ; i <= end; i = d.nextText(i+1, end) {
		sb.WriteString(d.Value(i))
	}
	return sb.String()
}

// nextText returns the first text node in [i, end], or end+1.
func (d *Document) nextText(i, end NodeID) NodeID {
	for i <= end && d.Kind(i) != KindText {
		i++
	}
	return i
}

// ParseNumber is the engine's one rule for reading a value as a number: s
// with surrounding white space removed must parse as a finite float64. The
// value indices and the plan tail both classify through it, so a text node
// is numeric to a range predicate exactly when it is numeric to an order key
// or an aggregate. NaN and the infinities are strings: admitting
// them would break the value order the numeric index is binary-searched by.
func ParseNumber(s string) (float64, bool) {
	return parseTrimmed(strings.TrimSpace(s))
}

func parseTrimmed(s string) (float64, bool) {
	// A finite number starts, after its sign, with a digit or a point: that
	// excludes strconv's "NaN", "Inf" and "Infinity" spellings (an overflow
	// is its ErrRange), and deciding it here keeps strconv from allocating
	// an error for every ordinary string.
	t := s
	if t != "" && (t[0] == '+' || t[0] == '-') {
		t = t[1:]
	}
	if t == "" || (t[0] != '.' && (t[0] < '0' || t[0] > '9')) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// Atomize returns the typed value of n: its string value without surrounding
// white space and, when ParseNumber accepts it, the number it spells.
func (d *Document) Atomize(n NodeID) (s string, num float64, isNum bool) {
	s = strings.TrimSpace(d.StringValue(n))
	num, isNum = parseTrimmed(s)
	return s, num, isNum
}

// NumberValue returns the string value of n read as a number (ParseNumber).
func (d *Document) NumberValue(n NodeID) (v float64, ok bool) {
	return ParseNumber(d.StringValue(n))
}

// IsAncestorOf reports whether a is a proper ancestor of n, using the pre
// range containment property of the encoding.
func (d *Document) IsAncestorOf(a, n NodeID) bool {
	return a < n && n <= a+d.Size(a)
}

// FirstChildPre returns the pre number of the first node in n's subtree
// (n+1) and the end of the subtree range (n+size). Attribute children of n
// come first in that range.
func (d *Document) subtreeRange(n NodeID) (first, last NodeID) {
	return n + 1, n + d.Size(n)
}

// Attributes returns the attribute nodes of element n in document order.
func (d *Document) Attributes(n NodeID) []NodeID {
	var out []NodeID
	first, last := d.subtreeRange(n)
	for i := first; i <= last; i++ {
		if d.Kind(i) != KindAttr || d.Parent(i) != n {
			break
		}
		out = append(out, i)
	}
	return out
}

// Children returns the non-attribute child nodes of n in document order.
func (d *Document) Children(n NodeID) []NodeID {
	var out []NodeID
	first, last := d.subtreeRange(n)
	for i := first; i <= last; {
		if d.Kind(i) == KindAttr {
			i++
			continue
		}
		out = append(out, i)
		i += d.Size(i) + 1
	}
	return out
}

// Attribute returns the attribute node of element n with the given name, or
// NoNode if absent.
func (d *Document) Attribute(n NodeID, name string) NodeID {
	id, ok := d.qnames.Lookup(name)
	if !ok {
		return NoNode
	}
	return d.AttributeByNameID(n, id)
}

// AttributeByNameID is Attribute for a name already resolved in QNames.
func (d *Document) AttributeByNameID(n NodeID, id int32) NodeID {
	// Attributes directly follow their owner, before any other child.
	end := n + d.Size(n)
	for a := n + 1; a <= end && d.Kind(a) == KindAttr; a++ {
		if d.NameID(a) == id {
			return a
		}
	}
	return NoNode
}

// CountName returns the number of element nodes named qname. It scans the
// node table; indices (package index) answer this in O(log n).
func (d *Document) CountName(qname string) int {
	id, ok := d.qnames.Lookup(qname)
	if !ok {
		return 0
	}
	count := 0
	for i := 0; i < d.Len(); i++ {
		n := NodeID(i)
		if d.Kind(n) == KindElem && d.NameID(n) == id {
			count++
		}
	}
	return count
}

// Validate checks the structural invariants of the encoding: size ranges
// nest properly, levels increase by one along parent edges, attribute nodes
// directly follow their owner, and dictionary references resolve. It returns
// the first violation found, or nil. Tests and the shredder use it; it is
// exported because generators in internal/datagen build documents directly.
func (d *Document) Validate() error {
	n := int32(d.Len())
	if n == 0 {
		return fmt.Errorf("document %q: empty node table", d.name)
	}
	if d.Kind(0) != KindDoc {
		return fmt.Errorf("document %q: node 0 has kind %v, want doc", d.name, d.Kind(0))
	}
	if d.Size(0) != n-1 {
		return fmt.Errorf("document %q: root size %d, want %d", d.name, d.Size(0), n-1)
	}
	if d.Level(0) != 0 || d.Parent(0) != NoNode {
		return fmt.Errorf("document %q: root must have level 0 and no parent", d.name)
	}
	for i := int32(1); i < n; i++ {
		p := d.Parent(i)
		if p < 0 || p >= i {
			return fmt.Errorf("node %d: parent %d out of range", i, p)
		}
		if d.Level(i) != d.Level(p)+1 {
			return fmt.Errorf("node %d: level %d, parent level %d", i, d.Level(i), d.Level(p))
		}
		if !d.IsAncestorOf(p, i) {
			return fmt.Errorf("node %d: not inside parent %d's subtree range", i, p)
		}
		if i+d.Size(i) > p+d.Size(p) {
			return fmt.Errorf("node %d: subtree exceeds parent %d's range", i, p)
		}
		switch d.Kind(i) {
		case KindElem:
			if d.NameID(i) < 0 || int(d.NameID(i)) >= d.qnames.Len() {
				return fmt.Errorf("elem node %d: bad name id %d", i, d.NameID(i))
			}
		case KindAttr:
			if d.Size(i) != 0 {
				return fmt.Errorf("attr node %d: size %d, want 0", i, d.Size(i))
			}
			if d.NameID(i) < 0 || int(d.NameID(i)) >= d.qnames.Len() {
				return fmt.Errorf("attr node %d: bad name id %d", i, d.NameID(i))
			}
			if d.ValueID(i) < 0 || int(d.ValueID(i)) >= d.vals.Len() {
				return fmt.Errorf("attr node %d: bad value id %d", i, d.ValueID(i))
			}
			// Attributes directly follow their owner, before any
			// non-attribute sibling.
			for j := p + 1; j < i; j++ {
				if d.Kind(j) != KindAttr {
					return fmt.Errorf("attr node %d: preceded by non-attr node %d within owner", i, j)
				}
			}
		case KindText, KindComment, KindPI:
			if d.Size(i) != 0 {
				return fmt.Errorf("%v node %d: size %d, want 0", d.Kind(i), i, d.Size(i))
			}
			if d.Kind(i) == KindText && (d.ValueID(i) < 0 || int(d.ValueID(i)) >= d.vals.Len()) {
				return fmt.Errorf("text node %d: bad value id %d", i, d.ValueID(i))
			}
		case KindDoc:
			return fmt.Errorf("node %d: interior doc node", i)
		default:
			return fmt.Errorf("node %d: unknown kind %d", i, uint8(d.Kind(i)))
		}
	}
	return nil
}
