// Package table provides the tabular intermediates of the ROX runtime: Table,
// a sequence of nodes of one document (the T(v) and S(v) of Algorithm 1), and
// Relation, a multi-column table over several documents (the fully joined
// result of a Join Graph). It also implements the random-sample operation
// ℓ(T) of Sec 2.3.
package table

import (
	"math/rand"
	"slices"

	"repro/internal/xmltree"
)

// Table is a sequence of nodes from a single document. Vertex tables in the
// ROX algorithm are duplicate-free and sorted by pre (document order), which
// the staircase joins both require and guarantee; intermediate sample chains
// may temporarily be unsorted.
//
// A Table is read-only by contract: its Nodes are often a view of memory it
// does not own — an index extent (plan.Env.VertexTable), a relation column
// (Relation.DistinctNodes) or another table (Sample) — and many tables, and
// concurrent queries, may share one backing array. Nothing writes through
// Nodes; a caller that needs a different node set builds a new Table.
type Table struct {
	Doc   *xmltree.Document
	Nodes []xmltree.NodeID
}

// NewTable returns a table over doc with the given nodes (not copied).
func NewTable(doc *xmltree.Document, nodes []xmltree.NodeID) *Table {
	return &Table{Doc: doc, Nodes: nodes}
}

// Len returns the number of tuples.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	return len(t.Nodes)
}

// Sample implements ℓ(T) from Sec 2.3: a uniform random sample of at most l
// tuples, without replacement, returned in document order so it remains a
// valid staircase-join context input. When l >= Len the sample is the whole
// table, and t itself is returned. The caller provides the random source
// explicitly — both for determinism (seeded runs reproduce their plans) and
// for concurrency: the table itself is only read, so concurrent queries may
// sample the same shared table as long as each passes its own per-query
// *rand.Rand (the one carried by its plan.Env).
func (t *Table) Sample(l int, rng *rand.Rand) *Table {
	if l >= t.Len() {
		return t
	}
	// Floyd's algorithm: l distinct indices out of n in l draws. The chosen
	// indices stay sorted, in the slice that becomes the sample: a draw k
	// already chosen is replaced by j, which exceeds every index chosen so
	// far and so appends.
	n := t.Len()
	nodes := make([]xmltree.NodeID, 0, max(l, 0))
	for j := n - l; j < n; j++ {
		k := xmltree.NodeID(rng.Intn(j + 1))
		i, dup := slices.BinarySearch(nodes, k)
		if dup {
			nodes = append(nodes, xmltree.NodeID(j))
		} else {
			nodes = slices.Insert(nodes, i, k)
		}
	}
	for i, k := range nodes {
		nodes[i] = t.Nodes[k]
	}
	return &Table{Doc: t.Doc, Nodes: nodes}
}
