package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/joingraph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/table"
	"repro/internal/xmltree"
)

// The map-based merges the Runner used before the pair-group index, kept
// verbatim as the oracle: the new merges must produce the identical row
// sequence, not just the same multiset.

func oracleExtend(rel *table.Relation, a int, pairs ops.Pairs, b int, docB *xmltree.Document) *table.Relation {
	matches := make(map[xmltree.NodeID][]xmltree.NodeID, len(pairs.C))
	for i := range pairs.C {
		matches[pairs.C[i]] = append(matches[pairs.C[i]], pairs.S[i])
	}
	cols := append(append([]int(nil), rel.ColumnIDs()...), b)
	docs := make([]*xmltree.Document, 0, len(cols))
	for _, id := range rel.ColumnIDs() {
		docs = append(docs, rel.Doc(id))
	}
	docs = append(docs, docB)
	out := table.NewRelation(cols, docs)
	colA := rel.Column(a)
	n := rel.NumRows()
	row := make([]xmltree.NodeID, len(cols))
	for i := 0; i < n; i++ {
		ms := matches[colA[i]]
		if len(ms) == 0 {
			continue
		}
		for _, m := range ms {
			for ci, id := range rel.ColumnIDs() {
				row[ci] = rel.Column(id)[i]
			}
			row[len(cols)-1] = m
			out.AppendRow(row)
		}
	}
	return out
}

func oracleFilter(rel *table.Relation, a, b int, pairs ops.Pairs) *table.Relation {
	set := make(map[[2]xmltree.NodeID]struct{}, len(pairs.C))
	for i := range pairs.C {
		set[[2]xmltree.NodeID{pairs.C[i], pairs.S[i]}] = struct{}{}
	}
	colA, colB := rel.Column(a), rel.Column(b)
	docs := make([]*xmltree.Document, 0, rel.NumCols())
	for _, id := range rel.ColumnIDs() {
		docs = append(docs, rel.Doc(id))
	}
	out := table.NewRelation(rel.ColumnIDs(), docs)
	for i := range colA {
		if _, ok := set[[2]xmltree.NodeID{colA[i], colB[i]}]; ok {
			out.AppendRow(rel.Row(i))
		}
	}
	return out
}

func oracleJoinOn(ra *table.Relation, a int, rb *table.Relation, b int, pairs ops.Pairs) *table.Relation {
	matches := make(map[xmltree.NodeID][]xmltree.NodeID, len(pairs.C))
	for i := range pairs.C {
		matches[pairs.C[i]] = append(matches[pairs.C[i]], pairs.S[i])
	}
	rbIdx := make(map[xmltree.NodeID][]int)
	colB := rb.Column(b)
	for i := range colB {
		rbIdx[colB[i]] = append(rbIdx[colB[i]], i)
	}
	cols := append(append([]int(nil), ra.ColumnIDs()...), rb.ColumnIDs()...)
	docs := make([]*xmltree.Document, 0, len(cols))
	for _, id := range ra.ColumnIDs() {
		docs = append(docs, ra.Doc(id))
	}
	for _, id := range rb.ColumnIDs() {
		docs = append(docs, rb.Doc(id))
	}
	out := table.NewRelation(cols, docs)
	colA := ra.Column(a)
	na := ra.NumRows()
	wa := ra.NumCols()
	row := make([]xmltree.NodeID, len(cols))
	for i := 0; i < na; i++ {
		for _, m := range matches[colA[i]] {
			for _, j := range rbIdx[m] {
				for ci, id := range ra.ColumnIDs() {
					row[ci] = ra.Column(id)[i]
				}
				for ci, id := range rb.ColumnIDs() {
					row[wa+ci] = rb.Column(id)[j]
				}
				out.AppendRow(row)
			}
		}
	}
	return out
}

// sameRelation reports the first difference between two relations: schema,
// documents, or the row sequence.
func sameRelation(got, want *table.Relation) error {
	if !slices.Equal(got.ColumnIDs(), want.ColumnIDs()) {
		return fmt.Errorf("columns %v, want %v", got.ColumnIDs(), want.ColumnIDs())
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Errorf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	for _, id := range want.ColumnIDs() {
		if got.Doc(id) != want.Doc(id) {
			return fmt.Errorf("column %d bound to document %q, want %q", id, got.Doc(id).Name(), want.Doc(id).Name())
		}
		if len(got.Column(id)) != got.NumRows() {
			return fmt.Errorf("column %d has %d rows of %d", id, len(got.Column(id)), got.NumRows())
		}
	}
	for i := 0; i < want.NumRows(); i++ {
		if !slices.Equal(got.Row(i), want.Row(i)) {
			return fmt.Errorf("row %d = %v, want %v", i, got.Row(i), want.Row(i))
		}
	}
	return nil
}

// byteStream feeds a merge case from raw bytes, so the randomized test and
// the fuzz target decode cases the same way; it yields 0 once exhausted.
type byteStream struct {
	b []byte
	i int
}

func (s *byteStream) next(mod int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i])
	s.i++
	return v % mod
}

var oracleDocs = func() [2]*xmltree.Document {
	var docs [2]*xmltree.Document
	for i := range docs {
		d, err := xmltree.ParseString(fmt.Sprintf("d%d", i), "<r/>")
		if err != nil {
			panic(err)
		}
		docs[i] = d
	}
	return docs
}()

// checkMergeCase decodes one case — which merge (the first edge's adoption
// included), the relation(s) with cross-document columns and duplicate
// values, and a pair list that is C-major, arbitrary (duplicate and
// non-adjacent keys) or value-ordered, dense or sparse in its id span,
// possibly empty — and compares the merge with its oracle.
func checkMergeCase(ms *mergeScratch, data []byte) error {
	s := &byteStream{b: data}
	kind := s.next(5)
	m := 1 + s.next(12)                         // distinct node ids per column
	spread := xmltree.NodeID(1 + 500*s.next(2)) // 1 = dense ids, 501 = sparse
	node := func() xmltree.NodeID { return xmltree.NodeID(s.next(m)) * spread }
	relation := func(firstID int) *table.Relation {
		w := 1 + s.next(3)
		ids := make([]int, w)
		docs := make([]*xmltree.Document, w)
		for c := range ids {
			ids[c], docs[c] = firstID+c, oracleDocs[s.next(2)]
		}
		rel := table.NewRelation(ids, docs)
		row := make([]xmltree.NodeID, w)
		for n := s.next(24); n > 0; n-- {
			for c := range row {
				row[c] = node()
			}
			rel.AppendRow(row)
		}
		return rel
	}
	ra := relation(0)
	a := s.next(ra.NumCols())
	var pairs ops.Pairs
	for n := s.next(40); n > 0; n-- {
		pairs.C, pairs.S = append(pairs.C, node()), append(pairs.S, node())
	}
	switch s.next(3) {
	case 0: // what the operators emit: C-major over an ascending context
		sort.Stable(pairsBy{pairs, pairs.C})
	case 1: // the merge join's output: grouped by an order unrelated to C
		sort.Stable(pairsBy{pairs, pairs.S})
	}
	var got, want *table.Relation
	inputs := []*table.Relation{ra} // the relations the merge takes rows of
	ms.live = nil
	switch kind {
	case 0:
		ms.live = liveMask(s, a)
		got, want = ms.extend(ra, a, pairs, 99, oracleDocs[1]), oracleExtend(ra, a, pairs, 99, oracleDocs[1])
	case 1:
		sw := pairs.Swapped()
		ms.live = liveMask(s, a)
		got, want = ms.extend(ra, a, sw, 99, oracleDocs[0]), oracleExtend(ra, a, sw, 99, oracleDocs[0])
	case 2:
		b := s.next(ra.NumCols())
		ms.live = liveMask(s, a, b)
		got, want = ms.filter(ra, a, b, pairs), oracleFilter(ra, a, b, pairs)
	case 4:
		// A first edge: the relation is the pair list. Pairs in a buffer of
		// their own become its columns; pairs in the scratch the next edge
		// overwrites are copied out at their exact length.
		inputs = nil
		inScratch := s.next(2) == 1
		if inScratch {
			ms.pairs.C, ms.pairs.S = append(ms.pairs.C[:0], pairs.C...), append(ms.pairs.S[:0], pairs.S...)
			pairs = ms.pairs
		}
		got = ms.adopt(0, oracleDocs[0], 99, oracleDocs[1], pairs)
		want = table.NewRelation([]int{0, 99}, oracleDocs[:])
		for i := range pairs.C {
			want.AppendRow([]xmltree.NodeID{pairs.C[i], pairs.S[i]})
		}
		if n := pairs.Len(); n > 0 {
			keptC, keptS := &got.Column(0)[0] == &pairs.C[0], &got.Column(99)[0] == &pairs.S[0]
			switch {
			case inScratch && (keptC || keptS || cap(got.Column(0)) != n):
				return fmt.Errorf("adopt kept the scratch pair buffers or over-allocated: %d pairs, cap %d", n, cap(got.Column(0)))
			case !inScratch && !(keptC && keptS):
				return fmt.Errorf("adopt copied %d pairs it owns", n)
			}
		}
	default:
		rb := relation(10)
		inputs = append(inputs, rb)
		b := 10 + s.next(rb.NumCols())
		ms.live = liveMask(s, a, b)
		got, want = ms.joinOn(ra, a, rb, b, pairs), oracleJoinOn(ra, a, rb, b, pairs)
	}
	if ms.live != nil {
		// The oracle merges every column; the merge copies the live ones.
		var ids []int
		for _, id := range want.ColumnIDs() {
			if ms.live[id] {
				ids = append(ids, id)
			}
		}
		want = want.Project(ids)
	}
	if err := sameRelation(got, want); err != nil {
		return fmt.Errorf("merge kind %d over %s with pairs C=%v S=%v: %w", kind, ra, pairs.C, pairs.S, err)
	}
	// The T(v) refresh through the scratch's bitmap, with the input column's
	// node set as v's previous table when there is one, as Runner.merge has it.
	for _, id := range got.ColumnIDs() {
		var prev *table.Table
		for _, in := range inputs {
			if in.HasColumn(id) {
				prev = &table.Table{Doc: in.Doc(id), Nodes: distinctSorted(in.Column(id))}
			}
		}
		wantNodes := distinctSorted(got.Column(id))
		if tv := got.DistinctNodes(id, prev, &ms.words); !slices.Equal(tv.Nodes, wantNodes) {
			return fmt.Errorf("merge kind %d: T(%d) = %v, want %v", kind, id, tv.Nodes, wantNodes)
		}
	}
	return nil
}

func distinctSorted(col []xmltree.NodeID) []xmltree.NodeID {
	nodes := slices.Clone(col)
	slices.Sort(nodes)
	return slices.Compact(nodes)
}

// dirtyCase returns generated case bytes of another length than data's: run
// between two runs of data, it leaves the recycled scratch dirty.
func dirtyCase(data []byte) []byte {
	d := make([]byte, 1+(len(data)+200)%600)
	rand.New(rand.NewSource(int64(len(data)))).Read(d)
	return d
}

// liveMask decodes which input columns a merge copies: nil (all of them) or
// live bits by vertex id with the columns of one byte's set bits dead —
// relation ids 0-2 and 10-12 — but the edge's endpoints and the new column
// 99 always live, as Runner.markLive has them.
func liveMask(s *byteStream, endpoints ...int) []bool {
	mask := s.next(64)
	if mask == 0 {
		return nil
	}
	live := make([]bool, 100)
	for bit, id := range []int{0, 1, 2, 10, 11, 12} {
		live[id] = mask&(1<<bit) == 0
	}
	for _, id := range append(endpoints, 99) {
		live[id] = true
	}
	return live
}

// pairsBy stably sorts a pair list by one of its columns.
type pairsBy struct {
	p   ops.Pairs
	key []xmltree.NodeID
}

func (x pairsBy) Len() int           { return len(x.key) }
func (x pairsBy) Less(i, j int) bool { return x.key[i] < x.key[j] }
func (x pairsBy) Swap(i, j int) {
	x.p.C[i], x.p.C[j] = x.p.C[j], x.p.C[i]
	x.p.S[i], x.p.S[j] = x.p.S[j], x.p.S[i]
}

// TestMergeMatchesOracleRandomized runs generated cases through scratch
// recycled from case to case, as Runners recycle it from query to query, so
// state left behind by one merge cannot leak into the next.
func TestMergeMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 20000; i++ {
		data := make([]byte, rng.Intn(400))
		rng.Read(data)
		ms := scratchPool.Get()
		if err := checkMergeCase(ms, data); err != nil {
			t.Fatalf("case %d (%x): %v", i, data, err)
		}
		ms.recycle()
	}
}

// FuzzMergeMatchesOracle runs each input twice through recycled scratch, the
// second time after a case of another size has dirtied it.
func FuzzMergeMatchesOracle(f *testing.F) {
	f.Add([]byte{}) // the rest of the seed corpus is testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range [][]byte{data, dirtyCase(data), data} {
			ms := scratchPool.Get()
			if err := checkMergeCase(ms, d); err != nil {
				t.Fatalf("%x: %v", d, err)
			}
			ms.recycle()
		}
	})
}

// TestRunnerMergeMatchesOracle drives Runner.merge with real operator output
// — staircase steps in both directions, hash and merge joins across two
// documents, full and cut off by an ExecLimit — in random edge orders, and
// checks every intermediate relation and refreshed T(v) against the oracle.
// Step and hash-join pairs go into Runner.pairBuffer as in ExecEdge — a
// fresh buffer for a component's first edge, which its relation must take
// over, the Runner's scratch otherwise — and every relation a round produced
// must still equal its oracle after each later edge: relations are
// read-only, and the scratch the next edge overwrites must not be one of
// their columns.
func TestRunnerMergeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		f := newFixture(t)
		r := NewRunner(f.env, f.g)
		limit := rng.Intn(4)             // 0 = unlimited
		var earlier [][2]*table.Relation // got, want
		for _, id := range rng.Perm(len(f.g.Edges)) {
			e := f.g.Edges[id]
			ctxV, innerV := e.From, e.To
			if rng.Intn(2) == 1 {
				ctxV, innerV = innerV, ctxV
			}
			ctxT, err := r.EnsureTable(ctxV)
			if err != nil {
				t.Fatal(err)
			}
			innerT, err := r.EnsureTable(innerV)
			if err != nil {
				t.Fatal(err)
			}
			var pairs ops.Pairs
			first := r.comps[ctxV] == nil && r.comps[innerV] == nil
			if buf := r.pairBuffer(id, ctxV, innerV, 0); e.Kind == joingraph.StepEdge {
				axis := e.Axis
				if ctxV == e.To {
					axis = axis.Reverse()
				}
				ops.StepPairsInto(buf, nil, ctxT.Doc, axis, ctxT.Nodes, innerT.Nodes, limit)
				pairs = *buf
			} else if rng.Intn(2) == 0 {
				ops.HashJoinPairsInto(buf, nil, ctxT.Doc, ctxT.Nodes, innerT.Doc, innerT.Nodes, limit)
				pairs = *buf
			} else {
				pairs, _ = ops.MergeJoinPairs(metrics.NewRecorder(), ctxT.Doc, ctxT.Nodes, innerT.Doc, innerT.Nodes, limit)
			}
			for _, rel := range earlier {
				if err := sameRelation(rel[0], rel[1]); err != nil {
					t.Fatalf("round %d edge %d: an earlier relation changed: %v", round, id, err)
				}
			}
			var want *table.Relation
			switch ca, cb := r.comps[ctxV], r.comps[innerV]; {
			case ca == nil && cb == nil:
				want = table.NewRelation([]int{ctxV, innerV}, []*xmltree.Document{ctxT.Doc, innerT.Doc})
				for i := range pairs.C {
					want.AppendRow([]xmltree.NodeID{pairs.C[i], pairs.S[i]})
				}
			case cb == nil:
				want = oracleExtend(ca.rel, ctxV, pairs, innerV, innerT.Doc)
			case ca == nil:
				want = oracleExtend(cb.rel, innerV, pairs.Swapped(), ctxV, ctxT.Doc)
			case ca == cb:
				want = oracleFilter(ca.rel, ctxV, innerV, pairs)
			default:
				want = oracleJoinOn(ca.rel, ctxV, cb.rel, innerV, pairs)
			}
			if _, err := r.merge(ctxV, innerV, pairs); err != nil {
				t.Fatal(err)
			}
			got := r.Relation(ctxV)
			if err := sameRelation(got, want); err != nil {
				t.Fatalf("round %d edge %d (limit %d): %v", round, id, limit, err)
			}
			if first && pairs.Len() > 0 && (&got.Column(ctxV)[0] != &pairs.C[0] || &got.Column(innerV)[0] != &pairs.S[0]) {
				t.Fatalf("round %d edge %d: the first edge's relation copied its own pairs", round, id)
			}
			earlier = append(earlier, [2]*table.Relation{got, want})
			for _, v := range got.ColumnIDs() {
				nodes := slices.Clone(got.Column(v))
				slices.Sort(nodes)
				if tv := r.Table(v); !slices.Equal(tv.Nodes, slices.Compact(nodes)) || tv.Doc != got.Doc(v) {
					t.Fatalf("round %d edge %d: T(%d) = %v, want the distinct nodes of its column", round, id, v, tv.Nodes)
				}
			}
		}
	}
}
