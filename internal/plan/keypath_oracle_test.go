package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/table"
	"repro/internal/xmltree"
)

// The tail's key paths read child and descendant element steps from the
// element postings of the document's index (walkStep.postings); without an
// index the walker hops from child to child, or scans the subtree, as it
// always did. The hop is the oracle: over a plain index and over an ingest
// overlay (index.NewDelta), the postings walk must reach the same node sets,
// fold the same aggregate state and select the same ordered rows and keys.

// keyPathBytes feeds a key-path case from raw bytes; it yields 0 once
// exhausted.
type keyPathBytes struct {
	b []byte
	i int
}

func (s *keyPathBytes) next(mod int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i])
	s.i++
	return v % mod
}

// buildTree builds a small document (or an appended fragment) action by
// action: open an element with or without attributes, add a text, close an
// element. Texts and attribute values are mostly numeric.
func (s *keyPathBytes) buildTree(name string, actions int) *xmltree.Document {
	names := []string{"a", "b", "c"}
	values := []string{"1", "2.5", "7", "x"}
	b := xmltree.NewBuilder(name)
	b.StartElem(names[s.next(3)])
	for n := s.next(actions); n > 0; n-- {
		switch s.next(4) {
		case 0:
			if b.Depth() < 7 {
				b.StartElem(names[s.next(3)])
				for k := s.next(3) - 1; k >= 0; k-- {
					b.Attr("k"+names[k], values[s.next(4)])
				}
			}
		case 1, 2:
			b.Text(values[s.next(4)])
		case 3:
			if b.Depth() > 1 {
				b.EndElem()
			}
		}
	}
	for b.Depth() > 0 {
		b.EndElem()
	}
	return b.MustBuild()
}

// keyPathCase is one decoded case: a document, its base when the document
// grew by appended fragments (nil otherwise), a key path and the rows it is
// evaluated from.
type keyPathCase struct {
	doc, base *xmltree.Document
	path      []KeyStep
	rows      []xmltree.NodeID
	k         int // sortByKeys' row budget
}

// decodeKeyPathCase decodes a base document, zero to two appended fragments,
// a one- to three-step path — child or descendant; element, attribute or
// text; absent names included — and, per node, whether it is a row, once or
// twice in a row: rows come in document order, nested and repeated.
func decodeKeyPathCase(data []byte) keyPathCase {
	s := &keyPathBytes{b: data}
	var kc keyPathCase
	kc.doc = s.buildTree("kp.xml", 64)
	if frags := s.next(3); frags > 0 {
		kc.base = kc.doc
		app := xmltree.NewAppender(kc.base)
		for ; frags > 0; frags-- {
			if err := app.Append(s.buildTree("frag", 24)); err != nil {
				panic(err)
			}
		}
		kc.doc = app.Snapshot()
	}
	for n := 1 + s.next(3); n > 0; n-- {
		st := KeyStep{Desc: s.next(2) == 1}
		switch s.next(3) {
		case 0:
			st.Name = []string{"a", "b", "c", "zz"}[s.next(4)]
		case 1:
			st.Attr, st.Name = true, []string{"ka", "kb", "zz"}[s.next(3)]
		case 2:
			st.Text = true
		}
		kc.path = append(kc.path, st)
	}
	kc.k = s.next(8)
	for i := 0; i < kc.doc.Len(); i++ {
		for range s.next(4) / 2 {
			kc.rows = append(kc.rows, xmltree.NodeID(i))
		}
	}
	return kc
}

// checkKeyPathCase compares the postings walk over a plain index and over an
// overlay (when the case has a base) with the hop on one decoded case.
func checkKeyPathCase(data []byte) error {
	kc := decodeKeyPathCase(data)
	d := kc.doc
	indices := []*index.Index{index.New(d)}
	if kc.base != nil {
		indices = append(indices, index.NewDelta(index.New(kc.base), d))
	}
	rel := table.FromColumns([]int{0}, []*xmltree.Document{d}, [][]xmltree.NodeID{kc.rows})
	agg := &AggSpec{Kind: AggSum, Vertex: 0, Path: kc.path}
	order := &OrderSpec{Vertex: 0, Path: kc.path, Desc: len(kc.rows)%2 == 1}
	for _, ix := range indices {
		level := "plain index"
		if ix.Base() != nil {
			level = "overlay"
		}
		where := fmt.Sprintf("%s, path %v over %d nodes", level, kc.path, d.Len())
		hop, walk := newPathWalker(d, nil, kc.path), newPathWalker(d, ix, kc.path)
		for _, n := range kc.rows {
			want := slices.Clone(hop.matchNodes(n))
			if got := walk.matchNodes(n); !slices.Equal(got, want) {
				return fmt.Errorf("%s: row %d reaches %v, hopping %v", where, n, got, want)
			}
		}
		cat := NewCatalog()
		cat.AddIndexed(ix)
		wantSt, wantErr := FoldAgg(rel, agg)
		gotSt, gotErr := FoldAggIn(cat, rel, agg)
		switch {
		case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
			return fmt.Errorf("%s: FoldAgg error %v, hopping %v", where, gotErr, wantErr)
		case gotSt != nil && (gotSt.Count != wantSt.Count || gotSt.Min != wantSt.Min ||
			gotSt.Max != wantSt.Max || gotSt.Sum() != wantSt.Sum()):
			return fmt.Errorf("%s: FoldAgg state %+v sum %g, hopping %+v sum %g", where, gotSt, gotSt.Sum(), wantSt, wantSt.Sum())
		}
		wantRel, wantKeys, _ := sortByKeys(nil, rel, order, nil, kc.k)
		gotRel, gotKeys, _ := sortByKeys(cat, rel, order, nil, kc.k)
		if !slices.Equal(gotRel.Column(0), wantRel.Column(0)) || !slices.Equal(gotKeys, wantKeys) {
			return fmt.Errorf("%s: sortByKeys rows %v keys %v, hopping %v keys %v",
				where, gotRel.Column(0), gotKeys, wantRel.Column(0), wantKeys)
		}
	}
	return nil
}

func TestKeyPathMatchesHopRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 3000; i++ {
		data := make([]byte, rng.Intn(600))
		rng.Read(data)
		if err := checkKeyPathCase(data); err != nil {
			t.Fatalf("case %d (%x): %v", i, data, err)
		}
	}
}

func FuzzKeyPathMatchesHop(f *testing.F) {
	f.Add([]byte{}) // the rest of the seed corpus is testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkKeyPathCase(data); err != nil {
			t.Fatal(err)
		}
	})
}
