package ops

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/xmltree"
)

// valueOracle is a value join specified by NestedLoopValuePairs, one context
// at a time: the pairs, their order — C-major, a context's partners in S
// order — and the cut-off's consumed count, as StepPairs defines it.
func valueOracle(dC *xmltree.Document, C []xmltree.NodeID, dS *xmltree.Document, S []xmltree.NodeID, limit int) (Pairs, int) {
	var out Pairs
	consumed := 0
	for _, c := range C {
		run := NestedLoopValuePairs(nil, dC, []xmltree.NodeID{c}, dS, S)
		out.C, out.S = append(out.C, run.C...), append(out.S, run.S...)
		consumed++
		if limit > 0 && out.Len() >= limit {
			break
		}
	}
	return out, consumed
}

// byValue returns nodes stably sorted by their own value: the order in which
// MergeJoinPairs walks its inputs.
func byValue(d *xmltree.Document, nodes []xmltree.NodeID) []xmltree.NodeID {
	out := slices.Clone(nodes)
	slices.SortStableFunc(out, func(a, b xmltree.NodeID) int { return cmp.Compare(d.Value(a), d.Value(b)) })
	return out
}

// valueCase is one decoded value-join case.
type valueCase struct {
	dC, dS *xmltree.Document
	C, S   []xmltree.NodeID // sorted, duplicate-free
	R      []xmltree.NodeID // a sorted subset of dS's text nodes: a restriction
	limit  int
}

// decodeValueDoc builds a small document action by action, as
// decodeStepCase does, from few distinct values; an attribute may carry ""
// so that element nodes (whose value is "" without a dictionary id) have
// partners.
func decodeValueDoc(s *stepBytes, name string) *xmltree.Document {
	vals := []string{"x", "y", "z", ""}
	b := xmltree.NewBuilder(name)
	b.StartElem("root")
	for n := s.next(128); n > 0; n-- {
		switch s.next(4) {
		case 0:
			if b.Depth() < 6 {
				b.StartElem("e")
				for k := s.next(3) - 1; k >= 0; k-- {
					b.Attr([]string{"ka", "kb"}[k], vals[s.next(4)])
				}
			}
		case 1, 2:
			b.Text(vals[s.next(3)])
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

// decodeValueCase decodes a cut-off 0–11, one document (C and S share it) or
// two, and per node whether it is in C, in S and in the restriction R.
func decodeValueCase(data []byte) valueCase {
	s := &stepBytes{b: data}
	var vc valueCase
	two := s.next(2) == 1
	vc.limit = s.next(12)
	vc.dS = decodeValueDoc(s, "s.xml")
	vc.dC = vc.dS
	if two {
		vc.dC = decodeValueDoc(s, "c.xml")
	}
	for i := 0; i < vc.dS.Len(); i++ {
		in := s.next(8)
		n := xmltree.NodeID(i)
		if in&1 != 0 && !two {
			vc.C = append(vc.C, n)
		}
		if in&2 != 0 {
			vc.S = append(vc.S, n)
		}
		if in&4 != 0 && vc.dS.Kind(n) == xmltree.KindText {
			vc.R = append(vc.R, n)
		}
	}
	if two {
		for i := 0; i < vc.dC.Len(); i++ {
			if s.next(2) == 1 {
				vc.C = append(vc.C, xmltree.NodeID(i))
			}
		}
	}
	return vc
}

// samePairs compares a join's output and charge with the oracle's.
func samePairs(name string, got Pairs, gotN int, want Pairs, wantN int) error {
	if !slices.Equal(got.C, want.C) || !slices.Equal(got.S, want.S) || gotN != wantN {
		return fmt.Errorf("%s: pairs C=%v S=%v consumed %d, want C=%v S=%v consumed %d",
			name, got.C, got.S, gotN, want.C, want.S, wantN)
	}
	return nil
}

// sameCharge checks that rec was charged tuples tuples.
func sameCharge(name string, rec *metrics.Recorder, tuples int) error {
	if got := rec.Total().Tuples; got != int64(tuples) {
		return fmt.Errorf("%s: charged %d tuples, want %d", name, got, tuples)
	}
	return nil
}

// checkValueCase holds every value join of one decoded case to the nested
// loop: the id-keyed hash join (within one document or across two), the
// index joins unrestricted, restricted and over the reused buffer, the hash
// join that probes the index as its build side, and the merge join, whose
// cut-off stops after the outer tuple that reached it, mid-group or not.
func checkValueCase(data []byte, reused *Pairs) error {
	vc := decodeValueCase(data)
	dC, C, dS, S, limit := vc.dC, vc.C, vc.dS, vc.S, vc.limit
	ix := index.New(dS)
	texts := ix.Texts()

	want, wantN := valueOracle(dC, C, dS, S, limit)
	rec := metrics.NewRecorder()
	got, gotN := HashJoinPairs(rec, dC, C, dS, S, limit)
	if err := samePairs("hash", got, gotN, want, wantN); err != nil {
		return err
	}
	if err := sameCharge("hash", rec, gotN+len(S)+got.Len()); err != nil {
		return err
	}
	gotN = HashJoinPairsInto(reused, nil, dC, C, dS, S, limit)
	if err := samePairs("hash into a reused buffer", *reused, gotN, want, wantN); err != nil {
		return err
	}

	want, wantN = valueOracle(dC, C, dS, texts, limit)
	rec = metrics.NewRecorder()
	got, gotN = NLIndexJoinPairs(rec, dC, C, TextProbe(ix), limit)
	if err := samePairs("nl-index", got, gotN, want, wantN); err != nil {
		return err
	}
	if err := sameCharge("nl-index", rec, gotN+got.Len()); err != nil {
		return err
	}
	gotN = NLIndexJoinPairsInto(reused, nil, dC, C, TextProbe(ix), limit)
	if err := samePairs("nl-index into a reused buffer", *reused, gotN, want, wantN); err != nil {
		return err
	}

	// The index as the build side: HashJoinPairs over the whole extent.
	hashRec, rec := metrics.NewRecorder(), metrics.NewRecorder()
	want, wantN = HashJoinPairs(hashRec, dC, C, dS, texts, limit)
	gotN = IndexHashJoinPairsInto(reused, rec, dC, C, TextProbe(ix), len(texts), limit)
	if err := samePairs("index hash", *reused, gotN, want, wantN); err != nil {
		return err
	}
	if g, w := rec.Total(), hashRec.Total(); g != w {
		return fmt.Errorf("index hash: charged %d tuples, hash join %d", g.Tuples, w.Tuples)
	}

	attrs := ix.AttributesByName("ka")
	want, wantN = valueOracle(dC, C, dS, attrs, limit)
	gotN = NLIndexJoinPairsInto(reused, nil, dC, C, AttrProbe(ix, "ka"), limit)
	if err := samePairs("nl-index on @ka", *reused, gotN, want, wantN); err != nil {
		return err
	}

	want, wantN = valueOracle(dC, C, dS, vc.R, limit)
	rec = metrics.NewRecorder()
	gotN = RestrictedNLIndexJoinPairsInto(reused, rec, dC, C, TextProbe(ix), vc.R, limit)
	if err := samePairs(fmt.Sprintf("nl-index restricted to %v", vc.R), *reused, gotN, want, wantN); err != nil {
		return err
	}
	if err := sameCharge("restricted nl-index", rec, gotN+reused.Len()); err != nil {
		return err
	}

	want, wantN = valueOracle(dC, byValue(dC, C), dS, byValue(dS, S), limit)
	got, gotN = MergeJoinPairs(nil, dC, C, dS, S, limit)
	return samePairs("merge", got, gotN, want, wantN)
}

// TestValueJoinMatchesNestedLoopRandomized runs generated cases through one
// reused output buffer, and the hash joins through scratch recycled from
// join to join, so nothing one join leaves behind can leak into the next.
func TestValueJoinMatchesNestedLoopRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var reused Pairs
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(600))
		rng.Read(data)
		if err := checkValueCase(data, &reused); err != nil {
			t.Fatalf("case %d (%x): %v", i, data, err)
		}
	}
}

// FuzzValueJoinMatchesNestedLoop runs each input twice, the second time
// after a case of another size has dirtied the hash join's recycled scratch.
func FuzzValueJoinMatchesNestedLoop(f *testing.F) {
	f.Add([]byte{}) // the rest of the seed corpus is testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		dirty := make([]byte, 1+(len(data)+300)%900)
		rand.New(rand.NewSource(int64(len(data)))).Read(dirty)
		for _, d := range [][]byte{data, dirty, data} {
			reused := Pairs{C: []xmltree.NodeID{7, 7, 7}, S: []xmltree.NodeID{9, 9, 9}}
			if err := checkValueCase(d, &reused); err != nil {
				t.Fatalf("%x: %v", d, err)
			}
		}
	})
}
