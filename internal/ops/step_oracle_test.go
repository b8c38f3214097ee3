package ops

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/xmltree"
)

// stepOracle is StepPairs specified by NestedLoopStepPairs, one context at a
// time: the pairs, their order — C-major, a context's partners in document
// order, the ancestor axes nearest first — and the cut-off's consumed count.
func stepOracle(d *xmltree.Document, axis Axis, C, S []xmltree.NodeID, limit int) (Pairs, int) {
	var out Pairs
	consumed := 0
	for _, c := range C {
		run := NestedLoopStepPairs(nil, d, axis, []xmltree.NodeID{c}, S)
		if axis == AxisAnc || axis == AxisAncSelf {
			slices.Reverse(run.S)
		}
		out.C, out.S = append(out.C, run.C...), append(out.S, run.S...)
		consumed++
		if limit > 0 && out.Len() >= limit {
			break
		}
	}
	return out, consumed
}

// stepBytes feeds a step case from raw bytes; it yields 0 once exhausted.
type stepBytes struct {
	b []byte
	i int
}

func (s *stepBytes) next(mod int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i])
	s.i++
	return v % mod
}

// decodeStepCase decodes one case: an axis, a cut-off (0 = none), the order
// the context arrives in, a small document built action by action (open an
// element with some attributes, add a text, close an element) and, per node,
// whether it is in C and in S. C and S come out sorted and duplicate-free,
// the vertex-table form; the order byte then keeps C so (what edge execution
// passes), reverses it, or runs it twice over (what a chain-sampling input
// can look like).
func decodeStepCase(data []byte) (d *xmltree.Document, axis Axis, C, S []xmltree.NodeID, limit int) {
	s := &stepBytes{b: data}
	axis = Axis(s.next(int(AxisAttrOwner) + 1))
	limit = s.next(12)
	order := s.next(3)
	names := []string{"a", "b", "c"}
	b := xmltree.NewBuilder("step.xml")
	b.StartElem("root")
	for n := s.next(256); n > 0; n-- {
		switch s.next(4) {
		case 0:
			if b.Depth() < 8 {
				b.StartElem(names[s.next(3)])
				for k := s.next(4) - 1; k >= 0; k-- {
					b.Attr("k"+names[k], names[s.next(3)])
				}
			}
		case 1, 2:
			b.Text(names[s.next(3)])
		case 3:
			if b.Depth() > 1 {
				b.EndElem()
			}
		}
	}
	for b.Depth() > 0 {
		b.EndElem()
	}
	d = b.MustBuild()
	for i := 0; i < d.Len(); i++ {
		in := s.next(4)
		if in&1 != 0 {
			C = append(C, xmltree.NodeID(i))
		}
		if in&2 != 0 {
			S = append(S, xmltree.NodeID(i))
		}
	}
	switch order {
	case 1:
		slices.Reverse(C)
	case 2:
		C = append(C, C...)
	}
	return d, axis, C, S, limit
}

// checkStepCase compares StepPairs, and StepPairsInto over a dirty reused
// buffer, with the oracle on one decoded case.
func checkStepCase(data []byte, reused *Pairs) error {
	d, axis, C, S, limit := decodeStepCase(data)
	want, wantN := stepOracle(d, axis, C, S, limit)
	got, gotN := StepPairs(nil, d, axis, C, S, limit)
	if !slices.Equal(got.C, want.C) || !slices.Equal(got.S, want.S) || gotN != wantN {
		return fmt.Errorf("%v limit %d over %d nodes, C=%v S=%v: pairs C=%v S=%v consumed %d, want C=%v S=%v consumed %d",
			axis, limit, d.Len(), C, S, got.C, got.S, gotN, want.C, want.S, wantN)
	}
	if n := StepPairsInto(reused, nil, d, axis, C, S, limit); !slices.Equal(reused.C, want.C) || !slices.Equal(reused.S, want.S) || n != wantN {
		return fmt.Errorf("%v limit %d: StepPairsInto over a reused buffer gave C=%v S=%v consumed %d, want C=%v S=%v consumed %d",
			axis, limit, reused.C, reused.S, n, want.C, want.S, wantN)
	}
	return nil
}

// TestStepPairsMatchesNestedLoopRandomized runs generated cases through one
// reused buffer, so nothing one step leaves in it can leak into the next.
func TestStepPairsMatchesNestedLoopRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var reused Pairs
	for i := 0; i < 3000; i++ {
		data := make([]byte, rng.Intn(700))
		rng.Read(data)
		if err := checkStepCase(data, &reused); err != nil {
			t.Fatalf("case %d (%x): %v", i, data, err)
		}
	}
}

func FuzzStepPairsMatchesNestedLoop(f *testing.F) {
	f.Add([]byte{}) // the rest of the seed corpus is testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		reused := Pairs{C: []xmltree.NodeID{7, 7, 7}, S: []xmltree.NodeID{9, 9, 9}}
		if err := checkStepCase(data, &reused); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGallopGE checks the galloping search against a linear scan from every
// start position.
func TestGallopGE(t *testing.T) {
	s := []xmltree.NodeID{1, 2, 4, 8, 9, 10, 15, 16, 23, 42, 43, 60}
	for from := 0; from <= len(s); from++ {
		lo := xmltree.NodeID(0)
		if from > 0 {
			lo = s[from-1] + 1
		}
		for pre := lo; pre <= 64; pre++ {
			want := from
			for want < len(s) && s[want] < pre {
				want++
			}
			if got := gallopGE(s, from, pre); got != want {
				t.Fatalf("gallopGE(from %d, %d) = %d, want %d", from, pre, got, want)
			}
		}
	}
}
