package index

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// rangeTexts are the text values FuzzTextRangeMatchesScan draws from:
// numbers with duplicates, negatives, -0 and exponents, and texts that
// xmltree.ParseNumber refuses.
var rangeTexts = []string{
	"1", "2", "2", "-3", "-0", "0", "1e2", "15e-1", ".5", "+4", "145", "7.25", "-1E1",
	"x", "NaN", "Inf", "-Inf", "1e", "2x",
}

// rangeBounds are the bounds it probes, NaN and the infinities included.
var rangeBounds = []float64{0, math.Copysign(0, -1), 1, 2, -3, 1.5, 100, 145, math.NaN(), math.Inf(1), math.Inf(-1)}

// rangeScan is TextRange's oracle: the text nodes of ix whose value
// ParseNumber accepts and op.Compare admits, in document order.
func rangeScan(ix *Index, op RangeOp, bound float64) []xmltree.NodeID {
	var out []xmltree.NodeID
	for _, n := range ix.Texts() {
		if v, ok := xmltree.ParseNumber(ix.Doc().Value(n)); ok && op.Compare(v, bound) {
			out = append(out, n)
		}
	}
	return out
}

// rangeXML renders vals as <v> elements, each byte choosing a rangeTexts
// entry; every third one is nested one level deeper, so document order is
// not the order of the bytes.
func rangeXML(vals []byte) string {
	var sb strings.Builder
	for i, b := range vals {
		v := "<v>" + rangeTexts[int(b)%len(rangeTexts)] + "</v>"
		if i%3 == 2 {
			v = "<w>" + v + "</w>"
		}
		sb.WriteString(v)
	}
	return sb.String()
}

// FuzzTextRangeMatchesScan holds TextRange, remembered answers included, to a
// scan of the text nodes. Each byte of calls is one lookup: its low seven
// bits choose the operator and the bound (more keys than the memo has
// slots, so lookups hit, miss and evict), its high bit runs a collection
// first, which frees the answers no one holds. Every answer must equal the
// scan when it is returned and, for those the test keeps, still at the end.
// The calls run on a New index, on the same index mapped from a packed file
// (whose auxiliary is not Go heap: an answer that merely views it must not be
// remembered) and on a NewDelta overlay holding the second half of the
// values.
func FuzzTextRangeMatchesScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 3, 1, 4}, []byte{0, 0, 5, 0x80, 5, 10, 15, 20, 25, 5, 0x85, 0, 40, 41, 42, 43, 44})
	f.Add([]byte{2, 2, 1, 1, 0, 0, 11, 11, 4, 4, 12, 10, 9, 8, 7, 6, 5}, []byte{1, 6, 11, 16, 21, 26, 31, 36, 1, 6, 11, 0x81, 6, 46, 47, 48, 49})
	f.Add([]byte{13, 14, 15, 16, 17, 18}, []byte{0, 1, 2, 3, 4, 0x80})
	f.Add([]byte{}, []byte{0, 1})

	f.Fuzz(func(t *testing.T, vals, calls []byte) {
		if len(vals) > 400 || len(calls) > 64 {
			return
		}
		half := len(vals) / 2
		full, err := xmltree.ParseString("r.xml", "<r>"+rangeXML(vals)+"</r>")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.roxd")
		if err := WritePackedFile(path, New(full)); err != nil {
			t.Fatal(err)
		}
		p, err := xmltree.OpenPackedFile(path)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := FromPacked(p)
		if err != nil {
			t.Fatal(err)
		}
		base, err := xmltree.ParseString("r.xml", "<r>"+rangeXML(vals[:half])+"</r>")
		if err != nil {
			t.Fatal(err)
		}
		baseIx := New(base)
		app := xmltree.NewAppender(base)
		if half < len(vals) {
			if err := app.AppendXML("frag", rangeXML(vals[half:])); err != nil {
				t.Fatal(err)
			}
		}
		delta := NewDelta(baseIx, app.Snapshot())

		for _, ix := range []*Index{New(full), packed, delta} {
			type kept struct {
				op    RangeOp
				bound float64
				nodes []xmltree.NodeID
			}
			var keep []kept
			for i, c := range calls {
				if c&0x80 != 0 {
					runtime.GC()
				}
				k := int(c & 0x7f)
				op, bound := RangeOp(k%5), rangeBounds[k/5%len(rangeBounds)]
				got := ix.TextRange(op, bound)
				if want := rangeScan(ix, op, bound); !slices.Equal(got, want) {
					t.Fatalf("call %d: TextRange(%v, %v) = %v, scan %v", i, op, bound, got, want)
				}
				if i%2 == 0 {
					keep = append(keep, kept{op, bound, got})
				}
			}
			for _, k := range keep {
				if want := rangeScan(ix, k.op, k.bound); !slices.Equal(k.nodes, want) {
					t.Fatalf("a kept answer of TextRange(%v, %v) changed to %v, scan %v", k.op, k.bound, k.nodes, want)
				}
			}
		}
	})
}

// shuffledNumbers indexes n <v> elements holding 0 … n-1 in a scrambled
// order, so that a range answer is never a view of the value-sorted
// auxiliary but memory TextRange allocates.
func shuffledNumbers(t *testing.T, n int) *Index {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := range n {
		fmt.Fprintf(&sb, "<v>%d</v>", i*7919%n)
	}
	sb.WriteString("</r>")
	d, err := xmltree.ParseString("n.xml", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return New(d)
}

// TestTextRangeSharesItsAnswer: a repeated lookup returns the slice the first
// one built, and a NaN bound answers nil for every operator.
func TestTextRangeSharesItsAnswer(t *testing.T) {
	ix := shuffledNumbers(t, 500)
	a := ix.TextRange(Lt, 250)
	b := ix.TextRange(Lt, 250)
	if len(a) != 250 || &a[0] != &b[0] || len(b) != len(a) {
		t.Fatalf("two lookups of < 250 answered %d nodes at %p and %d at %p, want 250 at one address", len(a), &a[0], len(b), &b[0])
	}
	if c := ix.TextRange(Lt, math.Copysign(0, -1)); len(c) != 0 {
		t.Fatalf("< -0 answered %d nodes", len(c))
	}
	for op := Lt; op <= EqNum; op++ {
		if got := ix.TextRange(op, math.NaN()); got != nil {
			t.Errorf("TextRange(%v, NaN) = %d nodes, want nil", op, len(got))
		}
	}
	runtime.KeepAlive(a)
}

// TestTextRangeMemoKeepsNothingAlive: once no caller holds an answer, two
// collections leave no slot of the memo resolving — remembering answers adds
// nothing to the live heap.
func TestTextRangeMemoKeepsNothingAlive(t *testing.T) {
	ix := shuffledNumbers(t, 500)
	for _, bound := range []float64{100, 200, 300, 400, 450, 50} { // more keys than slots
		if got := ix.TextRange(Ge, bound); len(got) != 500-int(bound) {
			t.Fatalf(">= %v answered %d nodes", bound, len(got))
		}
	}
	filled := 0
	for _, s := range ix.ranges.slots {
		if s.n > 0 {
			filled++
		}
	}
	if filled != rangeSlots {
		t.Fatalf("%d of %d slots filled after six distinct lookups", filled, rangeSlots)
	}
	runtime.GC()
	runtime.GC()
	for i, s := range ix.ranges.slots {
		if s.first.Value() != nil {
			t.Errorf("slot %d (%v %v) still resolves after every caller dropped its answer and two collections", i, s.op, s.bound)
		}
	}
}
