package ops

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/xmltree"
)

var allAxes = []Axis{
	AxisChild, AxisDesc, AxisDescSelf, AxisParent, AxisAnc, AxisAncSelf,
	AxisFoll, AxisPrec, AxisFollSibling, AxisPrecSibling, AxisSelf,
	AxisAttribute, AxisAttrOwner,
}

// randomDoc builds a random document with elements, texts and attributes.
func randomDoc(rng *rand.Rand, maxNodes int) *xmltree.Document {
	b := xmltree.NewBuilder("rand.xml")
	names := []string{"a", "b", "c"}
	vals := []string{"1", "2", "3", "7"}
	nodes := 1
	var rec func(depth int)
	rec = func(depth int) {
		for nodes < maxNodes && rng.Intn(4) != 0 {
			if rng.Intn(2) == 0 && depth < 7 {
				b.StartElem(names[rng.Intn(len(names))])
				nodes++
				for rng.Intn(3) == 0 {
					b.Attr("k"+names[rng.Intn(len(names))], vals[rng.Intn(len(vals))])
					nodes++
				}
				rec(depth + 1)
				b.EndElem()
			} else {
				b.Text(vals[rng.Intn(len(vals))])
				nodes++
			}
		}
	}
	b.StartElem("root")
	rec(0)
	b.EndElem()
	return b.MustBuild()
}

// randomSubset picks a sorted duplicate-free random subset of the node ids.
func randomSubset(rng *rand.Rand, d *xmltree.Document, p float64) []xmltree.NodeID {
	var out []xmltree.NodeID
	for i := 0; i < d.Len(); i++ {
		if rng.Float64() < p {
			out = append(out, xmltree.NodeID(i))
		}
	}
	return out
}

func pairsEqual(a, b Pairs) bool {
	if a.Len() != b.Len() {
		return false
	}
	key := func(p Pairs, i int) [2]xmltree.NodeID { return [2]xmltree.NodeID{p.C[i], p.S[i]} }
	as := make([][2]xmltree.NodeID, a.Len())
	bs := make([][2]xmltree.NodeID, b.Len())
	for i := 0; i < a.Len(); i++ {
		as[i], bs[i] = key(a, i), key(b, i)
	}
	less := func(s [][2]xmltree.NodeID) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i][0] != s[j][0] {
				return s[i][0] < s[j][0]
			}
			return s[i][1] < s[j][1]
		}
	}
	sort.Slice(as, less(as))
	sort.Slice(bs, less(bs))
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestStepPairsMatchesSpec cross-checks the optimized staircase pair join
// against the nested-loop evaluation of AxisHolds on random inputs, for
// every axis.
func TestStepPairsMatchesSpec(t *testing.T) {
	rec := metrics.NewRecorder()
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randomDoc(rng, 80)
		C := randomSubset(rng, d, 0.4)
		S := randomSubset(rng, d, 0.5)
		for _, ax := range allAxes {
			got, consumed := StepPairs(rec, d, ax, C, S, 0)
			want := NestedLoopStepPairs(rec, d, ax, C, S)
			if !pairsEqual(got, want) {
				t.Fatalf("seed %d axis %v: StepPairs %d pairs, spec %d pairs", seed, ax, got.Len(), want.Len())
			}
			if consumed != len(C) {
				t.Fatalf("seed %d axis %v: consumed %d, want %d (no limit)", seed, ax, consumed, len(C))
			}
		}
	}
}

// TestStaircaseSemiMatchesSpec checks the semijoin form yields exactly the
// distinct S side of the pair join, in document order.
func TestStaircaseSemiMatchesSpec(t *testing.T) {
	rec := metrics.NewRecorder()
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randomDoc(rng, 90)
		C := randomSubset(rng, d, 0.3)
		S := randomSubset(rng, d, 0.5)
		for _, ax := range allAxes {
			got := StaircaseSemi(rec, d, ax, C, S)
			want := NestedLoopStepPairs(rec, d, ax, C, S).S
			slices.Sort(want)
			want = slices.Compact(want)
			if len(got) != len(want) {
				t.Fatalf("seed %d axis %v: semi %d nodes, want %d", seed, ax, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d axis %v: semi[%d]=%d, want %d", seed, ax, i, got[i], want[i])
				}
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("seed %d axis %v: semijoin output not in document order", seed, ax)
			}
		}
	}
}

func TestAxisReverseInvolution(t *testing.T) {
	for _, ax := range allAxes {
		if ax.Reverse().Reverse() != ax {
			t.Errorf("Reverse(Reverse(%v)) = %v", ax, ax.Reverse().Reverse())
		}
	}
}

// TestAxisReverseSemantics: s on axis(c) ⇔ c on reverse-axis(s).
func TestAxisReverseSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randomDoc(rng, 70)
	for _, ax := range allAxes {
		rev := ax.Reverse()
		for c := 0; c < d.Len(); c++ {
			for s := 0; s < d.Len(); s++ {
				fwd := AxisHolds(d, ax, xmltree.NodeID(c), xmltree.NodeID(s))
				bwd := AxisHolds(d, rev, xmltree.NodeID(s), xmltree.NodeID(c))
				if fwd != bwd {
					t.Fatalf("axis %v: AxisHolds(%d,%d)=%v but reverse %v gives %v", ax, c, s, fwd, rev, bwd)
				}
			}
		}
	}
}

func TestStepPairsCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDoc(rng, 120)
	C := randomSubset(rng, d, 0.6)
	S := randomSubset(rng, d, 0.6)
	rec := metrics.NewRecorder()
	full, _ := StepPairs(rec, d, AxisDesc, C, S, 0)
	if full.Len() < 10 {
		t.Skip("random doc too small for cutoff test")
	}
	limit := full.Len() / 2
	cut, consumed := StepPairs(rec, d, AxisDesc, C, S, limit)
	if cut.Len() < limit {
		t.Errorf("cutoff output %d < limit %d", cut.Len(), limit)
	}
	if consumed >= len(C) {
		t.Errorf("cutoff consumed all %d context tuples", consumed)
	}
	// The cut result must be a prefix of the full result (C-major order).
	for i := 0; i < cut.Len(); i++ {
		if cut.C[i] != full.C[i] || cut.S[i] != full.S[i] {
			t.Fatalf("cut pair %d = (%d,%d), full = (%d,%d)", i, cut.C[i], cut.S[i], full.C[i], full.S[i])
		}
	}
	// Extrapolation should be within a factor-3 of the real size for this
	// front-biased estimate.
	est := EstimateFull(cut.Len(), consumed, len(C))
	if est < float64(full.Len())/3 || est > float64(full.Len())*3 {
		t.Errorf("EstimateFull = %.0f, real %d", est, full.Len())
	}
}

func TestEstimateFull(t *testing.T) {
	if got := EstimateFull(100, 20, 200); got != 1000 {
		t.Errorf("EstimateFull(100,20,200) = %v, want 1000", got)
	}
	if got := EstimateFull(5, 0, 10); got != 0 {
		t.Errorf("EstimateFull with 0 consumed = %v, want 0", got)
	}
}

// valueDoc builds a flat document of <v>value</v> elements whose text values
// come from the given slice.
func valueDoc(name string, values []string) (*xmltree.Document, []xmltree.NodeID) {
	b := xmltree.NewBuilder(name)
	b.StartElem("root")
	for _, v := range values {
		b.StartElem("v")
		b.Text(v)
		b.EndElem()
	}
	b.EndElem()
	d := b.MustBuild()
	var texts []xmltree.NodeID
	for i := 0; i < d.Len(); i++ {
		if d.Kind(xmltree.NodeID(i)) == xmltree.KindText {
			texts = append(texts, xmltree.NodeID(i))
		}
	}
	return d, texts
}

func TestValueJoinAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := []string{"x", "y", "z", "w"}
		mk := func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = vals[rng.Intn(len(vals))]
			}
			return out
		}
		dc, C := valueDoc("c.xml", mk(rng.Intn(25)))
		ds, S := valueDoc("s.xml", mk(rng.Intn(25)))
		ixS := index.New(ds)
		rec := metrics.NewRecorder()

		hash, hc := HashJoinPairs(rec, dc, C, ds, S, 0)
		merge, _ := MergeJoinPairs(rec, dc, C, ds, S, 0)
		nl, nc := NLIndexJoinPairs(rec, dc, C, TextProbe(ixS), 0)
		if hc != len(C) || nc != len(C) {
			return false
		}
		return pairsEqual(hash, merge) && pairsEqual(hash, nl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// hashJoinOracle is HashJoinPairs as it was with a slice per distinct value
// on the build side; the grouped build must emit the same pairs in the same
// order, consume the same outer tuples and charge the same tuple count.
func hashJoinOracle(rec *metrics.Recorder, dC *xmltree.Document, C []xmltree.NodeID, dS *xmltree.Document, S []xmltree.NodeID, limit int) (Pairs, int) {
	ht := make(map[string][]xmltree.NodeID, len(S))
	for _, s := range S {
		ht[dS.Value(s)] = append(ht[dS.Value(s)], s)
	}
	var out Pairs
	consumed := 0
	for _, c := range C {
		for _, s := range ht[dC.Value(c)] {
			out.append(c, s)
		}
		consumed++
		if limit > 0 && out.Len() >= limit {
			break
		}
	}
	rec.ChargeTuples(consumed + len(S) + out.Len())
	return out, consumed
}

func TestHashJoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 500; round++ {
		vals := make([]string, 1+rng.Intn(6))
		for i := range vals {
			vals[i] = string(rune('a' + i))
		}
		mk := func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = vals[rng.Intn(len(vals))]
			}
			return out
		}
		dc, C := valueDoc("c.xml", mk(rng.Intn(30)))
		ds, S := valueDoc("s.xml", append(mk(rng.Intn(30)), "only-in-s"))
		limit := rng.Intn(3) * rng.Intn(40)
		gotRec, wantRec := metrics.NewRecorder(), metrics.NewRecorder()
		got, gotN := HashJoinPairs(gotRec, dc, C, ds, S, limit)
		want, wantN := hashJoinOracle(wantRec, dc, C, ds, S, limit)
		if !slices.Equal(got.C, want.C) || !slices.Equal(got.S, want.S) || gotN != wantN {
			t.Fatalf("round %d limit %d: pairs C=%v S=%v consumed %d, want C=%v S=%v consumed %d",
				round, limit, got.C, got.S, gotN, want.C, want.S, wantN)
		}
		if g, w := gotRec.Total(), wantRec.Total(); g != w {
			t.Fatalf("round %d limit %d: charged %v, want %v", round, limit, g, w)
		}
	}
}

func TestValueJoinCutoff(t *testing.T) {
	many := make([]string, 50)
	for i := range many {
		many[i] = "k"
	}
	dc, C := valueDoc("c.xml", many)
	ds, S := valueDoc("s.xml", many)
	ixS := index.New(ds)
	rec := metrics.NewRecorder()
	for _, alg := range []JoinAlg{JoinHash, JoinNLIndex, JoinMerge} {
		got, consumed := ValueJoinPairs(rec, alg, dc, C, ds, S, TextProbe(ixS), 100)
		if got.Len() < 100 {
			t.Errorf("%v: cutoff output %d < 100", alg, got.Len())
		}
		if got.Len() > 150 { // one outer tuple adds 50 pairs at most
			t.Errorf("%v: cutoff output %d overshoots", alg, got.Len())
		}
		if consumed >= len(C) {
			t.Errorf("%v: consumed everything despite cutoff", alg)
		}
		est := EstimateFull(got.Len(), consumed, len(C))
		if est != 2500 {
			t.Errorf("%v: EstimateFull = %v, want 2500 (uniform hit ratio)", alg, est)
		}
	}
}

func TestAttrProbeJoin(t *testing.T) {
	// Join @ref attributes against @id attributes by value.
	d1, err := xmltree.ParseString("a.xml", `<r><e ref="1"/><e ref="2"/><e ref="2"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := xmltree.ParseString("b.xml", `<r><f id="2"/><f id="3"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	ix1 := index.New(d1)
	ix2 := index.New(d2)
	refs := ix1.AttributesByName("ref")
	rec := metrics.NewRecorder()
	pairs, _ := NLIndexJoinPairs(rec, d1, refs, AttrProbe(ix2, "id"), 0)
	if pairs.Len() != 2 {
		t.Fatalf("join produced %d pairs, want 2", pairs.Len())
	}
	for i := 0; i < pairs.Len(); i++ {
		if d1.Value(pairs.C[i]) != "2" || d2.Value(pairs.S[i]) != "2" {
			t.Errorf("pair %d joins %q with %q", i, d1.Value(pairs.C[i]), d2.Value(pairs.S[i]))
		}
	}
}

func TestSelect(t *testing.T) {
	d, texts := valueDoc("sel.xml", []string{"1", "2", "3", "4"})
	rec := metrics.NewRecorder()
	got := Select(rec, texts, func(n xmltree.NodeID) bool {
		v, _ := d.NumberValue(n)
		return v >= 3
	})
	if len(got) != 2 {
		t.Errorf("Select kept %d, want 2", len(got))
	}
	if rec.CostOf(metrics.PhaseExecute).Tuples != int64(len(texts)) {
		t.Errorf("Select charged %d tuples, want %d", rec.CostOf(metrics.PhaseExecute).Tuples, len(texts))
	}
}

func TestSwapped(t *testing.T) {
	p := Pairs{C: []xmltree.NodeID{1, 2}, S: []xmltree.NodeID{3, 4}}
	s := p.Swapped()
	if s.C[0] != 3 || s.S[0] != 1 || s.C[1] != 4 || s.S[1] != 2 {
		t.Errorf("Swapped = %+v", s)
	}
}

func TestRecorderCharging(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randomDoc(rng, 60)
	C := randomSubset(rng, d, 0.5)
	S := randomSubset(rng, d, 0.5)
	rec := metrics.NewRecorder()
	rec.SetPhase(metrics.PhaseSample)
	StepPairs(rec, d, AxisDesc, C, S, 0)
	if rec.CostOf(metrics.PhaseSample).Tuples == 0 {
		t.Errorf("sampling phase got no charge")
	}
	if rec.CostOf(metrics.PhaseExecute).Tuples != 0 {
		t.Errorf("execute phase was charged during sampling")
	}
}
