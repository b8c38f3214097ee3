package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/plan"
)

// The Sec 6 future-work extensions must all compute the same results as
// plain ROX; these tests pin that plus their specific effects.

func extensionFixture(t *testing.T) *dblpFixture {
	return newDBLPFixture(t, [][]string{
		append(seq("x", 120), "ann", "bob", "cid"),
		append(seq("y", 90), "ann", "bob"),
		append(seq("z", 60), "ann", "cid"),
		append(seq("w", 30), "ann"),
	}, true)
}

func TestMaterializeLimitSameResult(t *testing.T) {
	base := extensionFixture(t)
	want, _, err := Run(base.env, base.g, base.tail, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	f := extensionFixture(t)
	opts := DefaultOptions()
	opts.MaterializeLimit = 50
	got, res, err := Run(f.env, f.g, f.tail, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Errorf("sampled-search rows = %d, full ROX = %d", got.NumRows(), want.NumRows())
	}
	// The plan must cover the graph (it is re-executed on full data).
	if err := res.Plan.Covers(f.g); err != nil {
		t.Errorf("sampled-search plan incomplete: %v", err)
	}
	// All optimization-loop work is charged as sampling.
	if res.SampleCost.Tuples == 0 || res.ExecCost.Tuples == 0 {
		t.Errorf("cost split missing: sample=%d exec=%d", res.SampleCost.Tuples, res.ExecCost.Tuples)
	}
}

func TestMaterializeLimitBoundsOptimizationIntermediates(t *testing.T) {
	// With a tight limit, the optimization loop's materialized rows stay
	// near limit×edges even when the real data is much larger.
	f := extensionFixture(t)
	opts := DefaultOptions()
	opts.MaterializeLimit = 20
	o, err := New(f.env, f.g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.Execute(f.tail); err != nil {
		t.Fatal(err)
	}
	// The search runner's cumulative intermediates reflect the truncation.
	if o.runner.CumulativeIntermediate > int64(20*len(f.g.Edges)*3) {
		t.Errorf("search intermediates = %d, expected bounded by the limit", o.runner.CumulativeIntermediate)
	}
}

func TestEagerProjectSameResult(t *testing.T) {
	base := extensionFixture(t)
	want, wantRes, err := Run(base.env, base.g, base.tail, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := extensionFixture(t)
	opts := DefaultOptions()
	opts.EagerProject = true
	got, gotRes, err := Run(f.env, f.g, f.tail, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("eager-project rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	for i := 0; i < want.NumRows(); i++ {
		if got.Column(f.author[0])[i] != want.Column(base.author[0])[i] {
			t.Fatalf("row %d differs", i)
		}
	}
	_ = wantRes
	_ = gotRes
}

func TestEagerProjectShrinksWideIntermediates(t *testing.T) {
	// A chain where early vertices become dead weight: with eager
	// projection the relation loses their columns as soon as their edges
	// are done. Use a static-order runner to make the comparison exact.
	mk := func(eager bool) int64 {
		f := extensionFixture(t)
		r := plan.NewRunner(f.env, f.g)
		if eager {
			r.EnableProjectReduce(f.tail.Required(f.g))
		}
		for _, e := range f.g.Edges {
			if plan.RedundantEdges(f.g)[e.ID] || e.Derived {
				continue
			}
			if _, err := r.ExecEdge(e, false, ops.JoinHash); err != nil {
				t.Fatal(err)
			}
		}
		rel, err := r.FinalRelation(f.tail.Required(f.g))
		if err != nil {
			t.Fatal(err)
		}
		return int64(rel.NumCols())
	}
	plain := mk(false)
	eager := mk(true)
	if eager > plain {
		t.Errorf("eager projection widened the final relation: %d vs %d columns", eager, plain)
	}
	if eager >= plain {
		t.Logf("note: eager=%d plain=%d (no column dropped on this shape)", eager, plain)
	}
}

func TestTimeWeightsSameResult(t *testing.T) {
	f := extensionFixture(t)
	opts := DefaultOptions()
	opts.TimeWeights = true
	rel, res, err := Run(f.env, f.g, f.tail, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 { // only "ann" is in all four documents
		t.Errorf("rows = %d, want 1", rel.NumRows())
	}
	if err := res.Plan.Covers(f.g); err != nil {
		t.Errorf("time-weighted plan incomplete: %v", err)
	}
}

func TestExtensionsCompose(t *testing.T) {
	f := extensionFixture(t)
	opts := DefaultOptions()
	opts.MaterializeLimit = 40
	opts.EagerProject = true
	rel, _, err := Run(f.env, f.g, f.tail, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 {
		t.Errorf("rows = %d, want 1", rel.NumRows())
	}
}

func TestBeamWidthBoundsPaths(t *testing.T) {
	f := extensionFixture(t)
	opts := DefaultOptions()
	opts.BeamWidth = 2
	_, res, err := Run(f.env, f.g, f.tail, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range res.Trace.Explorations {
		for ri, r := range ex.Rounds {
			if len(r.Paths) > 2 {
				t.Errorf("round %d has %d paths, beam width 2", ri, len(r.Paths))
			}
		}
	}
	if res.ResultRows != 1 {
		t.Errorf("rows = %d, want 1", res.ResultRows)
	}
}

// TestSampledSearchCheaperOnLargeData: with larger documents, the
// MaterializeLimit search materializes far less than full ROX during
// optimization (the scalability motivation of Sec 6).
func TestSampledSearchCheaperOnLargeData(t *testing.T) {
	big := func() *dblpFixture {
		return newDBLPFixture(t, [][]string{
			append(seq("p", 800), "ann"),
			append(seq("q", 700), "ann"),
			append(seq("p", 600), "ann"), // overlaps doc0 heavily
			append(seq("r", 100), "ann"),
		}, true)
	}
	f1 := big()
	_, full, err := Run(f1.env, f1.g, f1.tail, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f2 := big()
	opts := DefaultOptions()
	opts.MaterializeLimit = 60
	_, sampled, err := Run(f2.env, f2.g, f2.tail, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.ResultRows != full.ResultRows {
		t.Fatalf("result mismatch: %d vs %d", sampled.ResultRows, full.ResultRows)
	}
	// Both end up executing the final plan on full data; the sampled
	// search must not be dramatically more expensive overall.
	fullTotal := full.SampleCost.Tuples + full.ExecCost.Tuples
	samTotal := sampled.SampleCost.Tuples + sampled.ExecCost.Tuples
	if samTotal > fullTotal*3 {
		t.Errorf("sampled search total %d far exceeds full ROX %d", samTotal, fullTotal)
	}
}

func TestExtensionOptionsString(t *testing.T) {
	// Guard against option structs silently losing fields: construct and
	// read back every extension knob.
	o := Options{Tau: 10, MaxRounds: 5, BeamWidth: 3, TimeWeights: true,
		MaterializeLimit: 7, EagerProject: true}
	if !o.TimeWeights || o.MaterializeLimit != 7 || !o.EagerProject || o.BeamWidth != 3 {
		t.Errorf("options round trip failed: %+v", o)
	}
	_ = fmt.Sprintf("%+v", o)
}

func TestRecorderPhaseRestoredAfterSampledSearch(t *testing.T) {
	f := extensionFixture(t)
	opts := DefaultOptions()
	opts.MaterializeLimit = 30
	rec := f.env.Rec
	if _, _, err := Run(f.env, f.g, f.tail, opts); err != nil {
		t.Fatal(err)
	}
	if rec.Phase() != metrics.PhaseExecute {
		t.Errorf("recorder left in phase %v", rec.Phase())
	}
}

func TestTraceWriteJSON(t *testing.T) {
	f := extensionFixture(t)
	_, res, err := Run(f.env, f.g, f.tail, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.Trace.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	events, ok := decoded["events"].([]any)
	if !ok || len(events) == 0 {
		t.Errorf("trace JSON has no events")
	}
	if _, ok := decoded["explorations"]; !ok {
		t.Errorf("trace JSON has no explorations")
	}
}
