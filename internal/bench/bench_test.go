package bench

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/planenum"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.TagDivisor = 60
	cfg.MaxCombosPerGroup = 3
	return cfg
}

func TestJoinSizesAnalytic(t *testing.T) {
	counts := [4]map[string]int{
		{"a": 2, "b": 1},
		{"a": 1, "b": 3},
		{"a": 1},
		{"a": 1, "c": 5},
	}
	// (1-2): a:2·1 + b:1·3 = 5 rows; then ⋈3 on a: 2·1=2; then ⋈4: 2.
	o := planenum.JoinOrder4{First: [2]int{0, 1}, Rest: [2]int{2, 3}}
	sizes := JoinSizes(counts, o)
	if sizes[0] != 5 || sizes[1] != 2 || sizes[2] != 2 {
		t.Errorf("sizes = %v, want [5 2 2]", sizes)
	}
	if got := CumulativeJoinSize(counts, o); got != 9 {
		t.Errorf("cumulative = %d, want 9", got)
	}
	// Bushy: (1-2)=5, (3-4)=1, cross=2.
	ob := planenum.JoinOrder4{First: [2]int{0, 1}, Rest: [2]int{2, 3}, Bushy: true}
	sizesB := JoinSizes(counts, ob)
	if sizesB[0] != 5 || sizesB[1] != 1 || sizesB[2] != 2 {
		t.Errorf("bushy sizes = %v, want [5 1 2]", sizesB)
	}
}

// TestJoinSizesMatchExecution cross-checks the analytic calculator against
// real plan execution.
func TestJoinSizesMatchExecution(t *testing.T) {
	cfg := testConfig()
	corpus := NewCorpus(cfg)
	combo := fig5Combo()
	counts := corpus.ComboCounts(combo)
	comp, fw, err := CompileCombo(combo)
	if err != nil {
		t.Fatal(err)
	}
	o := planenum.JoinOrder4{First: [2]int{0, 1}, Rest: [2]int{2, 3}}
	pl, err := fw.BuildPlan(o, planenum.SJ)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := corpus.runPlan(combo, comp, pl)
	if err != nil {
		t.Fatal(err)
	}
	// SJ executes 4 steps (each materializing author-text pairs) then the 3
	// joins; the joins' contribution must equal the analytic sizes.
	var stepRows int64
	for _, c := range counts {
		for _, k := range c {
			stepRows += int64(k)
		}
	}
	analytic := CumulativeJoinSize(counts, o)
	if got := stats.CumulativeIntermediate - stepRows; got != analytic {
		t.Errorf("executed join intermediates = %d, analytic = %d", got, analytic)
	}
}

func TestFourWayQueryCompiles(t *testing.T) {
	combo := fig5Combo()
	comp, fw, err := CompileCombo(combo)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Docs) != 4 || len(fw.Docs) != 4 {
		t.Errorf("docs = %v / %v", comp.Docs, fw.Docs)
	}
}

func TestSelectCombosRespectsCapsAndOrder(t *testing.T) {
	cfg := testConfig()
	corpus := NewCorpus(cfg)
	combos := corpus.SelectCombos()
	if len(combos) == 0 {
		t.Fatal("no combos selected")
	}
	perGroup := map[string]int{}
	lastC := map[string]float64{}
	for _, c := range combos {
		perGroup[c.Combo.Group]++
		if prev, ok := lastC[c.Combo.Group]; ok && c.Correlation < prev {
			t.Errorf("group %s not ordered by correlation", c.Combo.Group)
		}
		lastC[c.Combo.Group] = c.Correlation
		// Non-empty four-way results only.
		if fourWayEmpty(c.Counts) {
			t.Errorf("empty combo selected: %s", c.Label())
		}
	}
	for g, n := range perGroup {
		if n > cfg.MaxCombosPerGroup {
			t.Errorf("group %s has %d combos, cap %d", g, n, cfg.MaxCombosPerGroup)
		}
	}
}

// TestFig5Shape asserts the paper's Fig 5 claim on our corpus: join orders
// that leave the uncorrelated document (ICIP, doc 3) to the end process far
// larger intermediates than those starting with it, and ROX picks a
// small-intermediate order while the classical optimizer does not avoid the
// correlation.
func TestFig5Shape(t *testing.T) {
	cfg := testConfig()
	cfg.TagDivisor = 30
	corpus := NewCorpus(cfg)
	res, err := ComputeFig5(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(res.Rows))
	}
	byLabel := map[string]Fig5Row{}
	var roxRow, classicalRow *Fig5Row
	for i := range res.Rows {
		r := res.Rows[i]
		byLabel[r.Order.Label()] = r
		if r.ROX {
			roxRow = &res.Rows[i]
		}
		if r.Classical {
			classicalRow = &res.Rows[i]
		}
	}
	if classicalRow == nil {
		t.Fatal("classical order not among the 18")
	}
	// Doc 3 = ICIP (IR). Orders starting with an ICIP pair have small
	// cumulative sizes; the all-DB start (1-2) is far larger.
	early := byLabel["(1-3)-2-4"].Cumulative
	late := byLabel["(1-2)-3-4"].Cumulative
	if late <= early*3 {
		t.Errorf("correlation effect too weak: ICIP-first %d vs ICIP-last %d", early, late)
	}
	// ROX must land within a small factor of the best order.
	best := res.Rows[0].Cumulative
	for _, r := range res.Rows {
		if r.Cumulative < best {
			best = r.Cumulative
		}
	}
	if roxRow == nil {
		t.Fatalf("ROX order not among the 18 legend orders")
	}
	if roxRow.Cumulative > best*4 {
		t.Errorf("ROX picked %s with %d, best is %d", roxRow.Order.Label(), roxRow.Cumulative, best)
	}
	// The classical choice should be notably worse than the best on this
	// correlated combination (it cannot see the DB-area correlation).
	if classicalRow.Cumulative < best {
		t.Errorf("classical (%d) better than best (%d)?", classicalRow.Cumulative, best)
	}
}

// TestFig6Shape asserts the headline Fig 6 claims: ROX's pure plan is close
// to the fastest plan, the full run's overhead stays bounded, and the
// classical plan is on average slower than ROX.
func TestFig6Shape(t *testing.T) {
	cfg := testConfig()
	corpus := NewCorpus(cfg)
	rows, err := ComputeFig6(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no Fig 6 rows")
	}
	var roxPureSum, classicalSum, largestSum float64
	for _, r := range rows {
		roxPureSum += r.ROXPure
		classicalSum += r.Classical
		largestSum += r.Largest
		if r.Smallest < 0.99 {
			t.Errorf("%s: smallest class below fastest: %f", r.Info.Label(), r.Smallest)
		}
		if r.ROXFull < r.ROXPure-1e-9 {
			t.Errorf("%s: full run cheaper than pure plan", r.Info.Label())
		}
	}
	n := float64(len(rows))
	if avg := roxPureSum / n; avg > 3 {
		t.Errorf("avg ROX pure normalized cost = %.2f, expected near-optimal (≤3)", avg)
	}
	if classicalSum/n < roxPureSum/n {
		t.Errorf("classical on average beat ROX pure: %.2f vs %.2f", classicalSum/n, roxPureSum/n)
	}
	if largestSum/n < classicalSum/n {
		t.Errorf("largest class cheaper than classical on average")
	}
	sums := SummarizeFig6(rows)
	if len(sums) == 0 {
		t.Errorf("no group summaries")
	}
}

// TestFig8Shape: sampling overhead grows with τ, and 25 vs 100 differ less
// than 100 vs 400 (the paper's justification for τ=100). The experiment
// needs vertex tables larger than the biggest τ — the paper runs it at
// ×100 — so the miniature corpus is scaled up accordingly.
func TestFig8Shape(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 16
	cfg.MaxCombosPerGroup = 2
	cells, err := ComputeFig8(cfg, []int{25, 100, 400})
	if err != nil {
		t.Fatal(err)
	}
	avg := map[int]float64{}
	cnt := map[int]int{}
	for _, c := range cells {
		avg[c.Tau] += c.AvgPct
		cnt[c.Tau]++
	}
	for tau := range avg {
		avg[tau] /= float64(cnt[tau])
	}
	if !(avg[25] <= avg[100]+5 && avg[100] <= avg[400]+5) {
		t.Errorf("overhead not increasing with τ: %v", avg)
	}
	if avg[400] <= avg[25] {
		t.Errorf("τ=400 overhead (%f) not above τ=25 (%f)", avg[400], avg[25])
	}
}

func TestRunnersProduceOutput(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCombosPerGroup = 2
	runs := []struct {
		name string
		fn   func(w *strings.Builder, c Config) error
	}{
		{"table1", func(w *strings.Builder, c Config) error { return RunTable1(w, c) }},
		{"table3", func(w *strings.Builder, c Config) error { return RunTable3(w, c) }},
		{"fig5", func(w *strings.Builder, c Config) error { return RunFig5(w, c) }},
		{"fig6", func(w *strings.Builder, c Config) error { return RunFig6(w, c) }},
		{"fig8", func(w *strings.Builder, c Config) error { return RunFig8(w, c) }},
		{"ablations", func(w *strings.Builder, c Config) error { return RunAblations(w, c) }},
	}
	for _, r := range runs {
		var sb strings.Builder
		if err := r.fn(&sb, cfg); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if sb.Len() == 0 {
			t.Errorf("%s produced no output", r.name)
		}
	}
}

// TestTable2OrderFlip reproduces the qualitative heart of the paper
// (Figs 3.3/3.4): between Q1 (current < 145) and Qm1 (current > 145) the
// executed edge order changes — the bidder-side path becomes expensive when
// the price predicate selects high-priced auctions.
func TestTable2OrderFlip(t *testing.T) {
	cfg := testConfig()
	q1, qm1, err := Table2Orders(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(q1) == 0 || len(qm1) == 0 {
		t.Fatal("empty execution orders")
	}
	same := len(q1) == len(qm1)
	if same {
		for i := range q1 {
			if q1[i] != qm1[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Errorf("execution order did not adapt to the flipped predicate:\nQ1:  %v\nQm1: %v", q1, qm1)
	}
}

func TestTable2RunnerOutput(t *testing.T) {
	var sb strings.Builder
	if err := RunTable2(&sb, testConfig()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Q1", "Qm1", "executed edge order", "chain sampling"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
}

func TestRenderFig6Scatter(t *testing.T) {
	rows := []Fig6Row{
		{Info: ComboInfo{Combo: comboOf(t, "VLDB", "ICDE", "SIGIR", "TREC", "2:2")}, Largest: 20, Classical: 5, Smallest: 1.2, ROXFull: 1.4, ROXPure: 1.0},
		{Info: ComboInfo{Combo: comboOf(t, "SIGMOD", "ICDE", "VLDB", "EDBT", "4:0")}, Largest: 8, Classical: 2, Smallest: 1.0, ROXFull: 1.3, ROXPure: 1.0},
	}
	var sb strings.Builder
	if err := RenderFig6Scatter(&sb, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, sym := range []string{"X", "c", "▼", "groups"} {
		if !strings.Contains(out, sym) {
			t.Errorf("scatter missing %q:\n%s", sym, out)
		}
	}
	// Empty input must not fail.
	var sb2 strings.Builder
	if err := RenderFig6Scatter(&sb2, nil); err != nil {
		t.Fatal(err)
	}
}

func comboOf(t *testing.T, a, b, c, d, group string) datagen.Combo {
	t.Helper()
	var combo datagen.Combo
	for i, n := range []string{a, b, c, d} {
		v, ok := datagen.VenueByName(n)
		if !ok {
			t.Fatalf("no venue %s", n)
		}
		combo.Venues[i] = v
	}
	combo.Group = group
	return combo
}
