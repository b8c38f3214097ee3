package core_test

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/joingraph"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/xquery"
)

// The eager projection+Distinct push-down (Sec 6) deduplicates after a merge
// that dropped a column, so which columns a merge drops is visible in the
// per-edge rows and the cumulative intermediates. These pins record both, and
// the result items, for the optimizer run and for its replay, with and
// without the push-down, over the Fig 5 DBLP four-way graph and Table 2's
// XMark Q1 and Qm1.

// eagerPin is what one run reports: per-edge rows in plan order, the Fig 5
// metric and a hash of the result items.
type eagerPin struct {
	edgeRows string
	cum      int64
	rows     int
	items    uint64
}

func pinOf(p *plan.Plan, edgeRows map[int]int, cum int64, rel *table.Relation) eagerPin {
	h := fnv.New64a()
	for _, id := range rel.ColumnIDs() {
		for _, n := range rel.Column(id) {
			fmt.Fprintf(h, "%d,", n)
		}
		h.Write([]byte{';'})
	}
	rows := ""
	for _, s := range p.Steps {
		rows += fmt.Sprintf("e%d:%d ", s.EdgeID, edgeRows[s.EdgeID])
	}
	return eagerPin{edgeRows: rows, cum: cum, rows: rel.NumRows(), items: h.Sum64()}
}

// runPins runs ROX over g, then replays its plan with the cached plan's
// expectations, then replays that plan's steps in reverse order — an order
// ROX would not pick, which leaves fan-out columns dead early enough for the
// push-down to deduplicate — and returns the three pins.
func runPins(t *testing.T, env func() *plan.Env, g *joingraph.Graph, tail *plan.Tail, eager bool) [3]eagerPin {
	t.Helper()
	opts := core.DefaultOptions()
	opts.EagerProject = eager
	rel, res, err := core.Run(env(), g, tail, opts)
	if err != nil {
		t.Fatal(err)
	}
	pins := [3]eagerPin{pinOf(&res.Plan, res.EdgeRows, res.CumulativeIntermediate, rel)}
	reversed := plan.Plan{Steps: slices.Clone(res.Plan.Steps)}
	slices.Reverse(reversed.Steps)
	for i, p := range []*plan.Plan{&res.Plan, &reversed} {
		out, stats, err := plan.RunWithConfig(env(), g, p, tail,
			plan.RunConfig{EagerProject: eager, Expected: res.EdgeRows})
		if err != nil {
			t.Fatal(err)
		}
		pins[i+1] = pinOf(p, stats.EdgeRows, stats.CumulativeIntermediate, out)
	}
	return pins
}

func TestEagerProjectPinned(t *testing.T) {
	type graph struct {
		name string
		env  func() *plan.Env
		comp *xquery.Compiled
	}
	var graphs []graph

	// dblp-fourway: the Fig 5 combination on a four-venue corpus (tags ÷20).
	var combo datagen.Combo
	var venues []datagen.Venue
	for i, name := range []string{"VLDB", "ICDE", "ICIP", "ADBIS"} {
		v, _ := datagen.VenueByName(name)
		combo.Venues[i] = v
		venues = append(venues, v)
	}
	corpus := bench.NewCorpus(bench.Config{Seed: 2009, Tau: 100, Scale: 1, TagDivisor: 20, Venues: venues})
	comp, _, err := bench.CompileCombo(combo)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, graph{"dblp-fourway", corpus.Env, comp})

	// Table 2's XMark Q1 and Qm1.
	doc := datagen.XMark(datagen.DefaultXMarkConfig())
	cat := plan.NewCatalog()
	cat.AddDocument(doc)
	for _, q := range []struct{ name, op string }{{"xmark-q1", "<"}, {"xmark-qm1", ">"}} {
		comp, err := xquery.CompileString(`
let $d := doc("xmark.xml")
for $o in $d//open_auction[.//current/text() `+q.op+` 145],
    $p in $d//person[.//province],
    $i in $d//item[./quantity = 1]
where $o//bidder//personref/@person = $p/@id and $o//itemref/@item = $i/@id
return $o`, xquery.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, graph{q.name, func() *plan.Env {
			return plan.NewQueryEnv(cat, metrics.NewRecorder(), 2009)
		}, comp})
	}

	want := map[string][3]eagerPin{
		// name/eager → {optimizer run, replay, reversed replay}
		"dblp-fourway/eager=false": {{"e9:47 e13:6 e10:7 e4:7 e12:19 e5:19 e7:19 ", 124, 19, 0x1ecd148018341544}, {"e9:47 e13:6 e10:7 e4:7 e12:19 e5:19 e7:19 ", 124, 19, 0x1ecd148018341544}, {"e7:396 e5:308 e12:29 e4:343 e10:18 e13:19 e9:19 ", 1132, 19, 0x1ecd148018341544}},
		"dblp-fourway/eager=true":  {{"e9:47 e13:6 e10:7 e4:7 e12:19 e5:19 e7:19 ", 124, 19, 0x1ecd148018341544}, {"e9:47 e13:6 e10:7 e4:7 e12:19 e5:19 e7:19 ", 124, 19, 0x1ecd148018341544}, {"e7:396 e5:308 e12:29 e4:343 e10:18 e13:19 e9:19 ", 1132, 19, 0x1ecd148018341544}},
		"xmark-q1/eager=false":     {{"e2:229 e1:229 e13:229 e14:229 e16:229 e15:229 e6:229 e7:122 e4:254 e11:254 e8:380 e9:380 e10:380 e12:182 ", 3555, 181, 0xc52bb64393c12eed}, {"e2:229 e1:229 e13:229 e14:229 e16:229 e15:229 e6:229 e7:122 e4:254 e11:254 e8:380 e9:380 e10:380 e12:182 ", 3555, 181, 0xc52bb64393c12eed}, {"e12:2007 e10:2007 e9:2007 e8:2007 e11:2007 e4:862 e7:257 e6:257 e15:257 e16:211 e14:211 e13:457 e1:457 e2:182 ", 13186, 181, 0xc52bb64393c12eed}},
		"xmark-q1/eager=true":      {{"e2:229 e1:229 e13:229 e14:229 e16:229 e15:229 e6:229 e7:122 e4:254 e11:254 e8:380 e9:380 e10:380 e12:182 ", 3555, 181, 0xc52bb64393c12eed}, {"e2:229 e1:229 e13:229 e14:229 e16:229 e15:229 e6:229 e7:122 e4:254 e11:254 e8:380 e9:380 e10:380 e12:182 ", 3555, 181, 0xc52bb64393c12eed}, {"e12:2007 e10:2007 e9:2007 e8:2007 e11:1993 e4:856 e7:257 e6:257 e15:257 e16:211 e14:211 e13:454 e1:454 e2:181 ", 13159, 181, 0xc52bb64393c12eed}},
		"xmark-qm1/eager=false":    {{"e2:170 e1:170 e13:170 e14:170 e16:170 e15:170 e6:170 e7:89 e4:254 e11:254 e12:862 e10:862 e9:862 e8:275 ", 4648, 273, 0x5994d78688cfdc1d}, {"e2:170 e1:170 e13:170 e14:170 e16:170 e15:170 e6:170 e7:89 e4:254 e11:254 e12:862 e10:862 e9:862 e8:275 ", 4648, 273, 0x5994d78688cfdc1d}, {"e8:2007 e9:2007 e10:2007 e12:2007 e11:2007 e4:862 e7:257 e6:257 e15:257 e16:211 e14:211 e13:457 e1:457 e2:275 ", 13279, 273, 0x5994d78688cfdc1d}},
		"xmark-qm1/eager=true":     {{"e2:170 e1:170 e13:170 e14:170 e16:170 e15:170 e6:170 e7:89 e4:254 e11:254 e12:862 e10:862 e9:862 e8:275 ", 4648, 273, 0x5994d78688cfdc1d}, {"e2:170 e1:170 e13:170 e14:170 e16:170 e15:170 e6:170 e7:89 e4:254 e11:254 e12:862 e10:862 e9:862 e8:275 ", 4648, 273, 0x5994d78688cfdc1d}, {"e8:2007 e9:2007 e10:2007 e12:2007 e11:1993 e4:856 e7:257 e6:257 e15:257 e16:211 e14:211 e13:454 e1:454 e2:273 ", 13251, 273, 0x5994d78688cfdc1d}},
	}
	for _, gr := range graphs {
		for _, eager := range []bool{false, true} {
			key := fmt.Sprintf("%s/eager=%v", gr.name, eager)
			got := runPins(t, gr.env, gr.comp.Graph, gr.comp.Tail, eager)
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no pinned values", key)
			} else if got != w {
				t.Errorf("%s = %+v, want %+v", key, got, w)
			}
		}
	}
}
