package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/xquery"
)

// xmarkQ1 is the paper's Sec 3.2 query Q1; Qm1 flips the price predicate.
const (
	xmarkQ1 = `
	let $d := doc("xmark.xml")
	for $o in $d//open_auction[.//current/text() < 145],
	    $p in $d//person[.//province],
	    $i in $d//item[./quantity = 1]
	where $o//bidder//personref/@person = $p/@id and $o//itemref/@item = $i/@id
	return $o`
	xmarkQm1 = `
	let $d := doc("xmark.xml")
	for $o in $d//open_auction[.//current/text() > 145],
	    $p in $d//person[.//province],
	    $i in $d//item[./quantity = 1]
	where $o//bidder//personref/@person = $p/@id and $o//itemref/@item = $i/@id
	return $o`
)

// table2Run is one query's ROX run of Table 2.
type table2Run struct {
	name string
	rows int
	res  *core.Result
}

// runTable2 runs ROX on the XMark query Q1 and its mirrored variant Qm1
// over the seed's price-correlated auction document.
func runTable2(cfg Config) ([]table2Run, error) {
	xcfg := datagen.DefaultXMarkConfig()
	xcfg.Seed = cfg.Seed
	doc := datagen.XMark(xcfg)

	var runs []table2Run
	for _, q := range []struct{ name, src string }{
		{"Q1 (current < 145)", xmarkQ1},
		{"Qm1 (current > 145)", xmarkQm1},
	} {
		comp, err := xquery.CompileString(q.src, xquery.CompileOptions{})
		if err != nil {
			return nil, err
		}
		env := plan.NewEnv(metrics.NewRecorder(), cfg.Seed)
		env.AddDocument(doc)
		rel, res, err := core.Run(env, comp.Graph, comp.Tail, roxOptions(cfg.Tau))
		if err != nil {
			return nil, err
		}
		runs = append(runs, table2Run{q.name, rel.NumRows(), res})
	}
	return runs, nil
}

// RunTable2 regenerates Table 2 (and the Fig 3.3/3.4 execution orders):
// for Q1 and Qm1 it prints the chain-sampling (cost, sf) rounds of the
// exploration with the longest look-ahead plus the executed edge order.
// The headline effect to observe: the execution order flips between Q1
// (< 145 → few bidders, bidder path first) and Qm1 (> 145 → many bidders,
// itemref path first).
func RunTable2(w io.Writer, cfg Config) error {
	runs, err := runTable2(cfg)
	if err != nil {
		return err
	}
	for _, r := range runs {
		res := r.res
		fmt.Fprintf(w, "=== %s — %d result rows ===\n", r.name, r.rows)
		// The exploration with the most rounds corresponds to the paper's
		// Table 2 (the third exploration step of Q1).
		var deepest *core.Exploration
		for _, ex := range res.Trace.Explorations {
			if deepest == nil || len(ex.Rounds) > len(deepest.Rounds) {
				deepest = ex
			}
		}
		if deepest != nil {
			fmt.Fprintf(w, "chain sampling from v%d (seed edge e%d), %d rounds, chosen %v via %s:\n",
				deepest.Source, deepest.MinEdge, len(deepest.Rounds), deepest.Chosen, deepest.Reason)
			fmt.Fprint(w, deepest.FormatTable2())
		}
		fmt.Fprintf(w, "executed edge order: %v\n", res.Plan.EdgeIDs())
		fmt.Fprintf(w, "cumulative intermediates: %d, sampling/exec tuples: %d/%d\n\n",
			res.CumulativeIntermediate, res.SampleCost.Tuples, res.ExecCost.Tuples)
	}
	return nil
}

// Table2Orders runs Q1 and Qm1 and returns their executed edge orders —
// used by tests to assert the order flip without parsing text output.
func Table2Orders(cfg Config) (q1, qm1 []int, err error) {
	runs, err := runTable2(cfg)
	if err != nil {
		return nil, nil, err
	}
	return runs[0].res.Plan.EdgeIDs(), runs[1].res.Plan.EdgeIDs(), nil
}
