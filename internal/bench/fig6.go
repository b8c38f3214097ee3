package bench

import (
	"fmt"
	"io"

	"repro/internal/classical"
	"repro/internal/planenum"
)

// Fig6Row is one document combination of Fig 6: the cost of each plan class
// normalized to the fastest plan. Costs use the deterministic tuple-work
// metric (see the "Experiments" section of DESIGN.md).
type Fig6Row struct {
	Info ComboInfo
	// Normalized costs (1.0 = fastest plan observed for this combination).
	Largest   float64 // slowest canonical placement of the worst join order
	Classical float64 // best canonical placement of the classical order
	Smallest  float64 // best canonical placement of the best join order
	ROXOrder  float64 // best canonical placement of ROX's join order
	ROXFull   float64 // the real ROX run including sampling
	ROXPure   float64 // ROX's plan re-executed without sampling
	// Raw tuple costs backing the normalization.
	RawFastest int64
}

// ComputeFig6 evaluates the plan classes over the selected combinations.
func ComputeFig6(corpus *Corpus) ([]Fig6Row, error) {
	combos, err := corpus.SelectCombos()
	if err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for _, info := range combos {
		row, err := corpus.fig6Row(info)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (c *Corpus) fig6Row(info ComboInfo) (Fig6Row, error) {
	comp, fw := info.Comp, info.FourWay

	// Analytic smallest/largest orders, classical order.
	smallOrder, largeOrder := SmallestLargestOrders(info.Counts)
	classicalOrder, err := classical.SmallestInputOrder(c.Env(), comp.Graph, fw)
	if err != nil {
		return Fig6Row{}, err
	}

	// The ROX run itself (sampling included).
	res, rec, err := c.runROX(comp, roxOptions(c.cfg.Tau))
	if err != nil {
		return Fig6Row{}, err
	}
	roxFull := rec.Total().Tuples

	// ROX's pure plan re-executed without sampling.
	roxPure, _, err := c.runPlan(comp, &res.Plan)
	if err != nil {
		return Fig6Row{}, err
	}

	// Canonical placements per join-order class.
	classCost := func(o planenum.JoinOrder4, worst bool) (int64, error) {
		var best int64 = -1
		for _, p := range planenum.Placements() {
			pl, err := fw.BuildPlan(o, p)
			if err != nil {
				return 0, err
			}
			cost, _, err := c.runPlan(comp, pl)
			if err != nil {
				return 0, err
			}
			if best < 0 || (!worst && cost < best) || (worst && cost > best) {
				best = cost
			}
		}
		return best, nil
	}
	smallest, err := classCost(smallOrder, false)
	if err != nil {
		return Fig6Row{}, err
	}
	largest, err := classCost(largeOrder, true)
	if err != nil {
		return Fig6Row{}, err
	}
	classicalCost, err := classCost(classicalOrder, false)
	if err != nil {
		return Fig6Row{}, err
	}
	roxOrderCost := roxPure
	if o, ok := fw.DecodeOrder(comp.Graph, &res.Plan); ok {
		if v, err := classCost(o, false); err == nil {
			roxOrderCost = v
		}
	}

	fastest := minInt64(smallest, classicalCost, roxOrderCost, roxPure, roxFull)
	if fastest <= 0 {
		fastest = 1
	}
	norm := func(v int64) float64 { return float64(v) / float64(fastest) }
	return Fig6Row{
		Info:       info,
		Largest:    norm(largest),
		Classical:  norm(classicalCost),
		Smallest:   norm(smallest),
		ROXOrder:   norm(roxOrderCost),
		ROXFull:    norm(roxFull),
		ROXPure:    norm(roxPure),
		RawFastest: fastest,
	}, nil
}

func minInt64(vs ...int64) int64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Fig6Summary averages the classical-vs-ROX slowdown per group (the paper:
// factor 3.4 in 2:2, 6 in 3:1, 7.9 in 4:0).
type Fig6Summary struct {
	Group               string
	Combos              int
	AvgClassicalOverROX float64
	AvgROXOverFastest   float64 // sampling overhead factor of the full run
}

// SummarizeFig6 aggregates rows per group.
func SummarizeFig6(rows []Fig6Row) []Fig6Summary {
	agg := map[string]*Fig6Summary{}
	order := []string{"2:2", "3:1", "4:0"}
	for _, r := range rows {
		g := r.Info.Combo.Group
		s := agg[g]
		if s == nil {
			s = &Fig6Summary{Group: g}
			agg[g] = s
		}
		s.Combos++
		if r.ROXFull > 0 {
			s.AvgClassicalOverROX += r.Classical / r.ROXFull
		}
		s.AvgROXOverFastest += r.ROXFull
	}
	var out []Fig6Summary
	for _, g := range order {
		if s := agg[g]; s != nil {
			s.AvgClassicalOverROX /= float64(s.Combos)
			s.AvgROXOverFastest /= float64(s.Combos)
			out = append(out, *s)
		}
	}
	return out
}

// RunFig6 prints the per-combination normalized costs and the group summary.
func RunFig6(w io.Writer, cfg Config) error {
	corpus := NewCorpus(cfg)
	rows, err := ComputeFig6(corpus)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig 6 — normalized cost vs fastest plan (tuple work), ×%d tags÷%d, %d combos\n",
		cfg.Scale, cfg.TagDivisor, len(rows))
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "group\tcombination\tcorrC\tlargest\tclassical\tsmallest\tROXorder\tROXfull\tROXpure")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Info.Combo.Group, r.Info.Label(), r.Info.Correlation,
			r.Largest, r.Classical, r.Smallest, r.ROXOrder, r.ROXFull, r.ROXPure)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := RenderFig6Scatter(w, rows); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nper-group summary:")
	tw = newTabWriter(w)
	fmt.Fprintln(tw, "group\tcombos\tavg classical/ROXfull\tavg ROXfull/fastest")
	for _, s := range SummarizeFig6(rows) {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\n", s.Group, s.Combos, s.AvgClassicalOverROX, s.AvgROXOverFastest)
	}
	return tw.Flush()
}
