package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/classical"
	"repro/internal/datagen"
	"repro/internal/planenum"
)

// Fig5Row is one bar of Fig 5: a join order and its cumulative intermediate
// join cardinality, with markers for the classical and ROX choices.
type Fig5Row struct {
	Order      planenum.JoinOrder4
	Cumulative int64
	Classical  bool
	ROX        bool
}

// Fig5Result is the full figure.
type Fig5Result struct {
	Combo datagen.Combo
	Rows  []Fig5Row
}

// fig5Combo returns the paper's Fig 5 document selection: VLDB, ICDE, ICIP,
// ADBIS (1=VLDB, 2=ICDE, 3=ICIP, 4=ADBIS; ICIP from IR, the rest DB).
func fig5Combo() datagen.Combo {
	names := []string{"VLDB", "ICDE", "ICIP", "ADBIS"}
	var combo datagen.Combo
	for i, n := range names {
		v, ok := datagen.VenueByName(n)
		if !ok {
			panic("bench: catalog missing " + n)
		}
		combo.Venues[i] = v
	}
	combo.Group = "3:1"
	return combo
}

// ComputeFig5 evaluates all 18 join orders for the VLDB/ICDE/ICIP/ADBIS
// combination, marks the classical optimizer's choice and ROX's chosen
// order, and returns rows sorted by the legend's labels.
func ComputeFig5(corpus *Corpus) (*Fig5Result, error) {
	combo := fig5Combo()
	counts := corpus.ComboCounts(combo)

	comp, fw, err := CompileCombo(combo)
	if err != nil {
		return nil, err
	}
	classicalOrder, err := classical.SmallestInputOrder(corpus.EnvFor(combo), comp.Graph, fw)
	if err != nil {
		return nil, err
	}

	// ROX's join order, decoded from the plan it executed.
	res, _, err := corpus.runROX(combo, comp, roxOptions(corpus.cfg.Tau))
	if err != nil {
		return nil, err
	}
	roxOrder, roxOK := fw.DecodeOrder(comp.Graph, &res.Plan)

	out := &Fig5Result{Combo: combo}
	for _, o := range planenum.EnumerateJoinOrders4() {
		out.Rows = append(out.Rows, Fig5Row{
			Order:      o,
			Cumulative: CumulativeJoinSize(counts, o),
			Classical:  o.Canonical() == classicalOrder.Canonical(),
			ROX:        roxOK && o.Canonical() == roxOrder,
		})
	}
	sort.Slice(out.Rows, func(i, j int) bool {
		return out.Rows[i].Order.Label() < out.Rows[j].Order.Label()
	})
	return out, nil
}

// RunFig5 prints the figure.
func RunFig5(w io.Writer, cfg Config) error {
	corpus := NewCorpus(cfg)
	res, err := ComputeFig5(corpus)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig 5 — cumulative intermediate join cardinality, docs 1=VLDB 2=ICDE 3=ICIP 4=ADBIS (×%d, tags÷%d)\n",
		cfg.Scale, cfg.TagDivisor)
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "join order\tcumulative\tmarker")
	for _, r := range res.Rows {
		marker := ""
		if r.Classical {
			marker += " <= classical"
		}
		if r.ROX {
			marker += " <= ROX"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\n", r.Order.Label(), r.Cumulative, marker)
	}
	return tw.Flush()
}
