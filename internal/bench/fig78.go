package bench

import (
	"fmt"
	"io"
)

// Fig7Cell is the average normalized cost of one plan type at one scale for
// one group.
type Fig7Cell struct {
	Scale    int
	Group    string
	PlanType string
	Avg      float64
	Combos   int
}

// ComputeFig7 evaluates the Fig 6 machinery at several dataset scales and
// averages the normalized costs per plan type and group (Fig 7). The
// paper's hypothesis: plan quality is scale-invariant while the relative
// sampling overhead shrinks with document size.
func ComputeFig7(cfg Config, scales []int) ([]Fig7Cell, error) {
	var out []Fig7Cell
	for _, scale := range scales {
		scaled := cfg
		scaled.Scale = scale
		corpus := NewCorpus(scaled)
		rows, err := ComputeFig6(corpus)
		if err != nil {
			return nil, err
		}
		type acc struct {
			sum map[string]float64
			n   int
		}
		groups := map[string]*acc{}
		for _, r := range rows {
			g := groups[r.Info.Combo.Group]
			if g == nil {
				g = &acc{sum: map[string]float64{}}
				groups[r.Info.Combo.Group] = g
			}
			g.n++
			g.sum["ROX (excl. sampling)"] += r.ROXPure
			g.sum["ROX (incl. sampling)"] += r.ROXFull
			g.sum["smallest"] += r.Smallest
			g.sum["classical"] += r.Classical
			g.sum["largest"] += r.Largest
		}
		for _, group := range []string{"2:2", "3:1", "4:0"} {
			g := groups[group]
			if g == nil {
				continue
			}
			for _, pt := range fig7PlanTypes {
				out = append(out, Fig7Cell{
					Scale:    scale,
					Group:    group,
					PlanType: pt,
					Avg:      g.sum[pt] / float64(g.n),
					Combos:   g.n,
				})
			}
		}
	}
	return out, nil
}

var fig7PlanTypes = []string{
	"ROX (excl. sampling)",
	"ROX (incl. sampling)",
	"smallest",
	"classical",
	"largest",
}

// RunFig7 prints the scaling figure for scales ×1 and ×Scale (and ×10 when
// Scale ≥ 100, mirroring the paper's three panels).
func RunFig7(w io.Writer, cfg Config) error {
	scales := []int{1}
	if cfg.Scale > 1 {
		if cfg.Scale >= 100 {
			scales = append(scales, 10)
		}
		scales = append(scales, cfg.Scale)
	} else {
		scales = append(scales, 4, 16)
	}
	cells, err := ComputeFig7(cfg, scales)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig 7 — average normalized cost per plan type, scales %v (tags÷%d)\n", scales, cfg.TagDivisor)
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "scale\tgroup\tplan type\tavg normalized\tcombos")
	for _, c := range cells {
		fmt.Fprintf(tw, "×%d\t%s\t%s\t%.2f\t%d\n", c.Scale, c.Group, c.PlanType, c.Avg, c.Combos)
	}
	return tw.Flush()
}

// Fig8Cell is the average sampling overhead of one sample size in one group.
type Fig8Cell struct {
	Tau    int
	Group  string
	AvgPct float64
	Combos int
}

// ComputeFig8 measures the relative sampling overhead
// 100·(R−r)/r — sampling tuple work over pure execution tuple work — per
// group for each sample size (Fig 8: τ ∈ {25, 100, 400}).
func ComputeFig8(cfg Config, taus []int) ([]Fig8Cell, error) {
	corpus := NewCorpus(cfg)
	combos := corpus.SelectCombos()
	var out []Fig8Cell
	for _, tau := range taus {
		type acc struct {
			sum float64
			n   int
		}
		groups := map[string]*acc{}
		for _, info := range combos {
			comp, _, err := CompileCombo(info.Combo)
			if err != nil {
				return nil, err
			}
			res, _, err := corpus.runROX(info.Combo, comp, roxOptions(tau))
			if err != nil {
				return nil, err
			}
			overhead := 0.0
			if res.ExecCost.Tuples > 0 {
				overhead = 100 * float64(res.SampleCost.Tuples) / float64(res.ExecCost.Tuples)
			}
			g := groups[info.Combo.Group]
			if g == nil {
				g = &acc{}
				groups[info.Combo.Group] = g
			}
			g.sum += overhead
			g.n++
		}
		for _, group := range []string{"2:2", "3:1", "4:0"} {
			if g := groups[group]; g != nil {
				out = append(out, Fig8Cell{Tau: tau, Group: group, AvgPct: g.sum / float64(g.n), Combos: g.n})
			}
		}
	}
	return out, nil
}

// RunFig8 prints the sample-size overhead figure.
func RunFig8(w io.Writer, cfg Config) error {
	taus := []int{25, 100, 400}
	cells, err := ComputeFig8(cfg, taus)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig 8 — avg sampling overhead over pure plan [%%], τ ∈ %v (×%d tags÷%d)\n",
		taus, cfg.Scale, cfg.TagDivisor)
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "τ\tgroup\toverhead %\tcombos")
	for _, c := range cells {
		fmt.Fprintf(tw, "%d\t%s\t%.1f\t%d\n", c.Tau, c.Group, c.AvgPct, c.Combos)
	}
	return tw.Flush()
}
