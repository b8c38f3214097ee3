package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// AblationRow reports one ROX variant's aggregate behaviour over the
// selected combinations.
type AblationRow struct {
	Name string
	// AvgCumulative is the average cumulative intermediate cardinality —
	// the plan-quality proxy.
	AvgCumulative float64
	// AvgTotalTuples is the average total work (execution + sampling).
	AvgTotalTuples float64
	// AvgOverheadPct is the average sampling overhead.
	AvgOverheadPct float64
}

// ablationVariants are the design choices DESIGN.md calls out.
func ablationVariants(tau int) []struct {
	name string
	opts core.Options
} {
	mk := func(mod func(*core.Options)) core.Options {
		o := roxOptions(tau)
		mod(&o)
		return o
	}
	return []struct {
		name string
		opts core.Options
	}{
		{"ROX (default)", mk(func(*core.Options) {})},
		{"greedy (no chain sampling)", mk(func(o *core.Options) { o.Greedy = true })},
		{"no re-sampling (independence)", mk(func(o *core.Options) { o.NoResample = true })},
		{"fixed cutoff", mk(func(o *core.Options) { o.FixedCutoff = true })},
		{"no path reorder", mk(func(o *core.Options) { o.NoPathReorder = true })},
		{"τ = 25", mk(func(o *core.Options) { o.Tau = 25 })},
		{"τ = 400", mk(func(o *core.Options) { o.Tau = 400 })},
		// The Sec 6 future-work extensions.
		{"sampled search (limit 8τ)", mk(func(o *core.Options) { o.MaterializeLimit = 8 * o.Tau })},
		{"eager project+distinct", mk(func(o *core.Options) { o.EagerProject = true })},
		{"time-weighted edges", mk(func(o *core.Options) { o.TimeWeights = true })},
	}
}

// ComputeAblations runs every ROX variant over the selected combinations.
func ComputeAblations(cfg Config) ([]AblationRow, error) {
	corpus := NewCorpus(cfg)
	combos, err := corpus.SelectCombos()
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	for _, v := range ablationVariants(cfg.Tau) {
		row := AblationRow{Name: v.name}
		for _, info := range combos {
			res, rec, err := corpus.runROX(info.Comp, v.opts)
			if err != nil {
				return nil, err
			}
			row.AvgCumulative += float64(res.CumulativeIntermediate)
			row.AvgTotalTuples += float64(rec.Total().Tuples)
			if res.ExecCost.Tuples > 0 {
				row.AvgOverheadPct += 100 * float64(res.SampleCost.Tuples) / float64(res.ExecCost.Tuples)
			}
		}
		n := float64(len(combos))
		row.AvgCumulative /= n
		row.AvgTotalTuples /= n
		row.AvgOverheadPct /= n
		out = append(out, row)
	}
	return out, nil
}

// RunAblations prints the ablation table.
func RunAblations(w io.Writer, cfg Config) error {
	rows, err := ComputeAblations(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablations over the Fig 6 combinations (×%d tags÷%d)\n", cfg.Scale, cfg.TagDivisor)
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "variant\tavg cumulative intermediates\tavg total tuples\tavg sampling overhead %")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.1f\n", r.Name, r.AvgCumulative, r.AvgTotalTuples, r.AvgOverheadPct)
	}
	return tw.Flush()
}

// RunAll executes every experiment in paper order.
func RunAll(w io.Writer, cfg Config) error {
	steps := []struct {
		name string
		fn   func(io.Writer, Config) error
	}{
		{"Table 1", RunTable1},
		{"Table 2", RunTable2},
		{"Table 3", RunTable3},
		{"Fig 5", RunFig5},
		{"Fig 6", RunFig6},
		{"Fig 7", RunFig7},
		{"Fig 8", RunFig8},
		{"Ablations", RunAblations},
	}
	for _, s := range steps {
		fmt.Fprintf(w, "\n================ %s ================\n", s.name)
		if err := s.fn(w, cfg); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}
