// Package bench contains the drivers that regenerate every table and figure
// of the paper's evaluation section (Sec 4), shared by cmd/roxbench and the
// root-level testing.B benchmarks:
//
//	Table 1  operator cost properties           (RunTable1)
//	Table 2  chain-sampling rounds on Q1/Qm1    (RunTable2)
//	Table 3  DBLP document catalog              (RunTable3)
//	Fig 5    join-order intermediate sizes      (RunFig5)
//	Fig 6    plan classes over 831 combinations (RunFig6)
//	Fig 7    document size scaling              (RunFig7)
//	Fig 8    sample-size overhead               (RunFig8)
//	—        ablations of ROX design choices    (RunAblations)
//
// Absolute numbers differ from the paper (different machine, synthetic
// data); the drivers reproduce the *shape*: who wins, by what factor, where
// the crossovers are. The "Experiments" section of DESIGN.md records
// paper-vs-measured.
package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/planenum"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// Config sizes an experiment run. The defaults (DefaultConfig) give
// laptop-second miniatures of the paper's setup; cmd/roxbench exposes knobs
// to run the full-size sweeps.
type Config struct {
	// Seed drives all generation and sampling.
	Seed int64
	// Tau is the ROX sample size τ.
	Tau int
	// Scale is the DBLP replication factor (the paper's ×1/×10/×100).
	Scale int
	// TagDivisor shrinks the DBLP catalog's author-tag counts (miniature
	// corpora; 1 = faithful Table 3 sizes).
	TagDivisor int
	// MaxCombosPerGroup caps the document combinations evaluated per group
	// in Figs 6–8 (0 = all).
	MaxCombosPerGroup int
	// Venues restricts the catalog (nil = all 23).
	Venues []datagen.Venue
}

// DefaultConfig returns the miniature configuration used by `go test
// -bench`.
func DefaultConfig() Config {
	return Config{
		Seed:              2009,
		Tau:               100,
		Scale:             1,
		TagDivisor:        40,
		MaxCombosPerGroup: 6,
	}
}

func (c Config) venues() []datagen.Venue {
	if len(c.Venues) > 0 {
		return c.Venues
	}
	return datagen.Catalog()
}

func (c Config) dblpConfig() datagen.DBLPConfig {
	d := datagen.DefaultDBLPConfig()
	d.Seed = c.Seed
	d.Scale = c.Scale
	d.TagDivisor = c.TagDivisor
	return d
}

// Corpus is a generated DBLP corpus with shared (reusable) indices, held in
// one immutable plan.Catalog that every experiment Env shares.
type Corpus struct {
	cfg  Config
	docs map[string]*xmltree.Document
	cat  *plan.Catalog
}

// NewCorpus generates all venue documents of the configuration and builds
// their indices once, into a catalog shared by all runs.
func NewCorpus(cfg Config) *Corpus {
	docs := datagen.GenerateDBLP(cfg.dblpConfig(), cfg.venues())
	cat := plan.NewCatalog()
	for _, d := range docs {
		cat.AddIndexed(index.New(d))
	}
	return &Corpus{cfg: cfg, docs: docs, cat: cat}
}

// EnvFor builds a fresh per-query Env (own recorder and random stream) over
// the shared corpus catalog. The combination's documents are all registered
// there; queries only touch the documents they name.
func (c *Corpus) EnvFor(combo datagen.Combo) *plan.Env {
	return plan.NewQueryEnv(c.cat, metrics.NewRecorder(), c.cfg.Seed)
}

// FourWayQuery renders the paper's DBLP query template over a combination.
func FourWayQuery(combo datagen.Combo) string {
	q := ""
	for i, v := range combo.Venues {
		if i == 0 {
			q = fmt.Sprintf("for $a1 in doc(%q)//author", v.DocName())
		} else {
			q += fmt.Sprintf(", $a%d in doc(%q)//author", i+1, v.DocName())
		}
	}
	q += " where $a1/text() = $a2/text() and $a1/text() = $a3/text() and $a1/text() = $a4/text() return $a1"
	return q
}

// CompileCombo compiles the four-way query of a combination.
func CompileCombo(combo datagen.Combo) (*xquery.Compiled, *planenum.FourWay, error) {
	comp, err := xquery.CompileString(FourWayQuery(combo), xquery.CompileOptions{})
	if err != nil {
		return nil, nil, err
	}
	fw, err := planenum.AnalyzeFourWay(comp.Graph)
	if err != nil {
		return nil, nil, err
	}
	return comp, fw, nil
}

// JoinSizes computes, analytically and exactly, the intermediate join result
// cardinalities of a join order over the combination's author value
// multisets: bag equi-join sizes |J1|, |J2|, |J3| (the Fig 5 metric).
func JoinSizes(counts [4]map[string]int, o planenum.JoinOrder4) []int64 {
	join := func(a, b map[string]int) (int64, map[string]int) {
		if len(b) < len(a) {
			a, b = b, a
		}
		out := make(map[string]int)
		var size int64
		for v, ca := range a {
			if cb := b[v]; cb > 0 {
				out[v] = ca * cb
				size += int64(ca) * int64(cb)
			}
		}
		return size, out
	}
	s1, j1 := join(counts[o.First[0]], counts[o.First[1]])
	if o.Bushy {
		s2, j2 := join(counts[o.Rest[0]], counts[o.Rest[1]])
		s3, _ := join(j1, j2)
		return []int64{s1, s2, s3}
	}
	s2, j2 := join(j1, counts[o.Rest[0]])
	s3, _ := join(j2, counts[o.Rest[1]])
	return []int64{s1, s2, s3}
}

// CumulativeJoinSize sums the intermediate join sizes of an order.
func CumulativeJoinSize(counts [4]map[string]int, o planenum.JoinOrder4) int64 {
	var total int64
	for _, s := range JoinSizes(counts, o) {
		total += s
	}
	return total
}

// ComboCounts extracts the author value multisets of a combination.
func (c *Corpus) ComboCounts(combo datagen.Combo) [4]map[string]int {
	var out [4]map[string]int
	for i, v := range combo.Venues {
		out[i] = datagen.AuthorValueCounts(c.docs[v.DocName()])
	}
	return out
}

// SmallestLargestOrders returns the join orders with the minimum and maximum
// cumulative intermediate join size.
func SmallestLargestOrders(counts [4]map[string]int) (smallest, largest planenum.JoinOrder4) {
	orders := planenum.EnumerateJoinOrders4()
	minS, maxS := int64(-1), int64(-1)
	for _, o := range orders {
		s := CumulativeJoinSize(counts, o)
		if minS < 0 || s < minS {
			minS, smallest = s, o
		}
		if s > maxS {
			maxS, largest = s, o
		}
	}
	return smallest, largest
}

// SelectCombos returns the evaluated combinations: every classified
// 4-subset of the venues, with non-empty four-way results, capped per group,
// sorted by group then ascending correlation C (the Fig 6 x-axis).
func (c *Corpus) SelectCombos() []ComboInfo {
	var out []ComboInfo
	perGroup := map[string]int{}
	all := datagen.Combos(c.cfg.venues())
	// Compute correlation and emptiness, then order by correlation within
	// groups before capping, mirroring the paper's presentation.
	var infos []ComboInfo
	for _, combo := range all {
		counts := c.ComboCounts(combo)
		if fourWayEmpty(counts) {
			continue
		}
		var docs []*xmltree.Document
		for _, v := range combo.Venues {
			docs = append(docs, c.docs[v.DocName()])
		}
		infos = append(infos, ComboInfo{
			Combo:       combo,
			Correlation: datagen.CorrelationC(docs),
			Counts:      counts,
		})
	}
	sort.SliceStable(infos, func(i, j int) bool {
		if infos[i].Combo.Group != infos[j].Combo.Group {
			return infos[i].Combo.Group < infos[j].Combo.Group
		}
		return infos[i].Correlation < infos[j].Correlation
	})
	for _, info := range infos {
		if c.cfg.MaxCombosPerGroup > 0 && perGroup[info.Combo.Group] >= c.cfg.MaxCombosPerGroup {
			continue
		}
		perGroup[info.Combo.Group]++
		out = append(out, info)
	}
	return out
}

// ComboInfo is a combination with its correlation measure.
type ComboInfo struct {
	Combo       datagen.Combo
	Correlation float64
	Counts      [4]map[string]int
}

// Label renders the combination compactly.
func (ci ComboInfo) Label() string {
	return fmt.Sprintf("%s+%s+%s+%s", ci.Combo.Venues[0].Name, ci.Combo.Venues[1].Name,
		ci.Combo.Venues[2].Name, ci.Combo.Venues[3].Name)
}

func fourWayEmpty(counts [4]map[string]int) bool {
	for v := range counts[0] {
		if counts[1][v] > 0 && counts[2][v] > 0 && counts[3][v] > 0 {
			return false
		}
	}
	return true
}

// newTabWriter returns the common writer for experiment tables.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// roxOptions returns ROX's default options with sample size tau.
func roxOptions(tau int) core.Options {
	opts := core.DefaultOptions()
	opts.Tau = tau
	return opts
}

// runROX evaluates the combination's compiled query with ROX under opts,
// returning the run and the environment's recorder for cost inspection.
func (c *Corpus) runROX(combo datagen.Combo, comp *xquery.Compiled, opts core.Options) (*core.Result, *metrics.Recorder, error) {
	env := c.EnvFor(combo)
	_, res, err := core.Run(env, comp.Graph, comp.Tail, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, env.Rec, nil
}

// runPlan executes a static plan for the combination and returns the exec
// tuple work and stats.
func (c *Corpus) runPlan(combo datagen.Combo, comp *xquery.Compiled, p *plan.Plan) (int64, *plan.RunStats, error) {
	env := c.EnvFor(combo)
	_, stats, err := plan.Run(env, comp.Graph, p, comp.Tail)
	if err != nil {
		return 0, nil, err
	}
	return env.Rec.Total().Tuples, stats, nil
}
