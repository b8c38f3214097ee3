package core

import (
	"fmt"
	"strings"

	"repro/internal/ops"
)

// Trace records everything the optimizer decided, in order: edge weights as
// they were (re)computed, chain-sampling explorations with the (cost, sf)
// evolution of every candidate path per round (the data behind Table 2 of
// the paper), edges skipped as implied, and the execution order with result
// cardinalities (the circled numbers of Figs 3.3/3.4).
type Trace struct {
	Events       []Event
	Explorations []*Exploration
}

// EventKind classifies trace events.
type EventKind int

// Trace event kinds.
const (
	EventWeight EventKind = iota
	EventExec
	EventImplied
)

// Event is one optimizer action.
type Event struct {
	Kind    EventKind
	EdgeID  int
	Weight  float64     // EventWeight
	Reverse bool        // EventExec
	Alg     ops.JoinAlg // EventExec
	Rows    int         // EventExec: resulting intermediate cardinality
}

// Exploration captures one chain-sampling invocation.
type Exploration struct {
	MinEdge int     // the seed edge (smallest weight)
	Source  int     // source vertex
	Rounds  []Round // per-round snapshots of all candidate paths
	Chosen  []int   // edge ids of the selected path
	Reason  string  // which rule selected it
}

// Round is the state of all candidate paths after one extension round.
type Round struct {
	Paths []PathSnapshot
}

// PathSnapshot is the (cost, sf) pair of one candidate path — one cell of
// Table 2.
type PathSnapshot struct {
	Edges []int
	Cost  float64
	SF    float64
}

func (t *Trace) addWeight(edge int, w float64) {
	t.Events = append(t.Events, Event{Kind: EventWeight, EdgeID: edge, Weight: w})
}

func (t *Trace) addExec(edge int, reverse bool, alg ops.JoinAlg, rows int) {
	t.Events = append(t.Events, Event{Kind: EventExec, EdgeID: edge, Reverse: reverse, Alg: alg, Rows: rows})
}

func (t *Trace) addImplied(edge int) {
	t.Events = append(t.Events, Event{Kind: EventImplied, EdgeID: edge})
}

func (t *Trace) newExploration(minEdge, source int) *Exploration {
	e := &Exploration{MinEdge: minEdge, Source: source}
	t.Explorations = append(t.Explorations, e)
	return e
}

// addRound snapshots the candidate paths. A snapshot shares its path's edge
// list, which is never written once the path is built.
func (e *Exploration) addRound(paths []*pathState) {
	r := Round{Paths: make([]PathSnapshot, len(paths))}
	for i, p := range paths {
		r.Paths[i] = PathSnapshot{Edges: p.edges, Cost: p.cost, SF: p.sf}
	}
	e.Rounds = append(e.Rounds, r)
}

func (e *Exploration) setChoice(edges []int, reason string) {
	e.Chosen = append([]int(nil), edges...)
	e.Reason = reason
}

// ExecutionOrder returns the executed edge ids in order.
func (t *Trace) ExecutionOrder() []int {
	var out []int
	for _, ev := range t.Events {
		if ev.Kind == EventExec {
			out = append(out, ev.EdgeID)
		}
	}
	return out
}

// ImpliedEdges returns the join edges skipped as transitively implied.
func (t *Trace) ImpliedEdges() []int {
	var out []int
	for _, ev := range t.Events {
		if ev.Kind == EventImplied {
			out = append(out, ev.EdgeID)
		}
	}
	return out
}

// String renders a human-readable run log.
func (t *Trace) String() string {
	var sb strings.Builder
	step := 0
	for _, ev := range t.Events {
		switch ev.Kind {
		case EventWeight:
			fmt.Fprintf(&sb, "w(e%d) = %.1f\n", ev.EdgeID, ev.Weight)
		case EventExec:
			step++
			dir := ""
			if ev.Reverse {
				dir = " (reversed)"
			}
			fmt.Fprintf(&sb, "%d. exec e%d%s → %d rows\n", step, ev.EdgeID, dir, ev.Rows)
		case EventImplied:
			fmt.Fprintf(&sb, "skip e%d (implied by executed joins)\n", ev.EdgeID)
		}
	}
	for i, ex := range t.Explorations {
		fmt.Fprintf(&sb, "exploration %d: seed e%d from v%d → %v (%s), %d rounds\n",
			i+1, ex.MinEdge, ex.Source, ex.Chosen, ex.Reason, len(ex.Rounds))
	}
	return sb.String()
}

// FormatTable2 renders an exploration in the layout of Table 2 of the
// paper: one row per sampling round, one (cost, sf) column pair per
// candidate path (paths are labeled by their first edge).
func (e *Exploration) FormatTable2() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "round")
	labels := map[string]int{}
	var order []string
	for _, r := range e.Rounds {
		for _, p := range r.Paths {
			if len(p.Edges) == 0 {
				continue
			}
			key := fmt.Sprintf("p(e%d…)", p.Edges[0])
			if _, ok := labels[key]; !ok {
				labels[key] = len(order)
				order = append(order, key)
			}
		}
	}
	for _, l := range order {
		fmt.Fprintf(&sb, "\t%s", l)
	}
	sb.WriteString("\n")
	for i, r := range e.Rounds {
		fmt.Fprintf(&sb, "%d", i+1)
		cells := make([]string, len(order))
		for _, p := range r.Paths {
			if len(p.Edges) == 0 {
				continue
			}
			key := fmt.Sprintf("p(e%d…)", p.Edges[0])
			cells[labels[key]] = fmt.Sprintf("(%.1f, %.2f)", p.Cost, p.SF)
		}
		for _, c := range cells {
			if c == "" {
				c = "-"
			}
			fmt.Fprintf(&sb, "\t%s", c)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
