//go:build !race

package joingraph

import (
	"math"
	"testing"
	"time"

	"repro/internal/ops"
)

// TestJoinEquivalencesLinearTime closes the join equivalences of the graph
// that doc("d.xml")//a[a[a…]] with 100 000 nested predicates compiles to:
// 100 002 vertices on one chain of steps. Visiting every edge once per
// vertex took 25.5 s on 2 vCPU; the closure is one pass over the edges. The
// race detector slows it too much to time it.
func TestJoinEquivalencesLinearTime(t *testing.T) {
	const levels, limit = 100_000, time.Second
	g := New()
	cur := g.AddRoot("d.xml")
	axis := ops.AxisDesc
	for i := 0; i <= levels; i++ {
		next := g.AddElem("d.xml", "a")
		g.AddStep(cur, next, axis)
		cur, axis = next, ops.AxisChild
	}
	start := time.Now()
	if _, err := g.AddJoinEquivalences(math.MaxInt); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > limit {
		t.Errorf("closing %d vertices took %v, limit %v", len(g.Vertices), took, limit)
	}
}
