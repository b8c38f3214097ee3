package joingraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ops"
)

// randomGraph builds a random valid Join Graph: a step-edge forest plus
// random join edges between value vertices.
func randomGraph(rng *rand.Rand) *Graph {
	g := New()
	root := g.AddRoot("d")
	elems := []int{root}
	nElems := 2 + rng.Intn(6)
	for i := 0; i < nElems; i++ {
		v := g.AddElem("d", "e")
		g.AddStep(elems[rng.Intn(len(elems))], v, ops.AxisDesc)
		elems = append(elems, v)
	}
	var values []int
	for i := 0; i < 2+rng.Intn(5); i++ {
		parent := elems[1+rng.Intn(len(elems)-1)]
		v := g.AddText("d", NoPred)
		g.AddStep(parent, v, ops.AxisChild)
		values = append(values, v)
	}
	for i := 0; i < rng.Intn(4); i++ {
		a := values[rng.Intn(len(values))]
		b := values[rng.Intn(len(values))]
		if a != b {
			g.AddJoin(a, b)
		}
	}
	return g
}

// TestClosureProperties: on random graphs, the join-equivalence closure is
// idempotent, keeps the graph valid, and makes every join class a clique.
func TestClosureProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: random graph invalid: %v", seed, err)
			return false
		}
		closeJoins(g)
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: closure broke validity: %v", seed, err)
			return false
		}
		if again := closeJoins(g); again != 0 {
			t.Logf("seed %d: closure not idempotent (%d new)", seed, again)
			return false
		}
		// Clique check: within each join-connected component, every pair of
		// join-touched vertices must share a join edge.
		joined := map[[2]int]bool{}
		uf := map[int]int{}
		var find func(int) int
		find = func(x int) int {
			r, ok := uf[x]
			if !ok || r == x {
				return x
			}
			root := find(r)
			uf[x] = root
			return root
		}
		var members []int
		seen := map[int]bool{}
		for _, e := range g.JoinEdges(true) {
			a, b := e.From, e.To
			if a > b {
				a, b = b, a
			}
			joined[[2]int{a, b}] = true
			uf[find(a)] = find(b)
			for _, v := range []int{a, b} {
				if !seen[v] {
					seen[v] = true
					members = append(members, v)
				}
			}
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				a, b := members[i], members[j]
				if find(a) != find(b) {
					continue
				}
				if a > b {
					a, b = b, a
				}
				if !joined[[2]int{a, b}] {
					t.Logf("seed %d: class not a clique: %d-%d missing", seed, a, b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestEdgesOfConsistency: EdgesOf agrees with a full scan, for every vertex
// of random graphs.
func TestEdgesOfConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		for v := range g.Vertices {
			want := 0
			for _, e := range g.Edges {
				if e.Touches(v) {
					want++
				}
			}
			if got := g.Degree(v); got != want {
				t.Logf("seed %d: Degree(%d) = %d, want %d", seed, v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
