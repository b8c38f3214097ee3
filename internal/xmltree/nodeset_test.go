package xmltree

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSortUniqueMatchesSortCompact is the primitive's property: on every
// input shape — dense in its span (bitmap sweep), sparse (sort fallback),
// already sorted, all equal, single element, empty — it returns what
// slices.Sort + slices.Compact return, with and without shared scratch, and
// leaves that scratch zeroed.
func TestSortUniqueMatchesSortCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var words []uint64
	shapes := map[string]func() []NodeID{
		"empty":  func() []NodeID { return nil },
		"single": func() []NodeID { return []NodeID{NodeID(rng.Intn(1 << 20))} },
		"all-equal": func() []NodeID {
			return slices.Repeat([]NodeID{NodeID(rng.Intn(1 << 20))}, 1+rng.Intn(50))
		},
		"dense": func() []NodeID {
			ids := make([]NodeID, 1+rng.Intn(300))
			base, span := rng.Intn(1<<20), 1+rng.Intn(8*len(ids))
			for i := range ids {
				ids[i] = NodeID(base + rng.Intn(span))
			}
			return ids
		},
		"sparse": func() []NodeID {
			ids := make([]NodeID, 2+rng.Intn(300))
			for i := range ids {
				ids[i] = NodeID(rng.Intn(1 << 30))
			}
			ids[0], ids[1] = 0, 1<<30 // a span far past 64 ids per input id
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			return ids
		},
		"sorted-unique": func() []NodeID {
			ids := make([]NodeID, 1+rng.Intn(300))
			next := NodeID(0)
			for i := range ids {
				next += NodeID(1 + rng.Intn(5))
				ids[i] = next
			}
			return ids
		},
		"sorted-duplicates": func() []NodeID {
			ids := make([]NodeID, 1+rng.Intn(300))
			for i := range ids {
				ids[i] = NodeID(rng.Intn(40))
			}
			slices.Sort(ids)
			return ids
		},
	}
	for name, gen := range shapes {
		for round := 0; round < 300; round++ {
			in := gen()
			want := slices.Clone(in)
			slices.Sort(want)
			want = slices.Compact(want)
			if got := SortUnique(slices.Clone(in), nil); !slices.Equal(got, want) {
				t.Fatalf("%s: SortUnique(%v, nil) = %v, want %v", name, in, got, want)
			}
			if got := SortUnique(slices.Clone(in), &words); !slices.Equal(got, want) {
				t.Fatalf("%s: SortUnique(%v, scratch) = %v, want %v", name, in, got, want)
			}
			if i := slices.IndexFunc(words[:cap(words)], func(w uint64) bool { return w != 0 }); i >= 0 {
				t.Fatalf("%s: scratch word %d left set after SortUnique(%v)", name, i, in)
			}
			checkSortedSet(t, name, in, want, &words)
		}
	}
	if cap(words) == 0 {
		t.Errorf("no input took the bitmap path")
	}
}

// checkSortedSet holds SortedSet to the same answer as SortUnique on one
// input, never writing to it: within a strict superset it returns a new
// slice, within the set itself it returns within.
func checkSortedSet(t *testing.T, name string, in, want []NodeID, words *[]uint64) {
	t.Helper()
	orig := slices.Clone(in)
	super := want
	if len(want) > 0 {
		super = append(slices.Clone(want), want[len(want)-1]+1)
	}
	got := SortedSet(in, super, words)
	if !slices.Equal(got, want) || !slices.Equal(in, orig) {
		t.Fatalf("%s: SortedSet(%v) = %v and left the input %v, want %v", name, orig, got, in, want)
	}
	if !slices.Equal(in, want) && len(got) > 0 && &got[0] == &super[0] {
		t.Fatalf("%s: SortedSet(%v) returned its strict superset", name, orig)
	}
	if got := SortedSet(in, want, words); !slices.Equal(in, want) && len(want) > 0 && &got[0] != &want[0] {
		t.Fatalf("%s: SortedSet(%v) copied a set equal to within", name, orig)
	}
	if i := slices.IndexFunc((*words)[:cap(*words)], func(w uint64) bool { return w != 0 }); i >= 0 {
		t.Fatalf("%s: scratch word %d left set after SortedSet(%v)", name, i, orig)
	}
}
