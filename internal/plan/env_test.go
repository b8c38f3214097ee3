package plan

import (
	"math/rand"
	"slices"
	"testing"
)

// TestLazySourceMatchesRand: an Env's lazily built generator draws the
// stream rand.NewSource would, through every kind of draw the optimizer
// makes, across a Seed before the first draw and one mid-stream.
func TestLazySourceMatchesRand(t *testing.T) {
	got, want := rand.New(&lazySource{seed: 3}), rand.New(rand.NewSource(3))
	got.Seed(42)
	want.Seed(42)
	pick := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		if i == 5000 {
			got.Seed(99)
			want.Seed(99)
		}
		same := true
		switch k := pick.Intn(5); k {
		case 0:
			same = got.Int63() == want.Int63()
		case 1:
			n := 1 + pick.Intn(1000)
			same = got.Intn(n) == want.Intn(n)
		case 2:
			same = got.Float64() == want.Float64()
		case 3:
			n := pick.Intn(20)
			same = slices.Equal(got.Perm(n), want.Perm(n))
		case 4:
			same = got.Uint64() == want.Uint64()
		}
		if !same {
			t.Fatalf("draw %d differs from rand.NewSource's", i)
		}
	}
}
