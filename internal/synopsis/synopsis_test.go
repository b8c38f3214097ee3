package synopsis

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

const sample = `<site>
  <regions>
    <item id="i1"><quantity>1</quantity></item>
    <item id="i2"><quantity>5</quantity></item>
  </regions>
  <people>
    <person id="p1"><name>Ada</name><item><quantity>9</quantity></item></person>
  </people>
</site>`

func guideOf(t *testing.T, src string) (*Guide, *xmltree.Document) {
	t.Helper()
	d, err := xmltree.ParseString("s.xml", src)
	if err != nil {
		t.Fatal(err)
	}
	return Build(d), d
}

func TestGuideExactLinearPaths(t *testing.T) {
	g, _ := guideOf(t, sample)
	cases := []struct {
		path string
		want int
	}{
		{"/site", 1},
		{"/site/regions/item", 2},
		{"//item", 3}, // 2 under regions + 1 under person
		{"//item/quantity", 3},
		{"/site/regions/item/quantity", 2},
		{"//person", 1},
		{"//person/item", 1},
		{"//person//quantity", 1},
		{"//nosuch", 0},
		{"/site//quantity", 3},
	}
	for _, c := range cases {
		got, err := g.EstimatePath(c.path)
		if err != nil {
			t.Errorf("%s: %v", c.path, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %d, want %d", c.path, got, c.want)
		}
	}
}

func TestGuideCountsAndSize(t *testing.T) {
	g, d := guideOf(t, sample)
	if n, err := g.EstimatePath("//item"); err != nil || n != d.CountName("item") {
		t.Errorf("EstimatePath(//item) = %d, %v; want %d", n, err, d.CountName("item"))
	}
	// Distinct label paths: site, regions, regions/item, regions/item/quantity,
	// people, person, person/name, person/item, person/item/quantity = 9.
	if g.Size() != 9 {
		t.Errorf("Size = %d, want 9", g.Size())
	}
	if !strings.Contains(g.String(), "item ×2") {
		t.Errorf("String() missing counts:\n%s", g.String())
	}
}

func TestPredicateSelectivity(t *testing.T) {
	// 100 items with quantity 1..100: selectivity of quantity < 50 ≈ 0.49.
	b := xmltree.NewBuilder("q.xml")
	b.StartElem("r")
	for i := 1; i <= 100; i++ {
		b.StartElem("item")
		b.StartElem("quantity")
		b.Text(intStr(i))
		b.EndElem()
		b.EndElem()
	}
	b.EndElem()
	d := b.MustBuild()
	g := Build(d)
	est, err := g.EstimateWithPredicates("//item", ValuePred{Op: "<", Val: "50"})
	if err != nil {
		t.Fatal(err)
	}
	if est < 35 || est > 65 {
		t.Errorf("estimate = %.1f, want ≈49", est)
	}
	// Out-of-range predicate → ~0.
	est, err = g.EstimateWithPredicates("//item", ValuePred{Op: "<", Val: "0"})
	if err != nil {
		t.Fatal(err)
	}
	if est > 5 {
		t.Errorf("impossible predicate estimate = %.1f", est)
	}
	// Equality on a string value.
	est, err = g.EstimateWithPredicates("//item", ValuePred{Op: "=", Val: "42"})
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 || est > 10 {
		t.Errorf("point estimate = %.1f", est)
	}
}

// TestIndependenceBlindSpot demonstrates the failure mode ROX fixes: on
// correlated data the synopsis multiplies marginal selectivities and is off
// by a large factor, while remaining decent on independent data.
func TestIndependenceBlindSpot(t *testing.T) {
	// Perfectly correlated: <a><x>1</x><y>1</y></a> or <a><x>0</x><y>0</y></a>.
	// P(x=1) = P(y=1) = 0.5, but P(x=1 ∧ y=1) = 0.5, not 0.25.
	rng := rand.New(rand.NewSource(3))
	b := xmltree.NewBuilder("c.xml")
	b.StartElem("r")
	actual := 0
	for i := 0; i < 400; i++ {
		v := rng.Intn(2)
		if v == 1 {
			actual++
		}
		b.StartElem("a")
		b.StartElem("x")
		b.Text(intStr(v))
		b.EndElem()
		b.StartElem("y")
		b.Text(intStr(v))
		b.EndElem()
		b.EndElem()
	}
	b.EndElem()
	g := Build(b.MustBuild())
	est, err := g.EstimateWithPredicates("//a",
		ValuePred{Op: "=", Val: "1"}, ValuePred{Op: "=", Val: "1"})
	if err != nil {
		t.Fatal(err)
	}
	// The independence estimate must undershoot the real count badly
	// (~N/4 vs ~N/2) — that gap is the paper's motivation.
	if est > float64(actual)*0.8 {
		t.Errorf("synopsis estimate %.0f suspiciously close to the correlated truth %d — independence not modeled?", est, actual)
	}
	if est <= 0 {
		t.Errorf("estimate must be positive")
	}
}

func TestValueSummaryHeavyHitters(t *testing.T) {
	v := NewValueSummary(8, 4)
	for i := 0; i < 60; i++ {
		v.Add("frequent")
	}
	for i := 0; i < 5; i++ {
		v.Add("rare" + intStr(i))
	}
	v.Seal()
	if got := v.EstimateMatch("=", "frequent"); got < 0.5 {
		t.Errorf("heavy hitter estimate = %.2f, want > 0.5", got)
	}
	if got := v.EstimateMatch("=", "never-seen"); got > 0.05 {
		t.Errorf("unseen estimate = %.3f, want tiny", got)
	}
}

func TestParsePathErrors(t *testing.T) {
	for _, bad := range []string{"", "relative/x", "/", "//a//"} {
		if _, err := ParsePath(bad); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

func intStr(i int) string {
	return strconvItoa(i)
}

func strconvItoa(i int) string {
	// small helper avoiding fmt in hot loops
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}
