package rox

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/testutil"
	"repro/internal/xmltree"
)

// tailEngine loads a small shop corpus with numeric and non-numeric leaves.
func tailEngine(t *testing.T) *Engine {
	t.Helper()
	eng := NewEngine()
	if err := eng.LoadSource(FromXML("shop.xml", `<shop>
		<item id="i1"><quantity>1</quantity><price>10</price></item>
		<item id="i2"><quantity>2</quantity><price>25.5</price></item>
		<item id="i3"><quantity>1</quantity><price>30</price></item>
		<item id="i4"><quantity>3</quantity></item>
	</shop>`)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestAggregateResults pins the aggregate values and the Rows=1 contract on
// the cold path, the prepared-replay path and the static baseline.
func TestAggregateResults(t *testing.T) {
	eng := tailEngine(t)
	cases := []struct{ q, want string }{
		{`for $i in doc("shop.xml")//item return count($i)`, "4"},
		{`for $i in doc("shop.xml")//item return sum($i/price)`, "65.5"},
		{`for $i in doc("shop.xml")//item return sum($i/quantity)`, "7"},
		{`for $i in doc("shop.xml")//item return avg($i/price)`, "21.833333333333332"},
		{`for $i in doc("shop.xml")//item return min($i/price)`, "10"},
		{`for $i in doc("shop.xml")//item return max($i/price)`, "30"},
	}
	for _, c := range cases {
		prep, err := eng.Prepare(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		for _, phase := range []string{"cold", "replay", "static"} {
			var res *Result
			switch phase {
			case "static":
				res, err = collectRows(eng.Execute(context.Background(), Request{Query: c.q, Static: true}))
			default:
				res, err = collectRows(eng.Execute(context.Background(), Request{Prepared: prep}))
			}
			if err != nil {
				t.Fatalf("%s (%s): %v", c.q, phase, err)
			}
			if len(res.Items) != 1 || res.Items[0] != c.want {
				t.Errorf("%s (%s) = %v, want [%s]", c.q, phase, res.Items, c.want)
			}
			if res.Stats.Rows != 1 {
				t.Errorf("%s (%s): Stats.Rows = %d, want 1", c.q, phase, res.Stats.Rows)
			}
			if phase == "replay" && !res.Stats.CacheHit {
				t.Errorf("%s: replay was not a cache hit", c.q)
			}
		}
	}
}

// TestAggregateEmptySequence: avg/min/max over no matches render the empty
// item; sum and count have identities. Rows stays 1.
func TestAggregateEmptySequence(t *testing.T) {
	eng := tailEngine(t)
	cases := []struct{ q, want string }{
		{`for $i in doc("shop.xml")//item return sum($i/missing)`, "0"},
		{`for $i in doc("shop.xml")//item return avg($i/missing)`, ""},
		{`for $i in doc("shop.xml")//item return min($i/missing)`, ""},
		{`for $i in doc("shop.xml")//item return max($i/missing)`, ""},
	}
	for _, c := range cases {
		res, err := collectRows(eng.Execute(context.Background(), Request{Query: c.q}))
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if len(res.Items) != 1 || res.Items[0] != c.want || res.Stats.Rows != 1 {
			t.Errorf("%s = %v (rows %d), want [%q] with rows 1", c.q, res.Items, res.Stats.Rows, c.want)
		}
	}
}

// TestAggregateNonNumericFailsCleanly: aggregating a path with non-numeric
// values is a query error (never a panic), on both engine paths.
func TestAggregateNonNumericFailsCleanly(t *testing.T) {
	eng := tailEngine(t)
	for _, q := range []string{
		`for $i in doc("shop.xml")//item return sum($i/@id)`,
		`for $i in doc("shop.xml")//item return min($i/@id)`,
	} {
		if _, err := collectRows(eng.Execute(context.Background(), Request{Query: q})); !errors.Is(err, ErrNonNumericAggregate) {
			t.Errorf("%s: err = %v, want ErrNonNumericAggregate", q, err)
		}
		if _, err := collectRows(eng.Execute(context.Background(), Request{Query: q, Static: true})); !errors.Is(err, ErrNonNumericAggregate) {
			t.Errorf("%s (static): err = %v, want ErrNonNumericAggregate", q, err)
		}
	}
}

// TestOrderByResults pins ordering semantics: key order, direction, absent
// keys first, ties in document order, Rows = len(Items) — cold, replay and
// static.
func TestOrderByResults(t *testing.T) {
	eng := tailEngine(t)
	id := func(items []string) string {
		var ids []string
		for _, it := range items {
			start := strings.Index(it, `id="`) + 4
			ids = append(ids, it[start:start+2])
		}
		return strings.Join(ids, ",")
	}
	cases := []struct{ q, want string }{
		// i4 has no price → absent key sorts first.
		{`for $i in doc("shop.xml")//item order by $i/price return $i`, "i4,i1,i2,i3"},
		{`for $i in doc("shop.xml")//item order by $i/price descending return $i`, "i3,i2,i1,i4"},
		// quantity ties (i1, i3 = 1) keep document order.
		{`for $i in doc("shop.xml")//item order by $i/quantity return $i`, "i1,i3,i2,i4"},
		{`for $i in doc("shop.xml")//item order by $i/quantity descending return $i`, "i4,i2,i1,i3"},
		// String keys order bytewise.
		{`for $i in doc("shop.xml")//item order by $i/@id descending return $i`, "i4,i3,i2,i1"},
	}
	for _, c := range cases {
		prep, err := eng.Prepare(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		for _, phase := range []string{"cold", "replay", "static"} {
			var res *Result
			switch phase {
			case "static":
				res, err = collectRows(eng.Execute(context.Background(), Request{Query: c.q, Static: true}))
			default:
				res, err = collectRows(eng.Execute(context.Background(), Request{Prepared: prep}))
			}
			if err != nil {
				t.Fatalf("%s (%s): %v", c.q, phase, err)
			}
			if got := id(res.Items); got != c.want {
				t.Errorf("%s (%s) = %s, want %s", c.q, phase, got, c.want)
			}
			if res.Stats.Rows != len(res.Items) {
				t.Errorf("%s (%s): Rows = %d, len(Items) = %d", c.q, phase, res.Stats.Rows, len(res.Items))
			}
			if phase == "replay" && (!res.Stats.CacheHit || res.Stats.SampleTuples != 0) {
				t.Errorf("%s replay: CacheHit=%v SampleTuples=%d", c.q, res.Stats.CacheHit, res.Stats.SampleTuples)
			}
		}
	}
}

// TestTailChangeIsCacheMiss: queries sharing a Join Graph but differing only
// in their tail (order direction, key path, aggregate kind) must key
// separately in the plan cache — a tail change is a miss, never a replay
// under the wrong tail.
func TestTailChangeIsCacheMiss(t *testing.T) {
	eng := tailEngine(t)
	variants := []string{
		`for $i in doc("shop.xml")//item return sum($i/quantity)`,
		`for $i in doc("shop.xml")//item return avg($i/quantity)`,
		`for $i in doc("shop.xml")//item return count($i)`,
		`for $i in doc("shop.xml")//item order by $i/quantity return $i`,
		`for $i in doc("shop.xml")//item order by $i/quantity descending return $i`,
		`for $i in doc("shop.xml")//item order by $i/@id return $i`,
		`for $i in doc("shop.xml")//item return $i`,
	}
	fps := make(map[string]string)
	for _, q := range variants {
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if prev, dup := fps[prep.Fingerprint()]; dup {
			t.Errorf("cache key collision between %q and %q", prev, q)
		}
		fps[prep.Fingerprint()] = q
		res, err := collectRows(eng.Execute(context.Background(), Request{Prepared: prep}))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Stats.CacheHit {
			t.Errorf("%s: first run hit a sibling tail's cached plan", q)
		}
	}
	if stats := eng.CacheStats(); stats.Size != len(variants) {
		t.Errorf("cache size = %d, want one entry per tail variant (%d)", stats.Size, len(variants))
	}
}

// TestScatterAggregateStats: scatter-gather aggregates report Rows=1 with
// the single merged item, and per-shard stats still roll up.
func TestScatterAggregateStats(t *testing.T) {
	testutil.CheckGoroutines(t)
	eng := NewEngine()
	for i, xml := range []string{
		`<shop><item><price>10</price></item><item><price>20</price></item></shop>`,
		`<shop><item><price>30</price></item></shop>`,
		`<shop></shop>`, // empty shard: identity partial state
	} {
		if err := eng.LoadCollectionSource("shop", FromXML(strings.Repeat("s", i+1)+".xml", xml)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := collectRows(eng.Execute(context.Background(), Request{Query: `for $i in collection("shop")//item return sum($i/price)`}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0] != "60" || res.Stats.Rows != 1 {
		t.Errorf("scatter sum = %v (rows %d), want [60] rows 1", res.Items, res.Stats.Rows)
	}
	if len(res.Stats.Shards) != 3 {
		t.Errorf("shard stats = %d, want 3", len(res.Stats.Shards))
	}
	rows, err := eng.Execute(context.Background(), Request{Query: `for $i in collection("shop")//item return avg($i/price)`})
	if err != nil {
		t.Fatal(err)
	}
	if avg := testutil.DrainCursor(t, rows); len(avg) != 1 || avg[0] != "20" {
		t.Errorf("scatter avg = %v, want [20]", avg)
	}
}

// TestNonFiniteTextIsNotNumeric: a text node spelled NaN or Inf is a string
// to every reader of xmltree.ParseNumber. The numeric index used to admit
// them, and a NaN among its values broke the sort order TextRange
// binary-searches: on this document `< 4` returned <v>7</v> and two NaNs, and
// `>= 0` missed 0, 1, 2 and 7. Pinned for the three index builders — bulk,
// packed and the ingest delta — static ≡ ROX.
func TestNonFiniteTextIsNotNumeric(t *testing.T) {
	const head = `<v>5</v><v>NaN</v><v>1</v><v>nan</v><v>7</v><v>NaN</v><v>2</v>`
	const rest = `<v>Inf</v><v>3</v><v>NaN</v><v>0</v><v>9</v><v>NaN</v><v>4</v>`

	bulk := NewEngine()
	if err := bulk.LoadSource(FromXML("r.xml", "<r>"+head+rest+"</r>")); err != nil {
		t.Fatal(err)
	}
	d, err := xmltree.ParseString("r.xml", "<r>"+head+rest+"</r>")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.roxd")
	if err := index.WritePackedFile(path, index.New(d)); err != nil {
		t.Fatal(err)
	}
	packed := NewEngine()
	if err := packed.LoadSource(FromPacked(path)); err != nil {
		t.Fatal(err)
	}
	ingested := NewEngine()
	if err := ingested.LoadSource(FromXML("r.xml", "<r>"+head+"</r>")); err != nil {
		t.Fatal(err)
	}
	if err := ingested.Append("r.xml", rest); err != nil {
		t.Fatal(err)
	}
	if _, err := ingested.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct{ query, want string }{
		{`for $v in doc("r.xml")//v[text() < 4] return $v`, "1 2 3 0"},
		{`for $v in doc("r.xml")//v[text() >= 0] return $v`, "5 1 7 2 3 0 9 4"},
		{`for $v in doc("r.xml")//v[text() > 8] return $v`, "9"},
		{`for $v in doc("r.xml")//v order by $v return $v limit 3`, "0 1 2"},
		{`for $v in doc("r.xml")//v order by $v descending return $v limit 6`, "nan NaN NaN NaN NaN Inf"},
	} {
		var want []string
		for _, v := range strings.Fields(c.want) {
			want = append(want, "<v>"+v+"</v>")
		}
		for name, eng := range map[string]*Engine{"bulk": bulk, "packed": packed, "ingested": ingested} {
			rox, err := collectRows(eng.Execute(context.Background(), Request{Query: c.query}))
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.query, err)
			}
			static, err := collectRows(eng.Execute(context.Background(), Request{Query: c.query, Static: true}))
			if err != nil {
				t.Fatalf("%s %s (static): %v", name, c.query, err)
			}
			if !slices.Equal(rox.Items, want) || !slices.Equal(static.Items, want) {
				t.Errorf("%s %s:\n  rox    %v\n  static %v\n  want   %v", name, c.query, rox.Items, static.Items, want)
			}
		}
	}
}
