package rox

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The catalog is the ingester's one record of committed appends: a reload or
// a shard swap replaces whatever was committed to that document, and nothing
// the ingester does afterwards — a compaction, an auto-compaction fired by
// another document's commit, the next append — may bring it back.

// reloadedSite is the text site.xml is reloaded with after a committed
// append.
const reloadedSite = `<site><person id="x1"><name>Zoe</name><age>99</age></person></site>`

var siteQueries = []string{
	ingestQuery,
	`for $p in doc("site.xml")//person return count($p)`,
	`for $p in doc("site.xml")//person order by $p/name return $p`,
}

// assertAnswersLike checks every query against a fresh engine that
// bulk-loads text as name.
func assertAnswersLike(t *testing.T, eng *Engine, name, text string, queries []string) {
	t.Helper()
	ref := NewEngine()
	if err := ref.LoadSource(FromXML(name, text)); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if got, want := mustQuery(t, eng, q), mustQuery(t, ref, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v (a bulk load of %s)", q, got, want, text)
		}
	}
}

func TestIngestReloadReplacesCommittedAppends(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		// after runs once site.xml has been reloaded and returns what the
		// document must now answer like.
		after func(t *testing.T, eng *Engine) string
	}{
		{"compact", func(t *testing.T, eng *Engine) string {
			if err := eng.Ingest().Compact(ctx); err != nil {
				t.Fatal(err)
			}
			return reloadedSite
		}},
		{"auto-compaction by another document", func(t *testing.T, eng *Engine) string {
			eng.Ingest().SetCompactAfter(1)
			if err := eng.Append("other.xml", `<e/>`); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			if st := eng.Ingest().Stats(); st.Compactions != 1 {
				t.Fatalf("stats %+v, want one compaction", st)
			}
			return reloadedSite
		}},
		{"next append", func(t *testing.T, eng *Engine) string {
			if err := eng.Append("site.xml", ingestFrags[1]); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			return reloadedSite + ingestFrags[1]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine()
			for _, src := range []Source{FromXML("site.xml", ingestBase), FromXML("other.xml", `<log/>`)} {
				if err := eng.LoadSource(src); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Append("site.xml", ingestFrags[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			if err := eng.LoadSource(FromXML("site.xml", reloadedSite)); err != nil {
				t.Fatal(err)
			}
			if st := eng.Ingest().Stats(); st.DeltaDocs != 0 || st.DeltaNodes != 0 {
				t.Errorf("stats after the reload %+v, want no delta", st)
			}
			assertAnswersLike(t, eng, "site.xml", tc.after(t, eng), siteQueries)
		})
	}
}

// TestIngestNoElementFragmentPublishesNoDelta pins that a commit of
// fragments adding no node (top-level text, a comment, a PI, whitespace)
// leaves the document without a delta.
func TestIngestNoElementFragmentPublishesNoDelta(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadSource(FromXML("site.xml", ingestBase)); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`just text`, `<!-- a comment -->`, `<?pi x?>`, " \n\t"} {
		if err := eng.Append("site.xml", frag); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := eng.Ingest().Stats(); st.DeltaDocs != 0 || st.DeltaNodes != 0 || st.PendingDocs != 0 {
		t.Fatalf("stats %+v, want no delta and nothing pending", st)
	}
	assertAnswersLike(t, eng, "site.xml", ingestBase, siteQueries)
}

// TestIngestCreatedDocumentSurvivesCompaction pins that a document created
// by ingest, even from a single fragment, is a delta over an empty root and
// so is compacted like any other: a compaction that truncates the WAL (here
// because site.xml has a delta) writes its snapshot too, so a restart still
// has it.
func TestIngestCreatedDocumentSurvivesCompaction(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "ingest")
	ctx := context.Background()
	eng := NewEngine()
	if err := eng.LoadSource(FromXML("site.xml", ingestBase)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OpenIngestDir(walDir); err != nil {
		t.Fatal(err)
	}
	const created = `<items><item k="1"/></items>`
	for _, ap := range [][2]string{{"fresh.xml", created}, {"site.xml", ingestFrags[0]}} {
		if err := eng.Append(ap[0], ap[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if st := eng.Ingest().Stats(); st.DeltaDocs != 2 {
		t.Errorf("stats %+v, want site.xml and fresh.xml as deltas", st)
	}
	if err := eng.Ingest().Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest().Close(); err != nil {
		t.Fatal(err)
	}
	restarted := NewEngine()
	if err := restarted.LoadSource(FromXML("site.xml", ingestBase)); err != nil {
		t.Fatal(err)
	}
	if n, err := restarted.OpenIngestDir(walDir); err != nil || n != 0 {
		t.Fatalf("OpenIngestDir = %d, %v; want 0 batches to replay", n, err)
	}
	defer restarted.Ingest().Close()
	assertAnswersLike(t, restarted, "fresh.xml", created,
		[]string{`for $i in doc("fresh.xml")//item return $i`})
}

// pplShard is the text of one shard of the ppl collection: a person per
// name.
func pplShard(names ...string) string {
	var b strings.Builder
	b.WriteString("<ppl>")
	for _, n := range names {
		fmt.Fprintf(&b, "<person><name>%s</name></person>", n)
	}
	b.WriteString("</ppl>")
	return b.String()
}

func TestIngestShardSwapSurvivesAutoCompaction(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "ingest")
	ctx := context.Background()
	swapped := pplShard("NEW")
	load := func(s1 string) *Engine {
		eng := NewEngine()
		if err := eng.LoadCollectionSource("ppl", FromXML("s0", pplShard("a0")), FromXML("s1", s1)); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := load(pplShard("b0"))
	if _, err := eng.OpenIngestDir(walDir); err != nil {
		t.Fatal(err)
	}
	// Round-robin: a1 and a2 land on s0, b1 on s1.
	for _, name := range []string{"a1", "b1", "a2"} {
		if err := eng.Append("ppl", fmt.Sprintf("<person><name>%s</name></person>", name)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadCollectionSource("ppl", FromXML("s1", swapped)); err != nil {
		t.Fatal(err)
	}
	eng.Ingest().SetCompactAfter(1)
	if err := eng.Append("s0", "<person><name>a3</name></person>"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	q := `for $n in collection("ppl")//person/name return $n`
	want := []string{"<name>a0</name>", "<name>a1</name>", "<name>a2</name>", "<name>a3</name>", "<name>NEW</name>"}
	if got := mustQuery(t, eng, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the auto-compaction: %v, want %v", got, want)
	}
	// Two compactions: the swap's, since s1 had committed appends in the
	// WAL, and the one a3's commit fired.
	if st := eng.Ingest().Stats(); st.Compactions != 2 || st.DeltaDocs != 0 || st.WALSize != 0 {
		t.Fatalf("stats %+v, want two compactions, no delta and an empty WAL", st)
	}
	for shard, n := range map[string]int{"s0": 1, "s1": 0} {
		if snaps, err := filepath.Glob(filepath.Join(walDir, shard+".*.roxd")); err != nil || len(snaps) != n {
			t.Fatalf("%s snapshots = %v (%v), want %d", shard, snaps, err, n)
		}
	}
	if err := eng.Ingest().Close(); err != nil {
		t.Fatal(err)
	}
	// A restart over the swapped corpus answers the same, s0 from its
	// snapshot.
	restarted := load(swapped)
	if _, err := restarted.OpenIngestDir(walDir); err != nil {
		t.Fatal(err)
	}
	defer restarted.Ingest().Close()
	if got := mustQuery(t, restarted, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a restart: %v, want %v", got, want)
	}
}

// TestIngestRestartMatchesLiveAfterSwap pins restart ≡ live across a shard
// swap: collection ppl holds s0 (a0) and s1 (b0), a1 and b1 are appended
// round-robin and committed, and s1 is swapped for a shard holding NEW. A
// restart over the swapped corpus must answer what the live engine answers.
// Before a swap compacted, the WAL replayed b1 onto NEW ("wal"), and a
// snapshot of the old s1 superseded NEW ("compacted").
func TestIngestRestartMatchesLiveAfterSwap(t *testing.T) {
	q := `for $n in collection("ppl")//person/name return $n`
	want := []string{"<name>a0</name>", "<name>a1</name>", "<name>NEW</name>"}
	for _, compactFirst := range []bool{false, true} {
		name := map[bool]string{false: "wal", true: "compacted"}[compactFirst]
		t.Run(name, func(t *testing.T) {
			walDir := filepath.Join(t.TempDir(), "ingest")
			ctx := context.Background()
			load := func(s1 string) *Engine {
				eng := NewEngine()
				if err := eng.LoadCollectionSource("ppl", FromXML("s0", pplShard("a0")), FromXML("s1", s1)); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.OpenIngestDir(walDir); err != nil {
					t.Fatal(err)
				}
				return eng
			}
			eng := load(pplShard("b0"))
			for _, n := range []string{"a1", "b1"} {
				if err := eng.Append("ppl", fmt.Sprintf("<person><name>%s</name></person>", n)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := eng.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			if compactFirst {
				if err := eng.Ingest().Compact(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.LoadCollectionSource("ppl", FromXML("s1", pplShard("NEW"))); err != nil {
				t.Fatal(err)
			}
			if got := mustQuery(t, eng, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("live: %v, want %v", got, want)
			}
			if err := eng.Ingest().Close(); err != nil {
				t.Fatal(err)
			}
			restarted := load(pplShard("NEW"))
			defer restarted.Ingest().Close()
			if got := mustQuery(t, restarted, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("after a restart: %v, want %v", got, want)
			}
		})
	}
}

// TestIngestLoadWithoutDurableStateKeepsDir pins that only a reload of a
// document with durable state compacts: loading a new document, or
// reloading one that has neither a snapshot nor committed appends, leaves
// every file of the ingest directory as it was.
func TestIngestLoadWithoutDurableStateKeepsDir(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "ingest")
	eng := NewEngine()
	if err := eng.LoadSource(FromXML("site.xml", ingestBase)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OpenIngestDir(walDir); err != nil {
		t.Fatal(err)
	}
	defer eng.Ingest().Close()
	if err := eng.Append("site.xml", ingestFrags[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	files := func() map[string]string {
		ents, err := os.ReadDir(walDir)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]string{}
		for _, ent := range ents {
			b, err := os.ReadFile(filepath.Join(walDir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			m[ent.Name()] = string(b)
		}
		return m
	}
	before := files()
	if err := eng.LoadSource(FromXML("other.xml", "<o/>")); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadSource(FromXML("other.xml", "<o><p/></o>")); err != nil {
		t.Fatal(err)
	}
	if after := files(); !reflect.DeepEqual(after, before) {
		t.Errorf("loads without durable state changed the directory: %v → %v", sortedKeys(before), sortedKeys(after))
	}
	if st := eng.Ingest().Stats(); st.Compactions != 0 || st.DeltaDocs != 1 {
		t.Errorf("stats %+v, want no compaction and site.xml's delta", st)
	}
}

// FuzzIngestOps drives one engine with an ingest directory through
// fuzzer-chosen appends (to d.xml, round-robin to collection c, or to one of
// its shards s0 and s1), commits, compactions, reloads of d.xml, shard swaps,
// compact-after settings and restarts, and after every commit, compaction,
// reload, swap or restart holds two queries' items to a fresh engine that
// bulk-loads the model's texts. The model of a document is its last loaded
// text plus the fragments committed since; fragments pending at a reload go
// on top at the next commit, and a restart drops them. A restart closes the
// ingester and opens the directory again from a fresh engine that loads the
// corpus as last loaded. Each input byte is one op: the byte mod 9 picks it,
// the quotient is its argument.
func FuzzIngestOps(f *testing.F) {
	op := func(kind, arg byte) byte { return arg*9 + kind }
	const (
		appendDoc, appendColl, appendShard, commit, compact, reload, swap, compactAfter, restart = 0, 1, 2, 3, 4, 5, 6, 7, 8
	)
	// TestIngestReloadReplacesCommittedAppends' three cases.
	reloaded := func(then ...byte) []byte {
		return append([]byte{op(appendDoc, 0), op(commit, 0), op(reload, 0)}, then...)
	}
	f.Add(reloaded(op(compact, 0)))
	f.Add(reloaded(op(compactAfter, 1), op(appendShard, 0), op(commit, 0)))
	f.Add(reloaded(op(appendDoc, 1), op(commit, 0)))
	// TestIngestShardSwapSurvivesAutoCompaction's.
	f.Add([]byte{op(appendColl, 0), op(appendColl, 0), op(appendColl, 0), op(commit, 0),
		op(swap, 1), op(compactAfter, 1), op(appendShard, 0), op(commit, 0)})
	// Fragments without elements, and appends pending across a reload.
	f.Add([]byte{op(appendDoc, 6), op(appendColl, 7), op(commit, 0), op(appendDoc, 0),
		op(reload, 0), op(appendShard, 1), op(swap, 1), op(commit, 0), op(compact, 0)})
	// TestIngestRestartMatchesLiveAfterSwap's two shapes: a shard swapped
	// over committed appends still in the WAL, and over a snapshot.
	f.Add([]byte{op(appendColl, 0), op(appendColl, 0), op(commit, 0), op(swap, 1), op(restart, 0)})
	f.Add([]byte{op(appendColl, 0), op(appendColl, 0), op(commit, 0), op(compact, 0), op(swap, 1), op(restart, 0)})
	// Appends pending across a reload's compaction, committed, then a restart.
	f.Add([]byte{op(appendDoc, 0), op(commit, 0), op(appendDoc, 1), op(appendShard, 0), op(reload, 0),
		op(commit, 0), op(restart, 0)})

	queries := []string{
		`for $e in doc("d.xml")//e return $e`,
		`for $e in collection("c")//e return $e`,
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		ctx := context.Background()
		text := map[string]string{
			"d.xml": `<d><e k="d">base</e></d>`,
			"s0":    `<s><e k="s0">base</e></s>`,
			"s1":    `<s><e k="s1">base</e></s>`,
		}
		loaded := maps.Clone(text) // the corpus as last loaded
		pending := map[string][]string{}
		corpus := func(text map[string]string) *Engine {
			e := NewEngine()
			if err := e.LoadSource(FromXML("d.xml", text["d.xml"])); err != nil {
				t.Fatal(err)
			}
			if err := e.LoadCollectionSource("c", FromXML("s0", text["s0"]), FromXML("s1", text["s1"])); err != nil {
				t.Fatal(err)
			}
			return e
		}
		walDir := filepath.Join(t.TempDir(), "ingest")
		eng := corpus(loaded)
		if _, err := eng.OpenIngestDir(walDir); err != nil {
			t.Fatal(err)
		}
		defer func() { eng.Ingest().Close() }()
		rr := 0
		check := func(step int) {
			t.Helper()
			ref := corpus(text)
			for _, q := range queries {
				if got, want := mustQuery(t, eng, q), mustQuery(t, ref, q); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d (%v) %s:\n got %v\nwant %v", step, ops[:step+1], q, got, want)
				}
			}
		}
		commitModel := func() {
			for name, frags := range pending {
				text[name] += strings.Join(frags, "")
			}
			clear(pending)
		}
		for i, b := range ops {
			kind, arg := b%9, b/9
			// frag shapes follow the argument: mostly one element, sometimes
			// two, a comment or whitespace.
			frag := func(shape byte) string {
				switch shape % 8 {
				case 5:
					return fmt.Sprintf(`<e k="%d">f%d</e><e k="%d"/>`, i, i, i)
				case 6:
					return `<!-- no element -->`
				case 7:
					return " \n"
				}
				return fmt.Sprintf(`<e k="%d">f%d</e>`, i, i)
			}
			add := func(target, name, xml string) {
				if err := eng.Append(target, xml); err != nil {
					t.Fatal(err)
				}
				pending[name] = append(pending[name], xml)
			}
			switch kind {
			case appendDoc:
				add("d.xml", "d.xml", frag(arg))
			case appendColl:
				add("c", fmt.Sprintf("s%d", rr%2), frag(arg))
				rr++
			case appendShard:
				name := fmt.Sprintf("s%d", arg&1)
				add(name, name, frag(arg>>1))
			case commit, compact:
				var err error
				if kind == commit {
					_, err = eng.Commit(ctx)
				} else {
					err = eng.Ingest().Compact(ctx)
				}
				if err != nil {
					t.Fatal(err)
				}
				commitModel()
				if st := eng.Ingest().Stats(); st.PendingDocs != 0 || kind == compact && st.DeltaDocs != 0 {
					t.Fatalf("op %d: stats %+v", i, st)
				}
				check(i)
			case reload:
				text["d.xml"] = fmt.Sprintf(`<d><e k="r%d">reload</e></d>`, i)
				loaded["d.xml"] = text["d.xml"]
				if err := eng.LoadSource(FromXML("d.xml", text["d.xml"])); err != nil {
					t.Fatal(err)
				}
				check(i)
			case swap:
				name := fmt.Sprintf("s%d", arg&1)
				text[name] = fmt.Sprintf(`<s><e k="w%d">swap</e></s>`, i)
				loaded[name] = text[name]
				if err := eng.LoadCollectionSource("c", FromXML(name, text[name])); err != nil {
					t.Fatal(err)
				}
				check(i)
			case compactAfter:
				eng.Ingest().SetCompactAfter(int(arg))
			case restart:
				if err := eng.Ingest().Close(); err != nil {
					t.Fatal(err)
				}
				eng = corpus(loaded)
				if _, err := eng.OpenIngestDir(walDir); err != nil {
					t.Fatal(err)
				}
				clear(pending) // never committed: the restart drops them
				rr = 0
				check(i)
			}
		}
	})
}
