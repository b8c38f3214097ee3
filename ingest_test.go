package rox

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const ingestBase = `<site><person id="p1"><name>Alice</name><age>30</age></person></site>`

var ingestFrags = []string{
	`<person id="p2"><name>Bob</name><age>41</age></person>`,
	`<person id="p3"><name>Carol</name><age>25</age></person><person id="p4"><name>Dave</name><age>30</age></person>`,
	`<person id="p5"><name>Erin</name><age>52</age></person>`,
}

const ingestQuery = `for $p in doc("site.xml")//person[./age/text() > 28]/name return $p`

// ingestReference loads base+frags at once — the equivalence oracle.
func ingestReference(t *testing.T, frags int) *Engine {
	t.Helper()
	text := ingestBase
	for _, f := range ingestFrags[:frags] {
		text += f
	}
	ref := NewEngine()
	if err := ref.LoadSource(FromXML("site.xml", text)); err != nil {
		t.Fatal(err)
	}
	return ref
}

func mustQuery(t *testing.T, e *Engine, q string) []string {
	t.Helper()
	res, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res.Items
}

func TestIngestMatchesBulkLoad(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadSource(FromXML("site.xml", ingestBase)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, frag := range ingestFrags {
		if err := eng.Append("site.xml", frag); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		ref := ingestReference(t, i+1)
		for _, q := range []string{
			ingestQuery,
			`for $p in doc("site.xml")//person order by $p/age return $p`,
			`for $p in doc("site.xml")//person return count($p)`,
			`for $p in doc("site.xml")//person order by $p/name return $p limit 2`,
		} {
			got, want := mustQuery(t, eng, q), mustQuery(t, ref, q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("after batch %d, query %q:\n got %v\nwant %v", i+1, q, got, want)
			}
		}
	}
	st := eng.Ingest().Stats()
	if st.Appends != int64(len(ingestFrags)) || st.Commits != int64(len(ingestFrags)) {
		t.Fatalf("stats: %+v", st)
	}
	if st.DeltaNodes == 0 || st.DeltaDocs != 1 {
		t.Fatalf("expected a live delta, got %+v", st)
	}
}

func TestIngestUncommittedInvisible(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadSource(FromXML("site.xml", ingestBase)); err != nil {
		t.Fatal(err)
	}
	before := mustQuery(t, eng, ingestQuery)
	if err := eng.Append("site.xml", ingestFrags[0]); err != nil {
		t.Fatal(err)
	}
	if got := mustQuery(t, eng, ingestQuery); !reflect.DeepEqual(got, before) {
		t.Fatalf("uncommitted append visible: %v vs %v", got, before)
	}
	if _, err := eng.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := mustQuery(t, eng, ingestQuery); reflect.DeepEqual(got, before) {
		t.Fatal("committed append not visible")
	}
}

func TestIngestCreatesDocument(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	if err := eng.Append("fresh.xml", `<items><item k="1"/></items>`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("fresh.xml", `<item k="2"/>`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	got := mustQuery(t, eng, `for $i in doc("fresh.xml")//item return count($i)`)
	if !reflect.DeepEqual(got, []string{"2"}) {
		t.Fatalf("count = %v", got)
	}
}

func TestIngestGenerationAdvances(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadSource(FromXML("site.xml", ingestBase)); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for _, frag := range ingestFrags {
		gen := eng.catalog().DocGeneration("site.xml")
		if gen <= last && last != 0 {
			t.Fatalf("generation not monotonic: %d after %d", gen, last)
		}
		last = gen
		if err := eng.Append("site.xml", frag); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if end := eng.catalog().DocGeneration("site.xml"); end <= last {
		t.Fatalf("final generation %d not past %d", end, last)
	}
}

func TestIngestPlanCacheAbsorbsCommit(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadSource(FromXML("site.xml", ingestBase)); err != nil {
		t.Fatal(err)
	}
	// Warm the plan cache.
	res, err := collectRows(eng.Execute(context.Background(), Request{Query: ingestQuery}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Fatal("cold query reported a cache hit")
	}
	if err := eng.Append("site.xml", ingestFrags[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A small append stays within the drift ratio: the stale-generation
	// entry replays and revalidates rather than re-optimizing.
	res, err = collectRows(eng.Execute(context.Background(), Request{Query: ingestQuery}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit {
		t.Fatal("post-commit query missed the plan cache")
	}
	want := mustQuery(t, ingestReference(t, 1), ingestQuery)
	if !reflect.DeepEqual(res.Items, want) {
		t.Fatalf("replayed results %v, want %v", res.Items, want)
	}
}

func TestIngestCollectionRoundRobin(t *testing.T) {
	eng := NewEngine()
	for _, sh := range []string{"a.xml", "b.xml"} {
		if err := eng.LoadCollectionSource("people", FromXML(sh, `<site/>`)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		frag := []string{
			`<person id="q1"><age>30</age></person>`,
			`<person id="q2"><age>31</age></person>`,
			`<person id="q3"><age>32</age></person>`,
			`<person id="q4"><age>33</age></person>`,
		}[i]
		if err := eng.Append("people", frag); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	got := mustQuery(t, eng, `for $p in collection("people")//person return count($p)`)
	if !reflect.DeepEqual(got, []string{"4"}) {
		t.Fatalf("collection count = %v", got)
	}
	// Round-robin across two shards: two fragments each.
	for _, sh := range []string{"a.xml", "b.xml"} {
		got := mustQuery(t, eng, `for $p in doc("`+sh+`")//person return count($p)`)
		if !reflect.DeepEqual(got, []string{"2"}) {
			t.Fatalf("shard %s count = %v", sh, got)
		}
	}
}

// TestIngestFourShardEquivalence is the wide-collection half of the
// equivalence proof: N mixed batches — some fragments addressed to specific
// shards, some round-robin through the collection name, commits interleaved
// — must leave a 4-shard collection answering every query shape (ordered,
// aggregate, limit tails, predicate scans) byte-identically to loading each
// shard's final content at once.
func TestIngestFourShardEquivalence(t *testing.T) {
	shards := []string{"s0.xml", "s1.xml", "s2.xml", "s3.xml"}
	person := func(i int) string {
		return fmt.Sprintf(`<person id="m%d"><name>n%d</name><age>%d</age></person>`, i, i%5, 20+i*3)
	}

	eng := NewEngine(WithSeed(3))
	for _, sh := range shards {
		if err := eng.LoadCollectionSource("people", FromXML(sh, `<site/>`)); err != nil {
			t.Fatal(err)
		}
	}
	// Replicate the ingester's routing: collection appends go round-robin
	// over the shard list in registration order.
	want := make(map[string]string, len(shards))
	rr := 0
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		target, frag := "people", person(i)
		if i%3 == 0 {
			target = shards[i%len(shards)]
		}
		if err := eng.Append(target, frag); err != nil {
			t.Fatal(err)
		}
		sh := target
		if sh == "people" {
			sh = shards[rr%len(shards)]
			rr++
		}
		want[sh] += frag
		if i%4 == 3 { // commit mid-stream so batches of mixed sizes publish
			if _, err := eng.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := eng.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	ref := NewEngine(WithSeed(3))
	for _, sh := range shards {
		if err := ref.LoadCollectionSource("people", FromXML(sh, `<site>`+want[sh]+`</site>`)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`for $p in collection("people")//person order by $p/age return $p`,
		`for $p in collection("people")//person return count($p)`,
		`for $p in collection("people")//person return sum($p/age)`,
		`for $p in collection("people")//person order by $p/age descending return $p limit 3`,
		`for $p in collection("people")//person[./age/text() > 30]/name return $p`,
	} {
		got, wantItems := mustQuery(t, eng, q), mustQuery(t, ref, q)
		if !reflect.DeepEqual(got, wantItems) {
			t.Fatalf("query %q:\n got %v\nwant %v", q, got, wantItems)
		}
	}
}

// TestIngestDriftReoptimizes closes the loop with the plan cache: a
// prepared query's cached plan survives small commits (stale-generation
// replay), but an ingest-driven 10× distribution shift must trip the
// cardinality drift check and re-optimize — with results identical to an
// engine that never cached anything.
func TestIngestDriftReoptimizes(t *testing.T) {
	const q = `for $n in doc("g.xml")//person/name return $n`
	eng := NewEngine(WithSeed(7))
	if err := eng.LoadSource(FromXML("g.xml", driftDoc(40))); err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := collectRows(eng.Execute(context.Background(), Request{Prepared: prep}))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHit {
		t.Fatal("cold prepared query cannot hit")
	}

	// Ingest persons 40..399 — the same content driftDoc(400) would carry —
	// in a handful of committed batches.
	ctx := context.Background()
	for lo := 40; lo < 400; lo += 120 {
		var sb strings.Builder
		for i := lo; i < lo+120 && i < 400; i++ {
			fmt.Fprintf(&sb, `<person id="p%d"><name>n%d</name></person>`, i, i%7)
		}
		if err := eng.Append("g.xml", sb.String()); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}

	res, err := collectRows(eng.Execute(context.Background(), Request{Prepared: prep}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Error("10×-drifted replay must not count as a served cache hit")
	}
	if !res.Stats.Reoptimized {
		t.Error("ingest-driven 10× growth should re-optimize")
	}
	if cs := eng.CacheStats(); cs.Counters.Drifts != 1 {
		t.Errorf("drift count = %d, want 1: %+v", cs.Counters.Drifts, cs.Counters)
	}
	plain := NewEngine(WithSeed(7), WithPlanCache(0))
	if err := plain.LoadSource(FromXML("g.xml", driftDoc(400))); err != nil {
		t.Fatal(err)
	}
	truth, err := collectRows(plain.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Items, truth.Items) {
		t.Error("re-optimized results differ from uncached ground truth")
	}
	// The re-optimized plan is installed: the next execution replays clean.
	again, err := collectRows(eng.Execute(context.Background(), Request{Prepared: prep}))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Stats.CacheHit || !reflect.DeepEqual(again.Items, truth.Items) {
		t.Errorf("post-drift prepared replay: hit=%v", again.Stats.CacheHit)
	}
}

// TestIngestConcurrentReaders races readers against a committing writer
// (run with -race): every query must land on a committed snapshot — the
// person count is always one of the published states, never a half-applied
// batch — and per-reader counts never move backwards.
func TestIngestConcurrentReaders(t *testing.T) {
	const batches = 30
	eng := NewEngine()
	if err := eng.LoadSource(FromXML("site.xml", `<site><person id="c0"><age>20</age></person></site>`)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := collectRows(eng.Execute(context.Background(), Request{Query: `for $p in doc("site.xml")//person return count($p)`}))
				if err != nil {
					errs <- err
					return
				}
				n, err := strconv.Atoi(res.Items[0])
				if err != nil || n < 1 || n > batches+1 {
					errs <- fmt.Errorf("impossible snapshot count %q", res.Items[0])
					return
				}
				if n < last {
					errs <- fmt.Errorf("count went backwards: %d after %d", n, last)
					return
				}
				last = n
			}
		}()
	}

	ctx := context.Background()
	for i := 1; i <= batches; i++ {
		if err := eng.Append("site.xml", fmt.Sprintf(`<person id="c%d"><age>%d</age></person>`, i, 20+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := mustQuery(t, eng, `for $p in doc("site.xml")//person return count($p)`); !reflect.DeepEqual(got, []string{fmt.Sprint(batches + 1)}) {
		t.Fatalf("final count = %v", got)
	}
}

func TestIngestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "ingest")

	eng := NewEngine()
	if err := eng.LoadSource(FromXML("site.xml", ingestBase)); err != nil {
		t.Fatal(err)
	}
	if n, err := eng.OpenIngestDir(walDir); err != nil || n != 0 {
		t.Fatalf("first open: n=%d err=%v", n, err)
	}
	ctx := context.Background()
	for _, frag := range ingestFrags[:2] {
		if err := eng.Append("site.xml", frag); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// An uncommitted append must NOT survive the restart.
	if err := eng.Append("site.xml", ingestFrags[2]); err != nil {
		t.Fatal(err)
	}
	want := mustQuery(t, ingestReference(t, 2), ingestQuery)
	// Abandon the engine without committing — the crash.
	if err := eng.Ingest().Close(); err != nil {
		t.Fatal(err)
	}

	restarted := NewEngine()
	if err := restarted.LoadSource(FromXML("site.xml", ingestBase)); err != nil {
		t.Fatal(err)
	}
	n, err := restarted.OpenIngestDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d batches, want 2", n)
	}
	if got := mustQuery(t, restarted, ingestQuery); !reflect.DeepEqual(got, want) {
		t.Fatalf("after restart: %v, want %v", got, want)
	}
	st := restarted.Ingest().Stats()
	if !st.Durable || st.ReplayedBatches != 2 || st.LastCommitGen == 0 {
		t.Fatalf("restart stats: %+v", st)
	}
	// Ingest continues where the log left off, with increasing sequences.
	if err := restarted.Append("site.xml", ingestFrags[2]); err != nil {
		t.Fatal(err)
	}
	seq, err := restarted.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("post-restart commit seq %d, want 3", seq)
	}
	if got := mustQuery(t, restarted, ingestQuery); !reflect.DeepEqual(got, mustQuery(t, ingestReference(t, 3), ingestQuery)) {
		t.Fatalf("post-restart ingest diverged: %v", got)
	}
}

// TestOpenIngestDirCorruptSnapshotPublishesNothing pins that OpenIngestDir
// opens every compacted snapshot before it registers any: when one of them is
// corrupt the call fails and the catalog still holds the corpus load, not a
// mix of snapshots and stale documents.
func TestOpenIngestDirCorruptSnapshotPublishesNothing(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "ingest")
	docs := []string{"a.xml", "b.xml"}
	load := func() *Engine {
		eng := NewEngine()
		for _, name := range docs {
			if err := eng.LoadSource(FromXML(name, `<log><e/></log>`)); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}
	eng := load()
	if _, err := eng.OpenIngestDir(walDir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range docs {
		if err := eng.Append(name, `<e/>`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest().Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest().Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(walDir, "b.xml.*.roxd"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("b.xml snapshots = %v (%v), want one", snaps, err)
	}
	// Unlink first: the first engine may still map the old file.
	if err := os.Remove(snaps[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snaps[0], []byte("ROXD"), 0o644); err != nil {
		t.Fatal(err)
	}

	restarted := load()
	if _, err := restarted.OpenIngestDir(walDir); err == nil {
		t.Fatal("OpenIngestDir over a corrupt snapshot succeeded")
	}
	q := `for $e in doc("a.xml")//e return count($e)`
	if got := mustQuery(t, restarted, q); !reflect.DeepEqual(got, []string{"1"}) {
		t.Fatalf("a.xml after the failed open: %v, want [1] (the corpus load)", got)
	}
}

func TestIngestCompaction(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "ingest")

	eng := NewEngine()
	if err := eng.LoadSource(FromXML("site.xml", ingestBase)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OpenIngestDir(walDir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, frag := range ingestFrags {
		if err := eng.Append("site.xml", frag); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	stBefore := eng.Ingest().Stats()
	if stBefore.DeltaNodes == 0 || stBefore.WALSize == 0 {
		t.Fatalf("pre-compaction stats: %+v", stBefore)
	}
	if err := eng.Ingest().Compact(ctx); err != nil {
		t.Fatal(err)
	}
	st := eng.Ingest().Stats()
	if st.DeltaNodes != 0 || st.WALSize != 0 || st.Compactions != 1 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
	want := mustQuery(t, ingestReference(t, 3), ingestQuery)
	if got := mustQuery(t, eng, ingestQuery); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compaction results: %v, want %v", got, want)
	}
	// Restart from the compacted snapshot: no batches to replay, results
	// identical even though the corpus load is stale (pre-ingest).
	restarted := NewEngine()
	if err := restarted.LoadSource(FromXML("site.xml", ingestBase)); err != nil {
		t.Fatal(err)
	}
	n, err := restarted.OpenIngestDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("replayed %d batches after compaction, want 0", n)
	}
	if got := mustQuery(t, restarted, ingestQuery); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart after compaction: %v, want %v", got, want)
	}
	// The snapshot file is a packed container on disk.
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	foundSnap := false
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".roxd" {
			foundSnap = true
		}
	}
	if !foundSnap {
		t.Fatal("no packed snapshot in ingest dir after compaction")
	}
	// Ingest continues on top of the compacted (mapped) base.
	if err := restarted.Append("site.xml", `<person id="p6"><name>Frank</name><age>60</age></person>`); err != nil {
		t.Fatal(err)
	}
	if _, err := restarted.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := mustQuery(t, restarted, `for $p in doc("site.xml")//person return count($p)`); !reflect.DeepEqual(got, []string{"6"}) {
		t.Fatalf("post-compaction ingest count: %v", got)
	}
}

func TestIngestAutoCompact(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadSource(FromXML("site.xml", ingestBase)); err != nil {
		t.Fatal(err)
	}
	ing := eng.Ingest()
	ing.SetCompactAfter(1)
	if err := ing.Append("site.xml", ingestFrags[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := ing.Stats()
	if st.Compactions != 1 || st.DeltaNodes != 0 {
		t.Fatalf("auto-compaction stats: %+v", st)
	}
	want := mustQuery(t, ingestReference(t, 1), ingestQuery)
	if got := mustQuery(t, eng, ingestQuery); !reflect.DeepEqual(got, want) {
		t.Fatalf("after auto-compaction: %v, want %v", got, want)
	}
}

func TestIngestExternalSwapRebases(t *testing.T) {
	eng := NewEngine()
	if err := eng.LoadSource(FromXML("site.xml", ingestBase)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("site.xml", ingestFrags[0]); err != nil {
		t.Fatal(err)
	}
	// Someone reloads the document while an append is pending: the overlay
	// rebases onto the new base, retaining its appends.
	const newBase = `<site><person id="x1"><name>Zoe</name><age>99</age></person></site>`
	if err := eng.LoadSource(FromXML("site.xml", newBase)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("site.xml", ingestFrags[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref := NewEngine()
	if err := ref.LoadSource(FromXML("site.xml", newBase+ingestFrags[0]+ingestFrags[1])); err != nil {
		t.Fatal(err)
	}
	got, want := mustQuery(t, eng, ingestQuery), mustQuery(t, ref, ingestQuery)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after external swap: %v, want %v", got, want)
	}
}
