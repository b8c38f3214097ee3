package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	rox "repro"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/joingraph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/planenum"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// allClasses names every read class of every workload, in report order: the
// per-layer list carries serve.<class>_p50_ms and _p99_ms for each, and a
// workload reports 0 for the classes it does not run.
var allClasses = []string{"join", "joincount", "topk", "agg", "scan", "c40", "c31", "c22", "cir", "cmix", "page"}

// layerOps bounds the sequential layer pass: it ends after this many ops per
// class (or when its share of the run's time is used up).
const layerOps = 200

// layerMetrics collects per-layer metrics in report order.
type layerMetrics []metric

func (m *layerMetrics) add(name string, v float64, unit string) {
	*m = append(*m, metric{name, v, unit})
}

// tracedRun is the per-layer run. It spends a third of the run's time on each
// of three parts and then probes single layers:
//
//	A  the closed-loop traffic with the tracer off (no span is recorded)
//	B  the same traffic with the tracer on: real spans at the client, the
//	   handler, the coordinator's shard calls and the shard servers
//	C  a sequential pass, one request at a time: each op goes over HTTP,
//	   then straight into the serving engine, then through the twin's
//	   layer-by-layer re-enactment — the part the budget is built from
//
// B against A is the tracing overhead; C's twin against C's real handler
// spans is the reconciliation.
func tracedRun(cfg runConfig, d *driver, in *inputs, tr *tracer, scratch string, dur time.Duration, account func(*phase)) ([]metric, error) {
	w, st := d.w, d.st
	part := 2 * dur / 3 // A and B together; C gets the last third

	// A and B alternate in slices, so that whatever drifts over the run —
	// the machine, or ingest-mixed's growing corpus — lands on both alike.
	const slices = 6
	pA, pB := newPhase(w), newPhase(w)
	var cache0, cache1 metrics.CacheSnapshot
	var compactions int64
	for i := 0; i < slices; i++ {
		// One untraced and one traced slice, the order swapping every time.
		var a, b *phase
		var c0, c1 metrics.CacheSnapshot
		var k0, k1 int64
		untraced := func() error {
			before := tr.len()
			runtime.GC()
			a = d.run(part/(2*slices), cfg.MaxRounds, tr)
			if n := tr.len() - before; n != 0 {
				return fmt.Errorf("the untraced phase recorded %d spans", n)
			}
			return nil
		}
		traced := func() {
			c0, k0 = cacheCounters(st), st.front.eng.Ingest().Stats().Compactions
			tr.on.Store(true)
			runtime.GC()
			b = d.run(part/(2*slices), cfg.MaxRounds, tr)
			tr.on.Store(false)
			c1, k1 = cacheCounters(st), st.front.eng.Ingest().Stats().Compactions
		}
		if i%2 == 0 {
			if err := untraced(); err != nil {
				return nil, err
			}
			traced()
		} else {
			traced()
			if err := untraced(); err != nil {
				return nil, err
			}
		}
		for _, p := range []struct{ sum, part *phase }{{pA, a}, {pB, b}} {
			account(p.part)
			p.sum.merge(p.part)
			p.sum.wall += p.part.wall
			p.sum.cpu += p.part.cpu
		}
		cache0, cache1 = addCache(cache0, c0), addCache(cache1, c1)
		compactions += k1 - k0
	}
	// As measured: the two alternate slice by slice, so the machine's drift
	// lands on both alike.
	qpsA, qpsB := pA.qps(), pB.qps()
	fmt.Fprintf(cfg.Log, "# traced phase: %d ops; untraced %.1f qps, traced %.1f qps\n", pB.attempted, qpsA, qpsB)

	tr.on.Store(false) // building and warming the twin is not traced
	tw, probes, err := buildTwin(cfg, w, d, in, tr, scratch)
	if err != nil {
		return nil, err
	}
	defer tw.close()
	// The serving engine's caches are warm; the twin's must be too, or the
	// pass would show optimizer runs the engine no longer makes.
	for _, c := range w.Classes {
		for _, v := range c.Variants {
			if _, err := tw.query(0, w, v); err != nil {
				return nil, fmt.Errorf("warming the twin on %s: %w", c.Name, err)
			}
		}
	}
	tr.on.Store(true)
	cStart := tr.len()
	pC, direct, err := layerPass(cfg, d, tw, tr, dur/3)
	if err != nil {
		return nil, err
	}
	account(pC)
	tr.on.Store(false)
	spans := tr.spans[cStart:]
	if err := classProbes(w, tw, probes); err != nil {
		return nil, err
	}
	if w.Name == "cold-dblp" {
		if probes.regret, err = planRegret(w, tw); err != nil {
			return nil, err
		}
	}

	if err := tr.writeJSONL(filepath.Join(cfg.Out, "trace-"+w.Name+".jsonl")); err != nil {
		return nil, err
	}
	rec := reconcile(w, tr.spans, cStart)
	rec.print(cfg.Log, w)

	sum := summarize(spans)
	reads := float64(max(pB.ok()-len(pB.writeLat), 1))
	var m layerMetrics
	m.add("xquery.parse_us", sum.meanUS("xquery.parse"), "us")
	m.add("xquery.compile_us", sum.meanUS("xquery.compile"), "us")
	m.add("joingraph.fingerprint_us", sum.meanUS("joingraph.fingerprint"), "us")
	m.add("plancache.lookup_us", sum.meanUS("plancache.lookup"), "us")
	lookups := float64(cache1.Hits + cache1.StaleHits + cache1.Misses - cache0.Hits - cache0.StaleHits - cache0.Misses)
	m.add("plancache.hit_ratio", ratio(float64(cache1.Hits-cache0.Hits), lookups), "ratio")
	m.add("plancache.stale_hits", float64(cache1.StaleHits-cache0.StaleHits), "count")
	m.add("plancache.drifts", float64(cache1.Drifts-cache0.Drifts), "count")
	m.add("core.run_ms", sum.meanMS("core.run"), "ms")
	m.add("core.sample_tuples_per_query", float64(pB.sampleTuples)/reads, "count")
	m.add("core.exec_tuples_per_query", float64(pB.execTuples)/reads, "count")
	m.add("core.sample_share", ratio(float64(pB.sampleTuples), float64(pB.sampleTuples+pB.execTuples)), "ratio")
	m.add("core.explorations_per_query", ratio(sum.count("core.run", "explorations"), float64(rec.ops)), "count")
	m.add("core.cum_intermediate_per_query", float64(pB.cumIntermediate)/reads, "count")
	m.add("core.plan_regret", probes.regret, "ratio")
	m.add("plan.exec_edges_ms", ratio(sum.totalMS("plan.exec_edge"), float64(sum.n["plan.replay"])), "ms")
	m.add("plan.final_relation_ms", sum.meanMS("plan.final_relation"), "ms")
	m.add("plan.tail_ms", sum.meanMS("plan.tail"), "ms")
	m.add("plan.rows_scanned_per_result", ratio(float64(pB.scanned), float64(pB.rows)), "ratio")
	m.add("ops.staircase_ns_per_tuple", probes.staircaseNS, "ns")
	m.add("ops.valuejoin_ns_per_tuple", probes.valueJoinNS, "ns")
	m.add("table.distinct_ms", probes.distinctMS, "ms")
	m.add("table.sort_ms", probes.sortMS, "ms")
	m.add("rox.execute_ms", sum.meanMS("rox.execute"), "ms")
	m.add("rox.drain_ms", sum.meanMS("rox.drain"), "ms")
	m.add("rox.alloc_kb_per_query", ratio(float64(direct.allocated)/1024, float64(direct.n)), "KiB")
	m.add("rox.allocs_per_query", ratio(float64(direct.mallocs), float64(direct.n)), "count")
	m.add("rox.shard_skew", ratio(pB.skewSum, float64(pB.skewN)), "ratio")
	m.add("xmltree.shred_mb_per_s", probes.shredMBs, "MB/s")
	m.add("xmltree.serialize_us_per_item", ratio(sum.totalMS("rox.render")*1000, sum.count("rox.render", "items")), "us")
	m.add("xmltree.packed_bytes_per_xml_byte", probes.packedRatio, "ratio")
	m.add("index.build_ms", probes.indexBuildMS, "ms")
	m.add("index.open_packed_ms", probes.openPackedMS, "ms")
	m.add("index.delta_build_ms", probes.deltaBuildMS, "ms")
	m.add("index.bytes_per_node", probes.indexBytesPerNode, "B")
	m.add("serve.request_ms", rec.requestMS, "ms")
	m.add("serve.self_ms", rec.serveSelfMS, "ms")
	m.add("serve.response_bytes_per_query", float64(pB.respBytes)/reads, "B")
	p50, p99 := pB.classQuantile(0.50), pB.classQuantile(0.99)
	for _, name := range allClasses {
		v50, v99 := 0.0, 0.0
		for i, c := range w.Classes {
			if c.Name == name {
				v50, v99 = p50[i], p99[i]
			}
		}
		m.add("serve."+name+"_p50_ms", v50, "ms")
		m.add("serve."+name+"_p99_ms", v99, "ms")
	}
	trips := float64(sum.n["shardrpc.roundtrip"])
	m.add("shardrpc.roundtrip_ms", sum.meanMS("shardrpc.roundtrip"), "ms")
	m.add("shardrpc.wire_overhead_ms", ratio(rec.wireSelfMS, trips), "ms")
	m.add("shardrpc.bytes_per_item", ratio(sum.count("shardrpc.roundtrip", "bytes"), sum.count("shardrpc.roundtrip", "lines")-trips), "B")
	m.add("shardrpc.requests_per_query", ratio(trips, float64(rec.ops)), "count")
	m.add("ingest.write_p50_ms", median(millis(pB.writeLat)), "ms")
	m.add("ingest.wal_append_us", sum.meanUS("ingest.wal_append"), "us")
	m.add("ingest.wal_commit_ms", sum.meanMS("ingest.wal_commit"), "ms")
	m.add("ingest.publish_ms", sum.meanMS("ingest.publish"), "ms")
	m.add("ingest.wal_bytes_per_user_byte", ratio(float64(tw.walBytes), float64(tw.xmlBytes)), "ratio")
	m.add("ingest.compactions", float64(compactions), "count")
	m.add("ingest.compact_ms", sum.meanMS("ingest.compact"), "ms")
	m.add("ingest.replay_ms", ms(st.replayDur), "ms")
	// The end-to-end timings that repeat too badly on the sandbox to be
	// gated (see the README), from the untraced half of the traffic and
	// brought to nominal speed by one reading over all of it.
	sp, _, _ := pA.speeds()
	m.add("e2e.throughput_qps", qpsA/sp, "1/s")
	m.add("e2e.read_p50_ms", geomean(pA.classQuantile(0.50))*sp, "ms")
	m.add("e2e.cpu_ms_per_query", ratio(ms(pA.cpu-pA.kernelCPU()), float64(pA.ok()))*sp, "ms")
	m.add("trace.overhead_pct", 100*(1-ratio(qpsB, qpsA)), "%")
	m.add("trace.unattributed_pct", rec.unattributedPct, "%")
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func addCache(a, b metrics.CacheSnapshot) metrics.CacheSnapshot {
	a.Hits += b.Hits
	a.StaleHits += b.StaleHits
	a.Misses += b.Misses
	a.Drifts += b.Drifts
	return a
}

// cacheCounters sums the plan-cache counters of every engine of the stack.
func cacheCounters(st *stack) metrics.CacheSnapshot {
	var sum metrics.CacheSnapshot
	for _, eng := range st.engines() {
		sum = addCache(sum, eng.CacheStats().Counters)
	}
	return sum
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	n      map[string]int
	durNS  map[string]int64
	counts map[string]map[string]float64
}

func summarize(spans []span) *spanSummary {
	s := &spanSummary{n: map[string]int{}, durNS: map[string]int64{}, counts: map[string]map[string]float64{}}
	for i := range spans {
		sp := &spans[i]
		s.n[sp.Name]++
		s.durNS[sp.Name] += sp.dur()
		for k, v := range sp.Counts {
			if s.counts[sp.Name] == nil {
				s.counts[sp.Name] = map[string]float64{}
			}
			s.counts[sp.Name][k] += v
		}
	}
	return s
}

func (s *spanSummary) totalMS(name string) float64 { return float64(s.durNS[name]) / 1e6 }
func (s *spanSummary) meanMS(name string) float64  { return ratio(s.totalMS(name), float64(s.n[name])) }
func (s *spanSummary) meanUS(name string) float64  { return 1000 * s.meanMS(name) }
func (s *spanSummary) count(name, key string) float64 {
	return s.counts[name][key]
}

// probeResults are the single-layer measurements taken outside any request.
type probeResults struct {
	shredMBs, packedRatio           float64
	indexBuildMS, indexBytesPerNode float64
	openPackedMS, deltaBuildMS      float64
	staircaseNS, valueJoinNS        float64
	distinctMS, sortMS              float64
	regret                          float64
}

// buildTwin builds the twin's own catalog from the workload's corpus files
// with the storage layers' public functions — which doubles as the storage
// probes: shredding, index build, packing, mapping, delta build.
func buildTwin(cfg runConfig, w *workload, d *driver, in *inputs, tr *tracer, scratch string) (*twin, *probeResults, error) {
	pr := &probeResults{}
	cat := plan.NewCatalog()
	var files []string
	switch w.Name {
	case "cold-dblp":
		files = in.dblp
	case "replay-xmark":
		files = []string{filepath.Join(in.xmarkDir, "xmark.xml")}
	default:
		for _, name := range shardNames() {
			files = append(files, filepath.Join(in.xmarkDir, name))
		}
	}
	var xmlBytes, packedBytes int64
	var parse, build, open time.Duration
	var heap0 uint64
	var lastIx *index.Index
	for i, path := range files {
		name := filepath.Base(path)
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		if w.Writes {
			// The served state is base + every fragment acknowledged so
			// far; the twin starts level with it.
			for _, f := range shardFragments(cfg.Seed, d.clients, i) {
				text = append(text, f...)
			}
		}
		t0 := time.Now()
		doc, err := xmltree.ParseString(name, string(text))
		if err != nil {
			return nil, nil, err
		}
		parse += time.Since(t0)
		xmlBytes += int64(len(text))
		if i == 0 {
			heap0 = heapAfterGC()
		}
		t0 = time.Now()
		ix := index.New(doc)
		build += time.Since(t0)
		if i == 0 {
			pr.indexBytesPerNode = ratio(float64(heapAfterGC())-float64(heap0), float64(doc.Len()))
		}
		packed := filepath.Join(scratch, name+".roxd")
		if err := index.WritePackedFile(packed, ix); err != nil {
			return nil, nil, err
		}
		if fi, err := os.Stat(packed); err == nil {
			packedBytes += fi.Size()
		}
		t0 = time.Now()
		mapped, err := index.OpenPackedFile(packed)
		if err != nil {
			return nil, nil, err
		}
		open += time.Since(t0)
		if w.Name == "scatter-remote" {
			ix = mapped // the shard servers serve the mapped form
		}
		if w.Collection {
			cat.AddCollectionShard(xmarkColl, ix)
		} else {
			cat.AddIndexed(ix)
		}
		lastIx = ix
	}
	pr.shredMBs = ratio(float64(xmlBytes)/1e6, parse.Seconds())
	pr.indexBuildMS = ms(build)
	pr.openPackedMS = ms(open)
	pr.packedRatio = ratio(float64(packedBytes), float64(xmlBytes))

	// Delta build: extend the last document by 40 write batches and index
	// the overlay against its base.
	app := xmltree.NewAppender(lastIx.Doc())
	for i := 0; i < 40; i++ {
		if err := app.AppendXML("probe", probeFragment(w, cfg.Seed, i)); err != nil {
			return nil, nil, err
		}
	}
	snap := app.Snapshot()
	t0 := time.Now()
	index.NewDelta(lastIx, snap)
	pr.deltaBuildMS = ms(time.Since(t0))

	tw, err := newTwin(tr, cat, w.Name != "cold-dblp")
	if err != nil {
		return nil, nil, err
	}
	if w.Writes {
		if err := tw.openIngest(filepath.Join(scratch, "twin-wal")); err != nil {
			tw.close()
			return nil, nil, err
		}
	}
	return tw, pr, nil
}

// probeFragment is what the delta probe appends: a write batch, wrapped to
// suit the DBLP documents' root on cold-dblp (content only matters in size).
func probeFragment(w *workload, seed, i int) string {
	if w.Name == "cold-dblp" {
		return fmt.Sprintf(`<article><title>probe %d</title><author>probe author %d</author><author>probe author %d</author></article>`, i, i, i+1)
	}
	return ingestBatch(seed, preWriter, 1000+i)
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// directCost is what the in-process Engine.Execute calls of the layer pass
// allocated (the pass is sequential, so the MemStats deltas are the call's).
type directCost struct {
	n                  int
	allocated, mallocs uint64
}

// layerPass is part C: one client, one request at a time. Every op runs
// three times under one request id — over HTTP (checked like any other op),
// directly against the serving engine (rox.execute / rox.drain), and through
// the twin (whose result is checked against the oracle too).
func layerPass(cfg runConfig, d *driver, tw *twin, tr *tracer, budget time.Duration) (*phase, *directCost, error) {
	w, c := d.w, d.clients[0]
	p := newPhase(w)
	direct := &directCost{}
	eng := d.st.front.eng
	ctx := context.Background()
	deadline := time.Now().Add(budget)
	rounds := layerOps
	if cfg.MaxRounds > 0 {
		rounds = min(rounds, cfg.MaxRounds)
	}
	start := time.Now()
	items := make([]string, 0, 4096) // reused, so draining allocates only the items
	for round := 0; round < rounds && (round == 0 || time.Now().Before(deadline)); round++ {
		for k := 0; k < w.roundLen(); k++ {
			o := w.schedule(d.seed, c.id, c.next)
			req := tr.request()
			c.req = req
			d.step(c, p, start, tr)
			c.req = 0
			if o.Write {
				if err := tw.write(req, shardName(writeTarget(c.id, o.Seq)), ingestBatch(d.seed, c.id, o.Seq)); err != nil {
					return nil, nil, fmt.Errorf("twin write: %w", err)
				}
				continue
			}
			v := w.Classes[o.Class].Variants[o.Variant]
			p.attempted += 2

			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			root := tr.start(0, req, "rox.query")
			ex := tr.start(root, req, "rox.execute")
			rows, err := eng.Execute(ctx, rox.Request{Query: v.Query, Limit: v.Limit, Offset: v.Offset})
			tr.end(ex, nil)
			items = items[:0]
			if err == nil {
				dr := tr.start(root, req, "rox.drain")
				for rows.Next() {
					items = append(items, rows.Item())
				}
				err = rows.Err()
				rows.Close()
				tr.end(dr, nil)
			}
			tr.end(root, map[string]float64{"class": float64(o.Class)})
			runtime.ReadMemStats(&m1)
			direct.n++
			direct.allocated += m1.TotalAlloc - m0.TotalAlloc
			direct.mallocs += m1.Mallocs - m0.Mallocs
			var got digest // digested outside the span and the MemStats window
			for _, it := range items {
				got.add(itemLine(it))
			}
			if err != nil {
				p.fail(fmt.Errorf("direct %s: %w", w.Classes[o.Class].Name, err))
			} else if d.orc != nil && got != d.orc[o.Class][o.Variant] {
				p.fail(fmt.Errorf("direct %s: digest %+v, oracle %+v", w.Classes[o.Class].Name, got, d.orc[o.Class][o.Variant]))
			}

			twinGot, err := tw.query(req, w, v)
			switch {
			case err != nil:
				p.fail(fmt.Errorf("twin %s: %w", w.Classes[o.Class].Name, err))
			case d.orc != nil && twinGot != d.orc[o.Class][o.Variant]:
				p.fail(fmt.Errorf("twin %s: digest %+v, oracle %+v", w.Classes[o.Class].Name, twinGot, d.orc[o.Class][o.Variant]))
			case d.orc == nil && twinGot != got:
				// The state moves, but the twin moved with it: it must agree
				// with the serving engine on every read.
				p.fail(fmt.Errorf("twin %s: digest %+v, engine %+v", w.Classes[o.Class].Name, twinGot, got))
			}
		}
	}
	p.wall = time.Since(start)
	return p, direct, nil
}

// reconciliation compares, per class, what the real spans of the layer pass
// measured with what the twin's layer spans add up to.
type reconciliation struct {
	ops             int
	requestMS       float64 // mean serve.request
	serveSelfMS     float64 // mean serve.request − server-reported engine time
	wireSelfMS      float64 // total self time of shardrpc.roundtrip spans
	unattributedPct float64 // worst class
	classes         []classBudget
}

// classBudget is one class's latency budget: mean ms per request.
type classBudget struct {
	n         int
	request   float64            // serve.request: client side, whole request
	client    float64            // serve.request self: client + transport
	handler   float64            // serve.handler: the production handler
	wire      float64            // shardrpc.roundtrip self, per unit of fan-out
	layers    map[string]float64 // twin pipeline self time by layer
	pipeline  float64            // twin pipeline, wall
	residual  float64            // handler time the budget does not explain
	serveSelf float64
}

// reconcile builds the budgets from the spans of the layer pass (those from
// index from on; ids are global, so parents resolve in all).
//
// For a local stack the handler's time should equal the twin pipeline's.
// For scatter-remote the handler covers the coordinator's own work plus the
// shard round trips: its time outside the round trips is compared with the
// twin's time outside its scatter, and the shard servers' handler time with
// the twin's per-shard time, per unit of fan-out.
func reconcile(w *workload, all []span, from int) *reconciliation {
	tree := newSpanTree(all)
	self := tree.self
	type acc struct {
		classBudget
		handlerSelf, scatter, shardSrv, shardTwin, engineNS float64
	}
	accs := make([]acc, len(w.Classes))
	for i := range accs {
		accs[i].layers = map[string]float64{}
	}
	byReq := make(map[int]int) // request → class, from the serve.request span
	for _, s := range all[from:] {
		if s.Name == "serve.request" && s.Counts != nil {
			byReq[s.Request] = int(s.Counts["class"])
		}
	}
	rec := &reconciliation{}
	for _, s := range all[from:] {
		ci, ok := byReq[s.Request]
		if !ok {
			continue
		}
		a := &accs[ci]
		d := float64(s.dur()) / 1e6
		switch s.Name {
		case "serve.request":
			a.n++
			a.request += d
			a.client += float64(self[s.ID-1]) / 1e6
			a.engineNS += s.Counts["engine_ns"]
		case "serve.handler":
			a.handler += d
			a.handlerSelf += float64(self[s.ID-1]) / 1e6
		case "shardrpc.roundtrip":
			a.wire += float64(self[s.ID-1]) / 1e6
			rec.wireSelfMS += float64(self[s.ID-1]) / 1e6
		case "rox.shard_server":
			a.shardSrv += d
		case "rox.shard":
			a.shardTwin += d
		case "rox.scatter":
			a.scatter += d
		case "rox.pipeline":
			a.pipeline += d
			for l, ns := range tree.layerSelf(s.ID) {
				a.layers[l] += float64(ns) / 1e6
			}
		}
	}
	var reqSum, selfSum float64
	for ci := range accs {
		a := &accs[ci]
		n := float64(max(a.n, 1))
		b := a.classBudget
		b.request, b.client, b.handler, b.pipeline = a.request/n, a.client/n, a.handler/n, a.pipeline/n
		b.wire = a.wire / n / numClients
		for l := range b.layers {
			b.layers[l] /= n
		}
		if w.Name == "scatter-remote" {
			b.residual = (a.handlerSelf-(a.pipeline-a.scatter))/n + (a.shardSrv-a.shardTwin)/n/numClients
		} else {
			b.residual = (a.handler - a.pipeline) / n
		}
		b.serveSelf = (a.request - a.engineNS/1e6) / n
		rec.classes = append(rec.classes, b)
		rec.ops += a.n
		reqSum += a.request
		selfSum += a.request - a.engineNS/1e6
		if pct := 100 * abs(b.residual) / b.request; a.n > 0 && pct > rec.unattributedPct {
			rec.unattributedPct = pct
		}
	}
	rec.requestMS = ratio(reqSum, float64(rec.ops))
	rec.serveSelfMS = ratio(selfSum, float64(rec.ops))
	return rec
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// print writes the latency budget: per class, the mean request time and where
// it goes. "client" is the request span's own time (client + transport),
// "handler" the production handler; the layer columns split the handler's
// time the way the twin's spans do; "residual" is handler time the twin does
// not explain (negative: the twin is slower than the engine).
func (r *reconciliation) print(log io.Writer, w *workload) {
	layerSet := map[string]bool{}
	for _, b := range r.classes {
		for l := range b.layers {
			layerSet[l] = true
		}
	}
	var layers []string
	for l := range layerSet {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(log, "# latency budget, mean ms per request (layer pass, sequential)\n")
	fmt.Fprintf(log, "# | class | n | request | client | handler | wire | %s | residual | residual %% |\n", strings.Join(layers, " | "))
	for i, b := range r.classes {
		var cols []string
		for _, l := range layers {
			cols = append(cols, fmt.Sprintf("%.3f", b.layers[l]))
		}
		fmt.Fprintf(log, "# | %s | %d | %.3f | %.3f | %.3f | %.3f | %s | %+.3f | %.1f |\n",
			w.Classes[i].Name, b.n, b.request, b.client, b.handler, b.wire, strings.Join(cols, " | "),
			b.residual, 100*abs(b.residual)/b.request)
	}
}

// classProbes measures single operators on the workload's own data: the
// first step edge and the first value join of every class's graph through
// the ops package, and Distinct / SortBy on every class's joined relation.
func classProbes(w *workload, tw *twin, pr *probeResults) error {
	var stepNS, stepTuples, joinNS, joinTuples float64
	var distinct, sorted []float64
	for _, c := range w.Classes {
		comp, err := xquery.CompileString(c.Variants[0].Query, xquery.CompileOptions{})
		if err != nil {
			return err
		}
		if w.Collection {
			comp = comp.ForShard(xmarkColl, shardName(0))
		}
		env := plan.NewQueryEnv(tw.cat, metrics.NewRecorder(), engineSeed)
		g := comp.Graph
		for _, kind := range []joingraph.EdgeKind{joingraph.StepEdge, joingraph.JoinEdge} {
			for _, e := range g.Edges {
				if e.Kind != kind || e.Derived || plan.RedundantEdges(g)[e.ID] || g.Vertices[e.From].Kind == joingraph.VRoot {
					continue
				}
				from, err := env.VertexTable(g.Vertices[e.From])
				if err != nil {
					return err
				}
				to, err := env.VertexTable(g.Vertices[e.To])
				if err != nil {
					return err
				}
				t0 := time.Now()
				if kind == joingraph.StepEdge {
					ops.StepPairs(env.Rec, from.Doc, e.Axis, from.Nodes, to.Nodes, 0)
					stepNS += float64(time.Since(t0))
					stepTuples += float64(from.Len() + to.Len())
				} else {
					ops.ValueJoinPairs(env.Rec, ops.JoinHash, from.Doc, from.Nodes, to.Doc, to.Nodes, nil, 0)
					joinNS += float64(time.Since(t0))
					joinTuples += float64(from.Len() + to.Len())
				}
				break
			}
		}
		// The joined relation before the tail: run ROX once for the plan,
		// replay it edge by edge, then time the tail's two table operators.
		_, res, err := core.Run(env, g, comp.Tail, tw.opts)
		if err != nil {
			return err
		}
		r := plan.NewRunner(plan.NewQueryEnv(tw.cat, metrics.NewRecorder(), engineSeed), g)
		for _, s := range res.Plan.Steps {
			if _, err := r.ExecEdge(g.Edges[s.EdgeID], s.Reverse, s.Alg); err != nil {
				return err
			}
		}
		rel, err := r.FinalRelation(comp.Tail.Required(g))
		if err != nil {
			return err
		}
		if len(comp.Tail.Project) > 0 {
			rel = rel.Project(comp.Tail.Project)
		}
		t0 := time.Now()
		rel = rel.Distinct()
		distinct = append(distinct, ms(time.Since(t0)))
		t0 = time.Now()
		rel.SortBy(comp.Tail.Project)
		sorted = append(sorted, ms(time.Since(t0)))
	}
	pr.staircaseNS = ratio(stepNS, stepTuples)
	pr.valueJoinNS = ratio(joinNS, joinTuples)
	pr.distinctMS = ratio(sumOf(distinct), float64(len(distinct)))
	pr.sortMS = ratio(sumOf(sorted), float64(len(sorted)))
	return nil
}

func sumOf(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}

// planRegret is the paper's quality measure on cold-dblp: per combination,
// the cumulative intermediate result size of the order ROX picked, divided
// by that of the best of every join order × placement planenum enumerates;
// the figure is the geometric mean over the five combinations (1 = ROX found
// the best order every time).
func planRegret(w *workload, tw *twin) (float64, error) {
	var regrets []float64
	for _, c := range w.Classes {
		comp, err := xquery.CompileString(c.Variants[0].Query, xquery.CompileOptions{})
		if err != nil {
			return 0, err
		}
		env := func() *plan.Env { return plan.NewQueryEnv(tw.cat, metrics.NewRecorder(), engineSeed) }
		_, res, err := core.Run(env(), comp.Graph, comp.Tail, tw.opts)
		if err != nil {
			return 0, err
		}
		fw, err := planenum.AnalyzeFourWay(comp.Graph)
		if err != nil {
			return 0, err
		}
		best := int64(-1)
		for _, o := range planenum.EnumerateJoinOrders4() {
			for _, pl := range planenum.Placements() {
				p, err := fw.BuildPlan(o, pl)
				if err != nil {
					continue // not every order × placement is buildable
				}
				_, stats, err := plan.Run(env(), comp.Graph, p, comp.Tail)
				if err != nil {
					return 0, err
				}
				if best < 0 || stats.CumulativeIntermediate < best {
					best = stats.CumulativeIntermediate
				}
			}
		}
		if best > 0 {
			regrets = append(regrets, float64(res.CumulativeIntermediate)/float64(best))
		}
	}
	return geomean(regrets), nil
}
