package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/table"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// twin re-enacts, layer by layer, what the engine does inside one request —
// using only the layers' public functions, each call under its own span. The
// engine has no hooks yet, so this is how the traced run splits the opaque
// time inside the handler span: the twin's pipeline runs the same query on
// the same data through parse → compile → fingerprint → cache lookup →
// replay (edge by edge) or core.Run → tail → render → NDJSON encode, and its
// total is reconciled against the real handler span of the same request.
//
// It mirrors rox.Engine.executeCached / localBackend.run / the gather of
// shard.go, and Ingester.Append/Commit/Compact for writes. When those change
// shape, this file follows.
type twin struct {
	tr    *tracer
	cat   *plan.Catalog
	cache *plancache.Cache // nil when the workload runs with the cache off
	opts  core.Options
	// Write side (ingest-mixed): per-shard overlays, WAL directory, and the
	// bytes that went into the WAL against the bytes users sent.
	docs               map[string]*twinDoc
	dir                *ingest.Dir
	walBytes, xmlBytes int64
	// wire is a loopback TCP connection whose far end is drained and
	// discarded: encode flushes every item into it, as the handler flushes
	// every item to its client.
	wire     net.Conn
	wireDone chan struct{}
}

type twinDoc struct {
	app    *xmltree.Appender
	baseIx *index.Index
}

func newTwin(tr *tracer, cat *plan.Catalog, cached bool) (*twin, error) {
	tw := &twin{tr: tr, cat: cat, opts: core.DefaultOptions(), wireDone: make(chan struct{})}
	if cached {
		tw.cache = plancache.New(256)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		defer close(tw.wireDone)
		conn, err := ln.Accept()
		// Only now: a listener closed with the dialled connection still in
		// its accept queue resets that connection.
		ln.Close()
		if err == nil {
			io.Copy(io.Discard, conn) // until the twin closes its end
			conn.Close()
		}
	}()
	if tw.wire, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close() // unblocks Accept
		<-tw.wireDone
		return nil, err
	}
	return tw, nil
}

// close releases the twin's connection and WAL directory and waits for the
// draining goroutine.
func (tw *twin) close() {
	tw.wire.Close()
	<-tw.wireDone
	if tw.dir != nil {
		tw.dir.Close()
	}
}

// span runs f under a child span of parent; f gets its own span's id (for
// grandchildren) and returns the counts to attach.
func (tw *twin) span(parent, req int, name string, f func(self int) map[string]float64) {
	id := tw.tr.start(parent, req, name)
	counts := f(id)
	tw.tr.end(id, counts)
}

// compile is the front half of a request: parse, compile, window override,
// cache key. It mirrors Engine.Execute and cacheKey.
func (tw *twin) compile(parent, req int, v variant) (comp *xquery.Compiled, fp string, err error) {
	var q *xquery.Query
	tw.span(parent, req, "xquery.parse", func(self int) map[string]float64 {
		q, err = xquery.Parse(v.Query)
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	tw.span(parent, req, "xquery.compile", func(self int) map[string]float64 {
		comp, err = xquery.Compile(q, xquery.CompileOptions{})
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	if v.Limit > 0 || v.Offset > 0 {
		comp = comp.WithTailLimit(&plan.LimitSpec{Count: v.Limit, Offset: v.Offset})
	}
	tw.span(parent, req, "joingraph.fingerprint", func(self int) map[string]float64 {
		fp = fmt.Sprintf("%s|t:%v:%v:%v|o:%s|a:%s|l:%s", comp.Graph.Fingerprint(),
			comp.Tail.Project, comp.Tail.Sort, comp.Tail.Final,
			comp.Tail.Order, comp.Tail.Agg, comp.Tail.Limit)
		return nil
	})
	return comp, fp, nil
}

// joined is the outcome of the join phase of one (shard) execution.
type joined struct {
	rel  *table.Relation
	keys []plan.Key
}

// execute is the join phase over whatever documents comp's graph names:
// cache lookup, then replay (verified when the generation is stale) or a
// full ROX run whose plan is installed. It mirrors Engine.executeCached.
func (tw *twin) execute(parent, req int, comp *xquery.Compiled, fp string, gen uint64) (*joined, error) {
	env := plan.NewQueryEnv(tw.cat, metrics.NewRecorder(), engineSeed)
	if tw.cache != nil {
		var entry *plancache.Entry
		var outcome plancache.Outcome
		tw.span(parent, req, "plancache.lookup", func(self int) map[string]float64 {
			entry, outcome = tw.cache.Lookup(fp, gen)
			return map[string]float64{"outcome": float64(outcome)}
		})
		if outcome != plancache.Miss {
			j, edgeRows, err := tw.replay(parent, req, env, comp, entry)
			switch {
			case err != nil:
				tw.cache.Invalidate(fp)
			case outcome == plancache.Hit:
				return j, nil
			default:
				drifted := false
				tw.span(parent, req, "plancache.verify", func(self int) map[string]float64 {
					if _, _, _, drifted = plancache.Drift(entry.Expected, edgeRows, plancache.DefaultDriftRatio); drifted {
						tw.cache.MarkDrift(fp, gen)
					} else {
						tw.cache.Revalidate(fp, gen, edgeRows)
					}
					return nil
				})
				if !drifted {
					return j, nil
				}
			}
		}
	}
	var rel *table.Relation
	var res *core.Result
	var err error
	tw.span(parent, req, "core.run", func(self int) map[string]float64 {
		if rel, res, err = core.Run(env, comp.Graph, comp.Tail, tw.opts); err != nil {
			return nil
		}
		return map[string]float64{
			"sample_tuples":    float64(res.SampleCost.Tuples),
			"exec_tuples":      float64(res.ExecCost.Tuples),
			"explorations":     float64(len(res.Trace.Explorations)),
			"cum_intermediate": float64(res.CumulativeIntermediate),
		}
	})
	if err != nil {
		return nil, err
	}
	if tw.cache != nil {
		tw.span(parent, req, "plancache.install", func(self int) map[string]float64 {
			tw.cache.Install(&plancache.Entry{Fingerprint: fp, Generation: gen, Plan: res.Plan, Expected: res.EdgeRows})
			return nil
		})
	}
	return &joined{rel: rel, keys: res.Keys}, nil
}

// replay executes a cached plan edge by edge. It mirrors plan.RunWithConfig.
func (tw *twin) replay(parent, req int, env *plan.Env, comp *xquery.Compiled, entry *plancache.Entry) (*joined, map[int]int, error) {
	g, tail, p := comp.Graph, comp.Tail, entry.Plan
	id := tw.tr.start(parent, req, "plan.replay")
	defer func() { tw.tr.end(id, nil) }()
	if err := p.Covers(g); err != nil {
		return nil, nil, err
	}
	var r *plan.Runner
	tw.span(id, req, "plan.new_runner", func(self int) map[string]float64 {
		r = plan.NewRunner(env, g)
		if tw.opts.EagerProject {
			r.EnableProjectReduce(tail.Required(g))
		}
		return nil
	})
	edgeRows := make(map[int]int, len(p.Steps))
	for _, s := range p.Steps {
		var err error
		tw.span(id, req, "plan.exec_edge", func(self int) map[string]float64 {
			var rows int
			rows, err = r.ExecEdge(g.Edges[s.EdgeID], s.Reverse, s.Alg)
			edgeRows[s.EdgeID] = rows
			return map[string]float64{"edge": float64(s.EdgeID), "rows": float64(rows)}
		})
		if err != nil {
			return nil, nil, err
		}
	}
	var rel *table.Relation
	var err error
	tw.span(id, req, "plan.final_relation", func(self int) map[string]float64 {
		rel, err = r.FinalRelation(tail.Required(g))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	j := &joined{}
	tw.span(id, req, "plan.tail", func(self int) map[string]float64 {
		var scanned int
		j.rel, j.keys, scanned = tail.Execute(rel)
		return map[string]float64{"scanned": float64(scanned), "rows": float64(j.rel.NumRows())}
	})
	return j, edgeRows, nil
}

// rendered is one (shard) execution's output as the gather sees it.
type rendered struct {
	items []string
	keys  []plan.Key
	agg   *plan.AggState
}

// render serializes the rows of a finished join (or folds an aggregate). It
// mirrors renderItem and execResult.source / localBackend.run.
func (tw *twin) render(parent, req int, comp *xquery.Compiled, j *joined) (*rendered, error) {
	out := &rendered{keys: j.keys}
	var err error
	if comp.Tail.Agg != nil {
		tw.span(parent, req, "rox.fold", func(self int) map[string]float64 {
			out.agg, err = plan.FoldAgg(j.rel, comp.Tail.Agg)
			return nil
		})
		return out, err
	}
	tw.span(parent, req, "rox.render", func(self int) map[string]float64 {
		ret := comp.Return
		out.items = make([]string, j.rel.NumRows())
		bytes := 0
		for row := range out.items {
			item := ""
			for _, v := range ret.Vars {
				vertex := comp.Vars[v]
				item += xmltree.SerializeString(j.rel.Doc(vertex), j.rel.Column(vertex)[row])
			}
			if ret.Elem != "" {
				item = "<" + ret.Elem + ">" + item + "</" + ret.Elem + ">"
			}
			out.items[row] = item
			bytes += len(item)
		}
		return map[string]float64{"items": float64(len(out.items)), "bytes": float64(bytes)}
	})
	return out, err
}

// encode writes the response the way serve.streamNDJSON does: one JSON
// object per item, each flushed to the socket (a write per item is most of
// what a 200-item scan costs the serve layer), then the stats line.
func (tw *twin) encode(parent, req int, items []string) error {
	var err error
	tw.span(parent, req, "serve.encode", func(self int) map[string]float64 {
		bw := bufio.NewWriterSize(tw.wire, 4096)
		enc := json.NewEncoder(bw)
		for _, it := range items {
			if err = enc.Encode(map[string]string{"item": it}); err == nil {
				err = bw.Flush()
			}
			if err != nil {
				return nil
			}
		}
		if err = enc.Encode(map[string]any{"stats": map[string]int{"rows": len(items)}}); err == nil {
			err = bw.Flush()
		}
		return map[string]float64{"items": float64(len(items))}
	})
	return err
}

// query re-enacts one whole read request and returns the digest of what it
// would have streamed, so the re-enactment itself is checked against the
// oracle: a twin that computes something else measures something else.
func (tw *twin) query(req int, w *workload, v variant) (digest, error) {
	root := tw.tr.start(0, req, "rox.pipeline")
	defer func() { tw.tr.end(root, nil) }()
	comp, fp, err := tw.compile(root, req, v)
	if err != nil {
		return digest{}, err
	}
	var items []string
	if w.Collection {
		items, err = tw.scatter(root, req, comp, fp)
	} else {
		var j *joined
		var r *rendered
		if j, err = tw.execute(root, req, comp, fp, tw.cat.Generation()); err == nil {
			if r, err = tw.render(root, req, comp, j); err == nil {
				items = finish(comp, r)
			}
		}
	}
	if err != nil {
		return digest{}, err
	}
	if err := tw.encode(root, req, items); err != nil {
		return digest{}, err
	}
	var d digest
	for _, it := range items {
		d.add(itemLine(it))
	}
	return d, nil
}

// finish turns a single execution's output into its items: an aggregate
// renders its one item.
func finish(comp *xquery.Compiled, r *rendered) []string {
	if comp.Tail.Agg == nil {
		return r.items
	}
	item, _ := r.agg.Render(comp.Tail.Agg.Kind)
	return []string{item}
}

// scatter re-enacts a local collection query: every shard runs the join
// phase and renders under its own span, at most numClients at a time (the
// engine's fan-out limit is GOMAXPROCS), then the gather merges — by
// concatenation, by key, or by folding aggregate states — and windows. It
// mirrors executeCollection and localBackend.run.
func (tw *twin) scatter(parent, req int, comp *xquery.Compiled, fp string) ([]string, error) {
	col, err := tw.cat.Collection(comp.Collections[0])
	if err != nil {
		return nil, err
	}
	window := comp.Tail.Limit
	shardComp := comp
	if window != nil { // a shard contributes at most offset+count rows
		shardComp = comp.WithTailLimit(&plan.LimitSpec{Count: window.Offset + window.Count})
	}
	outs := make([]*rendered, len(col.Shards))
	errs := make([]error, len(col.Shards))
	sc := tw.tr.start(parent, req, "rox.scatter")
	shard := func(i int) {
		sh := col.Shards[i]
		id := tw.tr.start(sc, req, "rox.shard")
		defer func() { tw.tr.end(id, nil) }()
		scomp := shardComp.ForShard(comp.Collections[0], sh.Name())
		j, err := tw.execute(id, req, scomp, fp+"|shard:"+sh.Name(), sh.Gen)
		if err == nil {
			outs[i], err = tw.render(id, req, scomp, j)
		}
		errs[i] = err
	}
	if window != nil && comp.Tail.Agg == nil && comp.Tail.Order == nil {
		// A plain window fills from the shards in order and the gather
		// cancels the rest: what the request waits for is the shards up to
		// the one that fills it.
		for i, have := 0, 0; i < len(col.Shards) && have < window.Offset+window.Count; i++ {
			if shard(i); errs[i] != nil {
				break
			}
			have += len(outs[i].items)
		}
	} else {
		sem := make(chan struct{}, numClients) // counting semaphore: the fan-out limit
		var wg sync.WaitGroup
		for i := range col.Shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				shard(i)
			}()
		}
		wg.Wait()
	}
	tw.tr.end(sc, nil)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var items []string
	tw.span(parent, req, "rox.merge", func(self int) map[string]float64 {
		switch {
		case comp.Tail.Agg != nil:
			total := outs[0].agg
			for _, o := range outs[1:] {
				total.Merge(o.agg)
			}
			item, _ := total.Render(comp.Tail.Agg.Kind)
			items = []string{item}
			return nil
		case comp.Tail.Order != nil:
			items = mergeOrdered(outs, comp.Tail.Order.Desc)
		default:
			for _, o := range outs {
				if o != nil { // shards past the one that filled the window never ran
					items = append(items, o.items...)
				}
			}
		}
		if window != nil {
			lo, hi := window.Window(len(items))
			items = items[lo:hi]
		}
		return nil
	})
	return items, nil
}

// mergeOrdered merges per-shard key-sorted outputs, ties to the earliest
// shard (which, with stable per-shard sorts, is document order).
func mergeOrdered(outs []*rendered, desc bool) []string {
	type head struct{ shard, pos int }
	var all []head
	for s, o := range outs {
		for p := range o.items {
			all = append(all, head{s, p})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		c := outs[all[a].shard].keys[all[a].pos].Compare(outs[all[b].shard].keys[all[b].pos])
		if desc {
			return c > 0
		}
		return c < 0
	})
	items := make([]string, len(all))
	for i, h := range all {
		items[i] = outs[h.shard].items[h.pos]
	}
	return items
}

// openIngest attaches the twin's own WAL directory and overlays, one per
// shard, over the catalog's current shard documents.
func (tw *twin) openIngest(dir string) error {
	d, _, err := ingest.OpenDir(dir)
	if err != nil {
		return err
	}
	tw.dir = d
	tw.docs = make(map[string]*twinDoc)
	for _, name := range shardNames() {
		ix, err := tw.cat.Index(name)
		if err != nil {
			return err
		}
		tw.docs[name] = &twinDoc{app: xmltree.NewAppender(ix.Doc()), baseIx: ix}
	}
	return nil
}

// write re-enacts one ingest POST: parse the fragment, extend the overlay,
// log the append, commit (the fsync), publish a delta index in a cloned
// catalog, and compact once the overlays are large enough. It mirrors
// Ingester.Append, commitLocked, publishLocked and compactLocked.
func (tw *twin) write(req int, target, xml string) error {
	root := tw.tr.start(0, req, "ingest.pipeline")
	defer func() { tw.tr.end(root, nil) }()
	td := tw.docs[target]
	var frag *xmltree.Document
	var err error
	tw.span(root, req, "xmltree.parse_fragment", func(self int) map[string]float64 {
		frag, err = xmltree.ParseString("ingest", xml)
		return nil
	})
	if err != nil {
		return err
	}
	tw.span(root, req, "xmltree.append", func(self int) map[string]float64 {
		err = td.app.Append(frag)
		return nil
	})
	if err != nil {
		return err
	}
	before := tw.dir.WAL().Size()
	tw.span(root, req, "ingest.wal_append", func(self int) map[string]float64 {
		err = tw.dir.WAL().LogAppend(ingest.Append{Target: target, Frag: "ingest", XML: xml})
		return nil
	})
	if err != nil {
		return err
	}
	tw.span(root, req, "ingest.wal_commit", func(self int) map[string]float64 {
		_, err = tw.dir.WAL().LogCommit()
		return nil
	})
	if err != nil {
		return err
	}
	tw.walBytes += tw.dir.WAL().Size() - before
	tw.xmlBytes += int64(len(xml))
	tw.span(root, req, "ingest.publish", func(self int) map[string]float64 {
		snap := td.app.Snapshot()
		var ix *index.Index
		id := tw.tr.start(self, req, "index.delta_build")
		ix = index.NewDelta(td.baseIx, snap)
		tw.tr.end(id, map[string]float64{"delta_nodes": float64(td.app.Len() - td.app.BaseLen())})
		cat := tw.cat.Clone()
		cat.AddIndexed(ix)
		tw.cat = cat
		return nil
	})
	delta := 0
	for _, d := range tw.docs {
		delta += d.app.Len() - d.app.BaseLen()
	}
	if delta >= compactAfter {
		tw.span(root, req, "ingest.compact", func(self int) map[string]float64 {
			err = tw.compact()
			return map[string]float64{"delta_nodes": float64(delta)}
		})
	}
	return err
}

// compact flattens every overlay into a packed snapshot, maps it back,
// publishes it and truncates the WAL.
func (tw *twin) compact() error {
	snaps := make(map[string]string)
	cat := tw.cat.Clone()
	for _, name := range shardNames() {
		td := tw.docs[name]
		if td.app.Len() == td.app.BaseLen() {
			continue
		}
		path := tw.dir.SnapshotFile(name)
		if err := index.WritePackedFile(path, index.New(td.app.Snapshot().Flatten())); err != nil {
			return err
		}
		ix, err := index.OpenPackedFile(path)
		if err != nil {
			return err
		}
		snaps[name] = path
		cat.AddIndexed(ix)
		tw.docs[name] = &twinDoc{app: xmltree.NewAppender(ix.Doc()), baseIx: ix}
	}
	tw.cat = cat
	return tw.dir.CommitCompaction(snaps)
}
