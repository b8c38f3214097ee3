package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	rox "repro"
)

// oracle holds, per class and variant, the digest every timed response must
// match. It is computed at run time on the run's own corpus and seed — never
// a committed golden.
type oracle [][]digest

// engineDigest executes a request in-process and digests its items the way a
// client digests them off the wire.
func engineDigest(eng *rox.Engine, req rox.Request) (digest, error) {
	var d digest
	rows, err := eng.Execute(context.Background(), req)
	if err != nil {
		return d, err
	}
	defer rows.Close()
	for rows.Next() {
		d.add(itemLine(rows.Item()))
	}
	return d, rows.Err()
}

// staticOracle computes every variant's expected digest with the classical
// static plan (Request.Static) on an unsharded, in-process copy of the
// corpus. Comparing timed responses against it pins ROX ≡ classical,
// sharded ≡ unsharded and remote ≡ local on the benchmark's own inputs.
// Static mode rejects collection(), so collection queries are rewritten to
// the unsharded document.
func staticOracle(w *workload, in *inputs) (oracle, error) {
	eng := rox.NewEngine(rox.WithSeed(engineSeed), rox.WithPlanCache(0))
	if w.Name == "cold-dblp" {
		for _, path := range in.dblp {
			if err := eng.LoadFile(filepath.Base(path), path); err != nil {
				return nil, err
			}
		}
	} else if err := eng.LoadFile("xmark.xml", filepath.Join(in.xmarkDir, "xmark.xml")); err != nil {
		return nil, err
	}
	return digestAll(w, func(v variant) (digest, error) {
		q := v.Query
		if w.Collection {
			q = strings.ReplaceAll(q, fmt.Sprintf(`collection(%q)`, xmarkColl), `doc("xmark.xml")`)
		}
		return engineDigest(eng, rox.Request{Query: q, Static: true, Limit: v.Limit, Offset: v.Offset})
	})
}

// digestAll evaluates f on every variant of every class.
func digestAll(w *workload, f func(variant) (digest, error)) (oracle, error) {
	out := make(oracle, len(w.Classes))
	for ci, c := range w.Classes {
		out[ci] = make([]digest, len(c.Variants))
		for vi, v := range c.Variants {
			d, err := f(v)
			if err != nil {
				return nil, fmt.Errorf("oracle %s/%d: %w", c.Name, vi, err)
			}
			out[ci][vi] = d
		}
	}
	return out, nil
}

// diff describes the first variant on which two oracles disagree ("" when
// they agree everywhere).
func (o oracle) diff(w *workload, other oracle) string {
	for ci := range o {
		for vi := range o[ci] {
			if o[ci][vi] != other[ci][vi] {
				return fmt.Sprintf("%s/%d: %+v vs %+v", w.Classes[ci].Name, vi, o[ci][vi], other[ci][vi])
			}
		}
	}
	return ""
}
