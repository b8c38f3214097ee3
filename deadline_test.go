package rox

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// selfJoinProbe returns a document of n <x k="i mod 20"/> elements and the
// k-way self-join on @k over it: every x joins the n/20 that share its k, so
// the count is n·(n/20)^(k−1) — 3 200 000 rows for n = 400, k = 4, which take
// a few hundred milliseconds to join.
func selfJoinProbe(n, k int) (doc, query string) {
	var d strings.Builder
	d.WriteString("<r>")
	for i := range n {
		fmt.Fprintf(&d, `<x k="%d"/>`, i%20)
	}
	d.WriteString("</r>")
	var q strings.Builder
	q.WriteString("for ")
	for i := range k {
		if i > 0 {
			q.WriteString(", ")
		}
		fmt.Fprintf(&q, `$a%d in doc("d.xml")//x`, i)
	}
	q.WriteString(" where ")
	for i := 1; i < k; i++ {
		if i > 1 {
			q.WriteString(" and ")
		}
		fmt.Fprintf(&q, "$a%d/@k = $a%d/@k", i-1, i)
	}
	q.WriteString(" return count($a0)")
	return d.String(), q.String()
}

func selfJoinEngine(t *testing.T) *Engine {
	t.Helper()
	doc, _ := selfJoinProbe(400, 1)
	e := NewEngine(WithSeed(1), WithPlanCache(0))
	if err := e.LoadSource(FromXML("d.xml", doc)); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDeadlineStopsInsideLongJoin: a deadline stops a query inside the edge
// that breaks it, not after it. The k = 4 self-join spends almost all its
// time in its last merge, which builds 3 200 000 rows; the merges, the
// operators and chain sampling poll the interrupt every few thousand tuples,
// so a 20 ms deadline returns within 60 ms instead of after the whole join.
func TestDeadlineStopsInsideLongJoin(t *testing.T) {
	e := selfJoinEngine(t)
	_, q := selfJoinProbe(400, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := collectRows(e.Execute(ctx, Request{Query: q}))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 60*time.Millisecond {
		t.Errorf("returned %v after a 20ms deadline, want within 60ms", elapsed)
	}
}

// TestPolledDeadlineKeepsResults: the polls only read the hook, so a query
// that finishes inside its deadline answers what it answers without one.
func TestPolledDeadlineKeepsResults(t *testing.T) {
	e := selfJoinEngine(t)
	_, q := selfJoinProbe(400, 3)
	want, err := collectRows(e.Execute(context.Background(), Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Items) != 1 || want.Items[0] != "160000" {
		t.Fatalf("k = 3 self-join = %v, want [160000]", want.Items)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := collectRows(e.Execute(ctx, Request{Query: q}))
	if err != nil {
		t.Fatal(err)
	}
	g, w := got.Stats, want.Stats
	if !slices.Equal(got.Items, want.Items) || g.Plan != w.Plan ||
		g.ExecTuples != w.ExecTuples || g.SampleTuples != w.SampleTuples {
		t.Errorf("under a deadline: %v (plan %s, %d/%d tuples), without: %v (plan %s, %d/%d tuples)",
			got.Items, g.Plan, g.ExecTuples, g.SampleTuples, want.Items, w.Plan, w.ExecTuples, w.SampleTuples)
	}
}
