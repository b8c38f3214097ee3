package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/table"
)

// dblpCase is one DBLP-style fixture: author lists per document, and whether
// the join-equivalence closure is added.
type dblpCase struct {
	name    string
	authors [][]string
	closure bool
}

// dblpCases are the DBLP-style fixtures of this package's tests.
func dblpCases() []dblpCase {
	shared := seq("s", 400)
	return []dblpCase{
		{"three-star", [][]string{
			append(seq("x", 30), "ann", "bob", "cid"),
			append(seq("y", 40), "ann", "bob"),
			append(seq("z", 20), "ann", "cid"),
		}, false},
		{"four-closed", [][]string{
			append(seq("a", 20), "ann"),
			append(seq("b", 20), "ann"),
			append(seq("c", 20), "ann"),
			append(seq("d", 5), "ann"),
		}, true},
		{"correlated", [][]string{
			append(slices.Clone(shared), "ann", "u1", "u2"),
			append(slices.Clone(shared), "ann", "v1"),
			{"ann", "w1", "zed"},
		}, true},
		{"three-closed", [][]string{
			append(seq("x", 40), "ann", "bob"),
			append(seq("y", 30), "ann", "bob"),
			append(seq("z", 12), "ann", "bob"),
		}, true},
		{"table2", [][]string{
			append(seq("x", 200), "ann", "bob", "cid"),
			append(seq("y", 150), "ann", "bob"),
			append(seq("z", 100), "ann", "cid"),
			append(seq("w", 50), "ann"),
		}, true},
		{"extensions", [][]string{
			append(seq("x", 120), "ann", "bob", "cid"),
			append(seq("y", 90), "ann", "bob"),
			append(seq("z", 60), "ann", "cid"),
			append(seq("w", 30), "ann"),
		}, true},
	}
}

// caseRun is what one ROX run of a fixture produced.
type caseRun struct {
	rel *table.Relation
	res *Result
}

func runCase(t *testing.T, c dblpCase, traced bool) caseRun {
	t.Helper()
	f := newDBLPFixture(t, c.authors, c.closure)
	opts := DefaultOptions()
	opts.Trace = traced
	rel, res, err := Run(f.env, f.g, f.tail, opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return caseRun{rel, res}
}

// sameRun reports how two runs of one fixture differ: plan, run record,
// costs or rows.
func sameRun(a, b caseRun) error {
	switch {
	case !reflect.DeepEqual(a.res.Plan, b.res.Plan):
		return fmt.Errorf("plans %s and %s", &a.res.Plan, &b.res.Plan)
	case !reflect.DeepEqual(a.res.RunStats, b.res.RunStats):
		return fmt.Errorf("run stats %+v and %+v", a.res.RunStats, b.res.RunStats)
	case a.res.SampleCost != b.res.SampleCost || a.res.ExecCost != b.res.ExecCost:
		return fmt.Errorf("costs %v/%v and %v/%v", a.res.SampleCost, a.res.ExecCost, b.res.SampleCost, b.res.ExecCost)
	case !slices.Equal(a.rel.ColumnIDs(), b.rel.ColumnIDs()) || a.rel.NumRows() != b.rel.NumRows():
		return fmt.Errorf("relations of %d and %d rows", a.rel.NumRows(), b.rel.NumRows())
	}
	for _, id := range a.rel.ColumnIDs() {
		if !slices.Equal(a.rel.Column(id), b.rel.Column(id)) {
			return fmt.Errorf("column %d differs", id)
		}
	}
	return nil
}

func traceBytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkTraceChangesNothing runs c untraced, traced and untraced again, one
// after the other, so each run takes the chain scratch the one before handed
// back: the three must agree, and only the traced one records a trace. Then
// the traced run's trace must read the same after another traced query,
// other, ran on that scratch: a trace shares no memory the scratch reuses.
func checkTraceChangesNothing(t *testing.T, c, other dblpCase) {
	t.Helper()
	plain := runCase(t, c, false)
	traced := runCase(t, c, true)
	again := runCase(t, c, false)
	if err := sameRun(plain, traced); err != nil {
		t.Errorf("%s: untraced and traced runs differ: %v", c.name, err)
	}
	if err := sameRun(plain, again); err != nil {
		t.Errorf("%s: untraced runs before and after a traced one differ: %v", c.name, err)
	}
	if !reflect.DeepEqual(plain.res.Trace, Trace{}) || !reflect.DeepEqual(again.res.Trace, Trace{}) {
		t.Errorf("%s: an untraced run recorded a trace", c.name)
	}
	if len(traced.res.Trace.Events) == 0 {
		t.Errorf("%s: the traced run recorded nothing", c.name)
	}
	before := traceBytes(t, &traced.res.Trace)
	runCase(t, other, true)
	if after := traceBytes(t, &traced.res.Trace); !bytes.Equal(before, after) {
		t.Errorf("%s: the trace changed when %s ran after it:\nbefore %s\nafter  %s", c.name, other.name, before, after)
	}
}

func TestTraceChangesNothing(t *testing.T) {
	cases := dblpCases()
	explored := false
	for i, c := range cases {
		checkTraceChangesNothing(t, c, cases[(i+1)%len(cases)])
		explored = explored || len(runCase(t, c, true).res.Trace.Explorations) > 0
	}
	if !explored {
		t.Error("no fixture chain-sampled")
	}
}

// fuzzAuthors turns fuzz input into 2–4 author lists over a 32-name
// vocabulary: data[0] picks the document count and the closure, every later
// byte adds one author to one document.
func fuzzAuthors(data []byte) dblpCase {
	c := dblpCase{name: "fuzz", authors: make([][]string, 2)}
	if len(data) > 0 {
		c.authors = make([][]string, 2+int(data[0])%3)
		c.closure = data[0]&4 != 0
		data = data[1:]
	}
	n := len(c.authors)
	for i, b := range data[:min(len(data), 600)] {
		c.authors[i%n] = append(c.authors[i%n], fmt.Sprintf("a%d", b%32))
	}
	for d := range c.authors {
		if len(c.authors[d]) == 0 {
			c.authors[d] = []string{"ann"}
		}
	}
	return c
}

func FuzzTraceChangesNothing(f *testing.F) {
	f.Add([]byte{4, 1, 1, 1, 2, 2, 3, 3, 3, 3, 5, 6, 7, 1, 9})
	f.Add([]byte{1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 0})
	f.Add(bytes.Repeat([]byte{6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 20))
	other := dblpCases()[3]
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTraceChangesNothing(t, fuzzAuthors(data), other)
	})
}

// traceAllocs runs run with every allocation profiled and returns the
// objects that code in trace.go allocated during it.
func traceAllocs(run func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := traceProfile()
	run()
	return traceProfile() - before
}

// traceProfile returns the objects allocated so far from a stack through
// trace.go. The collections publish the profile of the cycles before them.
func traceProfile() int64 {
	for range 3 {
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	for n := 256; ; n *= 2 {
		recs = make([]runtime.MemProfileRecord, n)
		if got, ok := runtime.MemProfile(recs, true); ok {
			recs = recs[:got]
			break
		}
	}
	var objects int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			if strings.HasSuffix(fr.File, "/internal/core/trace.go") {
				objects += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return objects
}

// TestUntracedRunAllocatesNoTrace: without Options.Trace the optimizer has
// no Trace, and no recording method allocates an event, an Exploration, a
// Round or a snapshot.
func TestUntracedRunAllocatesNoTrace(t *testing.T) {
	run := func(traced bool) func() {
		f := extensionFixture(t)
		opts := DefaultOptions()
		opts.Trace = traced
		o, err := New(f.env, f.g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if (o.trace != nil) != traced {
			t.Fatalf("Options.Trace = %v, optimizer trace %p", traced, o.trace)
		}
		return func() {
			if _, _, err := o.Execute(f.tail); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := traceAllocs(run(false)); n != 0 {
		t.Errorf("an untraced run allocated %d objects in trace.go", n)
	}
	if n := traceAllocs(run(true)); n == 0 {
		t.Error("a traced run allocated nothing in trace.go: the profile sees nothing")
	}
}

// TestInterruptStopsAtEveryPoll fails the interrupt at each of the polls an
// uninterrupted run makes, in turn — between edges, in the chain-sampling
// rounds, inside the operators and merges of joins thousands of rows wide,
// and before the tail: the run must return the interrupt's error, and must
// not poll again once the hook failed.
func TestInterruptStopsAtEveryPoll(t *testing.T) {
	shared := seq("s", 5000)
	mk := func() *dblpFixture {
		return newDBLPFixture(t, [][]string{
			append(slices.Clone(shared), seq("x", 300)...),
			append(slices.Clone(shared), seq("y", 200)...),
			append(seq("s", 4500), seq("z", 100)...),
		}, true)
	}
	f := mk()
	polls := 0
	f.env.Rec.Interrupt = func() error { polls++; return nil }
	if _, _, err := Run(f.env, f.g, f.tail, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if polls < 10 {
		t.Fatalf("an uninterrupted run polled %d times", polls)
	}
	errStop := errors.New("stop")
	for n := range polls {
		f := mk()
		calls := 0
		f.env.Rec.Interrupt = func() error {
			if calls++; calls > n {
				return errStop
			}
			return nil
		}
		if _, _, err := Run(f.env, f.g, f.tail, DefaultOptions()); !errors.Is(err, errStop) {
			t.Errorf("interrupt at poll %d of %d: err = %v, want the interrupt's", n+1, polls, err)
		}
		if calls != n+1 {
			t.Errorf("interrupt at poll %d of %d: polled %d times", n+1, polls, calls)
		}
	}
}
