package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestPhaseSwitching(t *testing.T) {
	r := NewRecorder()
	if r.Phase() != PhaseExecute {
		t.Fatalf("initial phase = %v", r.Phase())
	}
	prev := r.SetPhase(PhaseSample)
	if prev != PhaseExecute || r.Phase() != PhaseSample {
		t.Errorf("SetPhase: prev=%v now=%v", prev, r.Phase())
	}
	r.ChargeTuples(10)
	r.SetPhase(prev)
	r.ChargeTuples(5)
	if got := r.CostOf(PhaseSample).Tuples; got != 10 {
		t.Errorf("sample tuples = %d, want 10", got)
	}
	if got := r.CostOf(PhaseExecute).Tuples; got != 5 {
		t.Errorf("exec tuples = %d, want 5", got)
	}
	if got := r.Total().Tuples; got != 15 {
		t.Errorf("total = %d, want 15", got)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.ChargeTuples(5) // must not panic
	if r.CostOf(PhaseExecute).Tuples != 0 {
		t.Errorf("nil recorder returned non-zero cost")
	}
	if r.Total().Tuples != 0 {
		t.Errorf("nil recorder total non-zero")
	}
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{Tuples: 10}
	b := Cost{Tuples: 4}
	a.Add(b)
	if a.Tuples != 14 {
		t.Errorf("Add = %v", a)
	}
	d := a.Sub(b)
	if d.Tuples != 10 {
		t.Errorf("Sub = %v", d)
	}
	if a.String() == "" || PhaseSample.String() != "sample" || PhaseExecute.String() != "execute" {
		t.Errorf("string renderings broken")
	}
}

func TestStopwatch(t *testing.T) {
	sw := Start()
	time.Sleep(time.Millisecond)
	if sw.Elapsed() <= 0 {
		t.Errorf("elapsed = %v", sw.Elapsed())
	}
}

func TestCacheCounters(t *testing.T) {
	var c CacheCounters
	c.Hit()
	c.Hit()
	c.StaleHit()
	c.Miss()
	c.Drift()
	c.Eviction()
	c.Install()
	s := c.Snapshot()
	want := CacheSnapshot{Hits: 2, StaleHits: 1, Misses: 1, Drifts: 1, Evictions: 1, Installs: 1}
	if s != want {
		t.Fatalf("snapshot = %+v, want %+v", s, want)
	}
	// 2 exact hits + 1 stale hit - 1 drifted replay = 2 served of 4 lookups.
	if got := s.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
	if (CacheSnapshot{}).HitRate() != 0 {
		t.Errorf("zero snapshot hit rate should be 0")
	}
	// More drifts than stale hits must clamp at 0, not go negative.
	if (CacheSnapshot{StaleHits: 1, Drifts: 3, Misses: 1}).HitRate() != 0 {
		t.Errorf("over-drifted hit rate should clamp to 0")
	}
}

func TestAggregator(t *testing.T) {
	var a Aggregator
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Observe(10, 5)
			a.Observe(7, 3)
			a.ObserveError()
		}()
	}
	wg.Wait()
	if a.Queries() != 8 || a.Errors() != 4 {
		t.Errorf("queries = %d, errors = %d, want 8 and 4", a.Queries(), a.Errors())
	}
	if got := a.CostOf(PhaseExecute).Tuples; got != 68 {
		t.Errorf("execute tuples = %d, want 68", got)
	}
	if got := a.CostOf(PhaseSample).Tuples; got != 32 {
		t.Errorf("sample tuples = %d, want 32", got)
	}
}
