package metrics

import (
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

func TestChargeOp(t *testing.T) {
	r := NewRecorder()
	r.ChargeOp(7)
	r.ChargeOp(3)
	c := r.CostOf(PhaseExecute)
	if c.Tuples != 10 || c.Ops != 2 {
		t.Errorf("cost = %v", c)
	}
}

func TestSamplingOverhead(t *testing.T) {
	r := NewRecorder()
	if r.SamplingOverhead() != 0 {
		t.Errorf("overhead with no work should be 0")
	}
	r.ChargeTuples(200)
	r.SetPhase(PhaseSample)
	r.ChargeTuples(50)
	if got := r.SamplingOverhead(); got != 25 {
		t.Errorf("overhead = %v, want 25", got)
	}
}

func TestReset(t *testing.T) {
	r := NewRecorder()
	r.SetPhase(PhaseSample)
	r.ChargeTuples(9)
	r.Reset()
	if r.Phase() != PhaseExecute || r.Total().Tuples != 0 {
		t.Errorf("Reset incomplete: phase=%v total=%v", r.Phase(), r.Total())
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.ChargeTuples(5) // must not panic
	r.ChargeOp(5)     // must not panic
	if r.CostOf(PhaseExecute).Tuples != 0 {
		t.Errorf("nil recorder returned non-zero cost")
	}
	if r.Total().Tuples != 0 {
		t.Errorf("nil recorder total non-zero")
	}
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{Tuples: 10, Ops: 2}
	b := Cost{Tuples: 4, Ops: 1}
	a.Add(b)
	if a.Tuples != 14 || a.Ops != 3 {
		t.Errorf("Add = %v", a)
	}
	d := a.Sub(b)
	if d.Tuples != 10 || d.Ops != 2 {
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

func TestRecorderMerge(t *testing.T) {
	a := NewRecorder()
	a.ChargeTuples(10)
	a.SetPhase(PhaseSample)
	a.ChargeOp(5)

	b := NewRecorder()
	b.ChargeTuples(7)
	b.SetPhase(PhaseSample)
	b.ChargeOp(3)

	a.Merge(b)
	if got := a.CostOf(PhaseExecute).Tuples; got != 17 {
		t.Errorf("execute tuples = %d, want 17", got)
	}
	if got := a.CostOf(PhaseSample); got.Tuples != 8 || got.Ops != 2 {
		t.Errorf("sample cost = %+v", got)
	}
	// b is untouched.
	if got := b.CostOf(PhaseSample).Tuples; got != 3 {
		t.Errorf("merge mutated the source recorder: %d", got)
	}
	// nil-safety both ways.
	a.Merge(nil)
	var nilRec *Recorder
	nilRec.Merge(a)
}
