package conc

import (
	"runtime"
	"sync"
	"testing"
)

type scratchBuf struct {
	b     []byte
	owner int
}

func TestRecyclerReusesWhileReferenced(t *testing.T) {
	var r Recycler[scratchBuf]
	p := r.Get()
	p.b = make([]byte, 64)
	r.Put(p)
	if got := r.Get(); got != p {
		t.Fatalf("Get after Put = %p, want the buffer handed back (%p)", got, p)
	}
	if got := r.Get(); got == p || got.b != nil {
		t.Fatalf("a second Get returned the buffer again or a used one: %+v", got)
	}
}

func TestRecyclerDropsCollectedBuffers(t *testing.T) {
	var r Recycler[scratchBuf]
	r.Put(&scratchBuf{b: make([]byte, 64), owner: 7})
	runtime.GC()
	if got := r.Get(); got.b != nil || got.owner != 0 {
		t.Fatalf("Get after a collection revived %+v, want a fresh zero value", got)
	}
	if len(r.free) != 0 {
		t.Fatalf("%d entries left on the free list", len(r.free))
	}
}

// TestRecyclerKeepsNothingAlive: a handed-back buffer no one references is
// freed by the next collection, as if it had never been handed back.
func TestRecyclerKeepsNothingAlive(t *testing.T) {
	var r Recycler[scratchBuf]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r.Put(&scratchBuf{b: make([]byte, 1<<20)})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<18 {
		t.Fatalf("the live heap grew %d bytes after a 1 MiB Put and a collection", grew)
	}
	runtime.KeepAlive(&r)
}

// TestRecyclerConcurrent hands buffers back and forth between goroutines; a
// buffer given to two holders at once is a race the detector reports, and an
// owner overwritten under a holder fails the test.
func TestRecyclerConcurrent(t *testing.T) {
	var r Recycler[scratchBuf]
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 500 {
				p := r.Get()
				p.owner = g
				p.b = append(p.b[:0], byte(g))
				runtime.Gosched()
				if p.owner != g || len(p.b) != 1 || p.b[0] != byte(g) {
					t.Errorf("goroutine %d: its buffer was changed to %+v", g, p)
					return
				}
				r.Put(p)
			}
		}()
	}
	wg.Wait()
}
