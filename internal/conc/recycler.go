package conc

import (
	"sync"
	"weak"
)

// Recycler is a free list of working buffers that holds them only weakly:
// Get revives a buffer an earlier user handed back with Put if the garbage
// collector has not freed it yet, and otherwise returns a fresh zero value.
// It never keeps a buffer alive that the collector would free, so reuse adds
// nothing to the live heap — unlike sync.Pool, whose victim cache keeps one
// collection cycle of put-back buffers reachable. The zero value is ready to
// use; a Recycler is safe for concurrent use.
//
// A buffer handed back must no longer be referenced by its user, and must
// not point into memory the next user must not write.
type Recycler[T any] struct {
	mu   sync.Mutex
	free []weak.Pointer[T]
}

// Get returns a buffer handed back earlier and still uncollected, or new(T).
func (r *Recycler[T]) Get() *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	for n := len(r.free); n > 0; n-- {
		p := r.free[n-1].Value()
		r.free = r.free[:n-1]
		if p != nil {
			return p
		}
	}
	return new(T)
}

// Put hands p back for a later Get; the caller must not use p afterwards.
func (r *Recycler[T]) Put(p *T) {
	w := weak.Make(p)
	r.mu.Lock()
	r.free = append(r.free, w)
	r.mu.Unlock()
}
