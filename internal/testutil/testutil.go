// Package testutil holds the hygiene assertions the repo's tests share:
// goroutine-leak detection around scatter-gather fan-outs, cursor
// drain-and-close discipline, and connection counting on test servers. The cursor helpers take a structural interface
// rather than *rox.Rows so the package imports nothing from the engine — the
// root package's own in-package tests (package rox) can use it without an
// import cycle.
package testutil

import (
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// WaitGoroutines polls until the goroutine count returns to (at most) base,
// dumping all stacks on timeout — a fan-out that finished or was canceled
// must not leave workers behind.
func WaitGoroutines(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines %d > base %d:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// CheckGoroutines snapshots the goroutine count now and, at test cleanup,
// waits for the count to return to it. Register it before creating engines
// or cursors:
//
//	testutil.CheckGoroutines(t)
func CheckGoroutines(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() { WaitGoroutines(t, base) })
}

// Cursor is the structural subset of *rox.Rows the drain helpers need.
type Cursor interface {
	Next() bool
	Item() string
	Err() error
	Close() error
}

// DrainCursor consumes a cursor to exhaustion, fails the test on a stream
// error, closes it, and returns the items — the canonical
// drain-check-close sequence, so tests cannot forget the Err check between
// the last Next and the Close.
func DrainCursor(t testing.TB, c Cursor) []string {
	t.Helper()
	items := []string{}
	for c.Next() {
		items = append(items, c.Item())
	}
	if err := c.Err(); err != nil {
		c.Close()
		t.Fatalf("cursor failed after %d items: %v", len(items), err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("cursor Close: %v", err)
	}
	return items
}

// CountConns makes an unstarted test server count the connections it
// accepts, and returns the counter. A client that reuses its keep-alive
// connections opens one per concurrent request, not one per request.
func CountConns(ts *httptest.Server) *atomic.Int64 {
	var n atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			n.Add(1)
		}
	}
	return &n
}
