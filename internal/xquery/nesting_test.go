//go:build !race

package xquery

import (
	"strings"
	"testing"
	"time"
)

// TestDeepNestingCompilesInLinearTime compiles doc("d.xml")//a[a[a[…]]] with
// 100 000 nested predicates, a 300 KB query. Each level adds a vertex, and
// closing the join equivalences once visited every edge per vertex, which
// took 25.5 s on 2 vCPU; a linear closure takes about 0.37 s. The limit
// leaves ten times that. The race detector slows the compile too much to
// time it.
func TestDeepNestingCompilesInLinearTime(t *testing.T) {
	const levels, limit = 100_000, 4 * time.Second
	src := `for $x in doc("d.xml")//a` + strings.Repeat("[a", levels) + strings.Repeat("]", levels) + ` return $x`
	start := time.Now()
	c, err := CompileString(src, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > limit {
		t.Errorf("%d nested predicates compiled in %v, limit %v", levels, took, limit)
	}
	if n := len(c.Graph.Vertices); n < levels {
		t.Errorf("%d vertices, want at least %d", n, levels)
	}
}
