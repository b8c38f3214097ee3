//go:build !race

package serve

import "testing"

// TestAllocGuardStreamNDJSON: an NDJSON response allocates per request, not
// per item — the item goes from the cursor's buffer through the line writer's
// buffer into the response with no string, map or encoder in between — so a
// 200-item response may cost at most 0.1 allocations per item more than a
// 1-item one (the slack covers the doublings that grow the two buffers to the
// largest item). It was 14 per item: 9.0 in renderItem, 5.1 in the
// map[string]string reflection encode. Excluded under -race like the root
// guard; ci.yml runs `go test -run Alloc ./...` without it.
func TestAllocGuardStreamNDJSON(t *testing.T) {
	const n = 200
	h := newScanHandler(t)
	scan(t, h, "ndjson", "200") // optimize once; every measured run replays
	one := testing.AllocsPerRun(20, func() { scan(t, h, "ndjson", "1") })
	all := testing.AllocsPerRun(20, func() { scan(t, h, "ndjson", "200") })
	if all >= one+0.1*n {
		t.Errorf("NDJSON stream: %d items allocate %.0f, 1 item %.0f: the item path allocates per item", n, all, one)
	}
}

// TestAllocGuardBufferedQuery: a buffered /v1/query body allocates per
// request, not per item, like the stream — each item is appended from the
// cursor's buffer to the body through the stream's encoder, with no []string
// collected and walked again by encoding/json — so 200 items may cost at most
// 0.1 allocations per item more than 1 (the slack covers the doublings that
// grow the body). Collecting cost 1.04 per item.
func TestAllocGuardBufferedQuery(t *testing.T) {
	const n = 200
	h := newScanHandler(t)
	scan(t, h, "", "200") // optimize once; every measured run replays
	one := testing.AllocsPerRun(20, func() { scan(t, h, "", "1") })
	all := testing.AllocsPerRun(20, func() { scan(t, h, "", "200") })
	if all >= one+0.1*n {
		t.Errorf("buffered query: %d items allocate %.0f, 1 item %.0f: the item path allocates per item", n, all, one)
	}
}
