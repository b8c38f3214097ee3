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
	streamScan(t, h, "200") // optimize once; every measured run replays
	one := testing.AllocsPerRun(20, func() { streamScan(t, h, "1") })
	all := testing.AllocsPerRun(20, func() { streamScan(t, h, "200") })
	if all >= one+0.1*n {
		t.Errorf("NDJSON stream: %d items allocate %.0f, 1 item %.0f: the item path allocates per item", n, all, one)
	}
}
