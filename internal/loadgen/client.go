// client.go is the NDJSON wire client the generator and the soak harness
// share. It enforces the stream-termination contract everywhere: a response
// body that ends without a terminal {"stats"} or {"error"} line is reported
// as truncation, never as a short success.
package loadgen

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// A StreamResult summarizes one NDJSON query execution.
type StreamResult struct {
	// Status is the HTTP status code.
	Status int
	// Items is the number of {"item"} lines read.
	Items int
	// Terminal is the stream's final line kind: "stats" (success), "error"
	// (clean failure), or "" — truncation, a protocol violation.
	Terminal string
	// ErrMsg carries the error message of an "error" terminal or a non-200
	// refusal.
	ErrMsg string
}

// OK reports a fully successful execution.
func (r StreamResult) OK() bool { return r.Status == http.StatusOK && r.Terminal == "stats" }

// Truncated reports a stream that ended without any terminal line.
func (r StreamResult) Truncated() bool { return r.Status == http.StatusOK && r.Terminal == "" }

// maxSmallBody bounds a refusal's error envelope and a /v1/stats body. Both
// are read to their end, so that closing them keeps the connection for the
// next request: net/http drops a connection whose body is closed unread.
const maxSmallBody = 1 << 20

// readSmall reads a small JSON response body to its end, at most
// maxSmallBody bytes, and decodes it into v.
func readSmall(body io.Reader, v any) error {
	b, err := io.ReadAll(io.LimitReader(body, maxSmallBody))
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// StreamQuery executes one /v1/query NDJSON request. Transport and read
// errors come back as the error; everything the server said lands in the
// StreamResult.
func StreamQuery(ctx context.Context, client *http.Client, base string, params url.Values) (StreamResult, error) {
	v := url.Values{}
	for k, vs := range params {
		v[k] = vs
	}
	v.Set("stream", "ndjson")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/query?"+v.Encode(), nil)
	if err != nil {
		return StreamResult{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return StreamResult{}, err
	}
	defer resp.Body.Close()
	res := StreamResult{Status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		var body struct {
			Error string `json:"error"`
		}
		if err := readSmall(resp.Body, &body); err == nil {
			res.ErrMsg = body.Error
		}
		res.Terminal = "error"
		return res, nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		var line struct {
			Item  *string         `json:"item"`
			Stats json.RawMessage `json:"stats"`
			Error *string         `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return res, fmt.Errorf("bad NDJSON line: %w", err)
		}
		switch {
		case line.Item != nil:
			res.Items++
		case line.Stats != nil:
			res.Terminal = "stats"
		case line.Error != nil:
			res.Terminal = "error"
			res.ErrMsg = *line.Error
		}
	}
	if err := sc.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// Health is the process-health sample /v1/stats exposes for the harness.
type Health struct {
	Goroutines int    `json:"goroutines"`
	HeapBytes  uint64 `json:"heap_bytes"`
}

// FetchHealth samples the server's goroutine count and heap size.
func FetchHealth(ctx context.Context, client *http.Client, base string) (Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return Health{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return Health{}, err
	}
	defer resp.Body.Close()
	var h Health
	err = readSmall(resp.Body, &h) // on every status: the connection survives
	if resp.StatusCode != http.StatusOK {
		return Health{}, fmt.Errorf("stats status %d", resp.StatusCode)
	}
	if err != nil {
		return Health{}, err
	}
	return h, nil
}
