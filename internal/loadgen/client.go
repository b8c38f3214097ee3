// client.go is the NDJSON wire client the soak harness and the scenario
// runner share. It enforces the stream-termination contract
// everywhere: a response body that ends without a terminal {"stats"} or
// {"error"} line is reported as truncation, never as a short success.
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
	// Items are the {"item"} lines' items, in stream order.
	Items []string
	// Terminal is the stream's final line kind: "stats" (success), "error"
	// (clean failure, or a refusal), or "" — truncation.
	Terminal string
	// ErrMsg carries the error message of an "error" terminal or a non-200
	// refusal.
	ErrMsg string
}

// OK reports a fully successful execution.
func (r StreamResult) OK() bool { return r.Status == http.StatusOK && r.Terminal == "stats" }

// Truncated reports a stream that ended without any terminal line.
func (r StreamResult) Truncated() bool { return r.Status == http.StatusOK && r.Terminal == "" }

// maxSmallBody bounds a refusal's error envelope and the answer to a soak's
// reload or ingest. Both are read to their end, so that closing them keeps
// the connection for the next request: net/http drops a connection whose
// body is closed unread.
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
// errors come back as the error, and so does every breach of the stream
// contract: a line after the terminal line, a line with no item, stats or
// error member, a refusal without an {"error"} envelope. Everything else the
// server said lands in the StreamResult; a stream that just ends without a
// terminal line is Truncated, not an error.
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
		if err := readSmall(resp.Body, &body); err != nil || body.Error == "" {
			return res, fmt.Errorf("status %d with undecodable error body", resp.StatusCode)
		}
		res.Terminal, res.ErrMsg = "error", body.Error
		return res, nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		if res.Terminal != "" {
			return res, fmt.Errorf("NDJSON line after terminal %q line: %q", res.Terminal, sc.Text())
		}
		var line struct {
			Item  *string         `json:"item"`
			Stats json.RawMessage `json:"stats"`
			Error *string         `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return res, fmt.Errorf("bad NDJSON line %q: %w", sc.Text(), err)
		}
		switch {
		case line.Item != nil:
			res.Items = append(res.Items, *line.Item)
		case line.Error != nil:
			res.Terminal, res.ErrMsg = "error", *line.Error
		case line.Stats != nil:
			res.Terminal = "stats"
		default:
			return res, fmt.Errorf("NDJSON line with no item/stats/error: %q", sc.Text())
		}
	}
	return res, sc.Err()
}
