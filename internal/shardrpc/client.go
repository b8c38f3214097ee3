package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// maxErrorBody bounds how much of a non-200 response body the client reads
// looking for the error envelope.
const maxErrorBody = 1 << 16

// maxShardList bounds the inventory body of GET /v1/shards. An entry is
// some 50 bytes, so the bound admits hundreds of thousands of shards while
// still capping what a misbehaving server can make the client buffer.
const maxShardList = 16 << 20

// Client issues shard-server requests. The zero client is not usable; build
// one with NewClient. One Client is safe for concurrent use by any number of
// goroutines and should be shared so the underlying transport reuses
// connections across scatters.
type Client struct {
	hc *http.Client
}

// NewClient wraps an http.Client (nil for a default one). The client must not
// set an overall request timeout — execute responses stream for as long as
// the query runs; per-query deadlines belong on the caller's context.
func NewClient(hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{hc: hc}
}

// Shards fetches the server's document inventory (GET /v1/shards).
func (c *Client) Shards(ctx context.Context, base string) ([]ShardInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, joinURL(base, "/v1/shards"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, remoteErr(base, resp)
	}
	var list ShardList
	body := io.LimitReader(resp.Body, maxShardList)
	if err := json.NewDecoder(body).Decode(&list); err != nil {
		return nil, fmt.Errorf("shardrpc: %s: decoding shard list: %w", base, err)
	}
	drain(body) // the encoder's trailing newline
	return list.Shards, nil
}

// Execute starts one shard execution (POST /v1/shards/{shard}/execute) and
// returns its response stream. The request is sent with the given context:
// canceling it aborts an in-flight stream and closes the connection, which is
// how a coordinator stops remote work it no longer needs. A stream read to
// its end — its done line, or Finish — leaves the connection to the
// transport for the next request, which is how a coordinator keeps its
// connections when a pushed-down window bounds what is left. The caller must
// Close the returned stream on every path.
func (c *Client) Execute(ctx context.Context, base, shard string, req *ExecRequest) (*Stream, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	u := joinURL(base, "/v1/shards/"+url.PathEscape(shard)+"/execute")
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, remoteErr(base, resp)
	}
	return newStream(resp.Body, base), nil
}

// Ingest appends xml — a batch of one or more top-level elements — to a
// document on the shard server and commits it, through the server's public
// ingest endpoint (POST /v1/collections/{doc}/ingest, without create). The
// server parses the whole body before it appends any of it, so the batch
// commits whole or not at all; the call returns once it has committed.
func (c *Client) Ingest(ctx context.Context, base, doc, xml string) error {
	u := joinURL(base, "/v1/collections/"+url.PathEscape(doc)+"/ingest")
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(xml))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/xml")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return remoteErr(base, resp)
	}
	drain(io.LimitReader(resp.Body, maxErrorBody))
	return nil
}

// drain reads the rest of a response body — bounded by its caller — so that
// closing it returns the connection to the transport's idle pool: net/http
// drops a keep-alive connection whose response body is closed unread, and
// the next request dials a new one.
func drain(body io.Reader) {
	_, _ = io.Copy(io.Discard, body)
}

// remoteErr builds the typed error for a non-200 response, reading the error
// envelope when the server sent one.
func remoteErr(base string, resp *http.Response) error {
	msg := resp.Status
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	if err == nil && len(b) > 0 {
		var env errorEnvelope
		if json.Unmarshal(b, &env) == nil && env.Error != "" {
			msg = env.Error
		}
	}
	return &RemoteError{Status: resp.StatusCode, Endpoint: base, Msg: msg}
}

// joinURL appends a path to a base URL, tolerating a trailing slash.
func joinURL(base, path string) string {
	return strings.TrimSuffix(base, "/") + path
}
