package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/serve"
)

// digest identifies a query result: the number of items and a CRC-32 over
// the NDJSON item lines exactly as the server writes them.
type digest struct {
	Items int
	CRC   uint32
}

// add folds one NDJSON item line (with its newline) into the digest.
func (d *digest) add(line []byte) {
	d.Items++
	d.CRC = crc32.Update(d.CRC, crc32.IEEETable, line)
}

// itemLine renders an item the way serve.streamNDJSON does, so a digest
// computed in-process (the oracle) is comparable with one read off the wire.
func itemLine(item string) []byte {
	line, _ := json.Marshal(map[string]string{"item": item}) // cannot fail on a string map
	return append(line, '\n')
}

// response is what a client learned from one streamed query.
type response struct {
	digest digest
	stats  serve.QueryStats
	bytes  int
	// first is the first item (the single item of an aggregate), kept for
	// the monotone-read check of ingest-mixed.
	first string
}

var (
	errTruncated = errors.New("stream ended without a terminal stats line")
	itemPrefix   = []byte(`{"item":`)
	statsPrefix  = []byte(`{"stats":`)
)

// readStream consumes one NDJSON query response. A stream is complete only
// if its last line is the {"stats": …} object: an {"error": …} line or no
// terminal line at all is a failed operation, never a short success.
func readStream(r *bufio.Reader) (*response, error) {
	resp := &response{}
	for {
		line, err := readLine(r)
		resp.bytes += len(line)
		if len(line) > 0 {
			switch {
			case bytes.HasPrefix(line, itemPrefix):
				if resp.digest.Items == 0 {
					var it struct{ Item string }
					if jerr := json.Unmarshal(line, &it); jerr != nil {
						return nil, fmt.Errorf("bad item line: %w", jerr)
					}
					resp.first = it.Item
				}
				resp.digest.add(line)
			case bytes.HasPrefix(line, statsPrefix):
				var tail struct{ Stats serve.QueryStats }
				if jerr := json.Unmarshal(line, &tail); jerr != nil {
					return nil, fmt.Errorf("bad stats line: %w", jerr)
				}
				resp.stats = tail.Stats
				if _, perr := r.Peek(1); perr != io.EOF {
					return nil, errors.New("data after the terminal stats line")
				}
				return resp, nil
			default:
				return nil, fmt.Errorf("stream failed: %s", bytes.TrimSpace(line))
			}
		}
		if err == io.EOF {
			return nil, errTruncated
		}
		if err != nil {
			return nil, err
		}
	}
}

// readLine returns the next line including its newline, however long.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	long := append([]byte(nil), line...)
	for err == bufio.ErrBufferFull {
		line, err = r.ReadSlice('\n')
		long = append(long, line...)
	}
	return long, err
}

// client is one closed-loop HTTP client with its own connection pool.
type client struct {
	base string
	hc   *http.Client
	br   *bufio.Reader
	// ref, when set, names the client-side span of the next request; it
	// travels in the span header so the server's span becomes its child.
	ref spanRef
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
		br:   bufio.NewReaderSize(nil, 1<<16),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func queryURL(base string, v variant) string {
	u := base + "/v1/query?stream=ndjson&q=" + url.QueryEscape(v.Query)
	if v.Limit > 0 {
		u += "&limit=" + strconv.Itoa(v.Limit)
	}
	if v.Offset > 0 {
		u += "&offset=" + strconv.Itoa(v.Offset)
	}
	return u
}

// query runs one streamed query and returns once its terminal line arrived.
func (c *client) query(v variant) (*response, error) {
	req, err := http.NewRequest(http.MethodGet, queryURL(c.base, v), nil)
	if err != nil {
		return nil, err
	}
	if c.ref.request != 0 {
		req.Header.Set(spanHeader, c.ref.header())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	c.br.Reset(resp.Body)
	return readStream(c.br)
}

// ingest POSTs one batch to a shard document and returns once the server
// acknowledged the commit (appended, WAL-committed, fsynced, published).
func (c *client) ingest(target, xml string) error {
	resp, err := c.hc.Post(c.base+"/v1/collections/"+url.PathEscape(target)+"/ingest",
		"application/xml", strings.NewReader(xml))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var ack struct {
		Status  string
		Durable bool
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("bad ingest ack: %w", err)
	}
	if ack.Status != "committed" || !ack.Durable {
		return fmt.Errorf("ingest not durably committed: %s", bytes.TrimSpace(body))
	}
	return nil
}
