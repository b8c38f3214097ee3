package shardrpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/plan"
)

// streamBufSize is the read buffer of one execute stream. Most item lines fit
// it; a longer one is reassembled in a buffer the stream keeps. The reader
// comes from streamPool and goes back at Close, so in steady state a remote
// shard request allocates neither it nor the item and key buffers; a larger
// buffer would only pin more pooled memory for reads it rarely saves.
const streamBufSize = 4 << 10

// maxPooledBuf is the largest item, key or long-line buffer a closed stream
// hands back to streamPool; a larger one is dropped, so one huge item cannot
// keep that much heap live in the pool (fmt's rule for its printer buffers).
const maxPooledBuf = 64 << 10

// streamBufs are a stream's reusable buffers, recycled across streams through
// streamPool.
type streamBufs struct {
	br               *bufio.Reader
	long, item, keyS []byte
}

var streamPool = sync.Pool{New: func() any {
	return &streamBufs{br: bufio.NewReaderSize(nil, streamBufSize)}
}}

// poolable returns b emptied, or nil when it is too large to pool.
func poolable(b []byte) []byte {
	if cap(b) > maxPooledBuf {
		return nil
	}
	return b[:0]
}

// The three line shapes the execute handler writes (see HandleExecute),
// matched by prefix: a bounded run's leading count, an item, with its key
// member when the query sorts, and the done report.
var (
	beforePrefix = []byte(`{"before":`)
	itemPrefix   = []byte(`{"item":"`)
	keyMember    = []byte(`,"key":{`)
	donePrefix   = []byte(`{"done":`)
)

// Stream is the NDJSON line sequence of one execute response. Next scans it
// line by line without reflection: an item line is unescaped into a buffer
// the stream reuses, its key parsed in place, and only the done line — once
// per stream — goes through encoding/json. Both the HTML-escaped item lines
// of older servers and the unescaped ones of the current handler scan the
// same, as any JSON decoder reads them.
type Stream struct {
	body     io.ReadCloser
	bufs     *streamBufs // the pooled buffers below; nil once closed
	br       *bufio.Reader
	endpoint string

	long  []byte   // a line longer than br's buffer, reassembled
	item  []byte   // the current item, unescaped
	keyS  []byte   // the current key's string member, unescaped
	key   plan.Key // the current key; Str aliases keyS
	keyed bool
	done  *Done

	started bool // a line was scanned: a before line is only the first
	before  int
	bounded bool // the stream led with a before line
}

func newStream(body io.ReadCloser, endpoint string) *Stream {
	b := streamPool.Get().(*streamBufs)
	b.br.Reset(body)
	return &Stream{body: body, bufs: b, br: b.br, endpoint: endpoint, long: b.long, item: b.item, keyS: b.keyS}
}

// Next reads the next line. An item line returns true, and Item and Key hold
// it until the following Next. The done line — the protocol's last — returns
// false, and Done holds the report; the response is then read to its end,
// so Close keeps the connection. A stream cut before its done line (server
// died, connection dropped) or carrying a line of any other shape returns a
// RemoteError with Status 200: a gateway fault, as a 5xx would be.
//
// A bounded run's leading count line is taken on the way to the first item
// or the done line; Before holds it from then on.
func (s *Stream) Next() (bool, error) {
	line, err := s.readLine()
	switch {
	case err == io.EOF:
		return false, &RemoteError{Status: http.StatusOK, Endpoint: s.endpoint, Msg: "stream ended without done report"}
	case err != nil:
		return false, &RemoteError{Status: http.StatusOK, Endpoint: s.endpoint, Msg: "reading stream: " + err.Error()}
	}
	if !s.started {
		s.started = true
		if rest, ok := bytes.CutPrefix(line, beforePrefix); ok {
			if s.before, s.bounded = scanCount(rest); s.bounded {
				return s.Next()
			}
		}
	}
	if rest, ok := bytes.CutPrefix(line, itemPrefix); ok && s.scanItem(rest) {
		return true, nil
	}
	if v, ok := bytes.CutPrefix(line, donePrefix); ok && bytes.HasSuffix(v, []byte("}\n")) {
		var d *Done
		if json.Unmarshal(v[:len(v)-2], &d) == nil && d != nil {
			s.done = d
			// The done line is the server's last: what follows, the chunked
			// terminator, is already on its way. Reading it now lets Close
			// hand the connection back to the transport instead of
			// dropping it for a body closed short of its end.
			s.Finish(streamBufSize)
			return false, nil
		}
	}
	return false, &RemoteError{Status: http.StatusOK, Endpoint: s.endpoint, Msg: fmt.Sprintf("malformed stream line %.80q", line)}
}

// Item returns the current item: a view of the stream's buffer, valid until
// the next Next or Close and not to be modified.
func (s *Stream) Item() []byte { return s.item }

// Key returns the current item's order-by key; ok is false when the line
// carried none. Like Item, the key's Str aliases the stream's buffer: it is
// valid until the next Next or Close and must be copied to be kept.
func (s *Stream) Key() (k plan.Key, ok bool) { return s.key, s.keyed }

// Done returns the done report once Next returned false without an error.
func (s *Stream) Done() *Done { return s.done }

// Before returns the count a bounded run's leading line reported: how many
// of the shard's rows sort before the request's bound. ok is false for a
// stream without that line — an unbounded request, or a server that ignored
// the bound. Valid once Next returned.
func (s *Stream) Before() (n int, ok bool) { return s.before, s.bounded }

// Finish reads the rest of the response raw, without scanning it, and
// reports whether the body ended within limit bytes. A body read to its end
// lets Close hand the connection back to the transport's idle pool; one
// closed before its end costs the connection. What Finish reads is not a
// line: Item, Key and Done are not updated.
func (s *Stream) Finish(limit int) bool {
	_, err := s.br.Discard(limit)
	return err == io.EOF
}

// Close releases the response and returns the stream's buffers to the pool:
// views Item and Key returned die here. Closing before the body's end —
// before the done report, or before Finish read the rest — aborts the remote
// execution: the server sees its request context cancel. Close is
// idempotent.
func (s *Stream) Close() error {
	b := s.bufs
	if b == nil {
		return nil
	}
	err := s.body.Close()
	b.br.Reset(nil)
	b.long, b.item, b.keyS = poolable(s.long), poolable(s.item), poolable(s.keyS)
	*s = Stream{done: s.done}
	streamPool.Put(b)
	return err
}

// readLine returns the next line, newline included: a view of the read
// buffer, or of long when the line outgrew it. A line the body ends inside is
// io.ErrUnexpectedEOF; io.EOF means the body ended between lines.
func (s *Stream) readLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.long = append(s.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.br.ReadSlice('\n')
			s.long = append(s.long, line...)
		}
		line = s.long
	}
	if err == io.EOF && len(line) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return line, err
}

// scanItem takes an item line after its opening `{"item":"` — the item
// string, an optional key member, then `}` and the newline — into item and
// key.
func (s *Stream) scanItem(b []byte) bool {
	var ok bool
	if s.item, b, ok = unquote(s.item[:0], b); !ok {
		return false
	}
	s.key, s.keyed = plan.Key{}, false
	if rest, found := bytes.CutPrefix(b, keyMember); found {
		if b, ok = s.scanKey(rest); !ok {
			return false
		}
		s.keyed = true
	}
	return string(b) == "}\n"
}

// scanKey parses a key object after its opening brace, in the member order
// AppendKey (and encoding/json) write — "p" and "n" when true, "f" always,
// "s" when non-empty — and returns the bytes after its closing brace.
func (s *Stream) scanKey(b []byte) ([]byte, bool) {
	var k plan.Key
	b, k.Present = bytes.CutPrefix(b, []byte(`"p":true,`))
	b, k.IsNum = bytes.CutPrefix(b, []byte(`"n":true,`))
	b, ok := bytes.CutPrefix(b, []byte(`"f":`))
	n := numberLen(b)
	if !ok || n == 0 {
		return nil, false
	}
	f, err := strconv.ParseFloat(string(b[:n]), 64)
	if err != nil {
		return nil, false // out of float64 range, as encoding/json rejects it
	}
	k.Num, b = f, b[n:]
	if rest, found := bytes.CutPrefix(b, []byte(`,"s":"`)); found {
		if s.keyS, b, ok = unquote(s.keyS[:0], rest); !ok {
			return nil, false
		}
		k.Str = unsafe.String(unsafe.SliceData(s.keyS), len(s.keyS))
	}
	if len(b) == 0 || b[0] != '}' {
		return nil, false
	}
	s.key = k
	return b[1:], true
}

// scanCount parses the rest of a before line, a count and `}` and the
// newline. It takes only what encoding/json decodes into a non-negative int:
// digits, without a leading zero, in range.
func scanCount(b []byte) (int, bool) {
	n := digits(b, 0)
	if n == 0 || (b[0] == '0' && n > 1) || string(b[n:]) != "}\n" {
		return 0, false
	}
	v := 0
	for _, c := range b[:n] {
		d := int(c - '0')
		if v > (math.MaxInt-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// numberLen returns the length of the JSON number at the start of b, 0 if
// there is none: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if k := digits(b, j); k > j {
			i = k
		} else {
			return 0
		}
	}
	return i
}

// digits returns the index of the first non-digit of b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// unquote appends the JSON string starting at b — its opening quote already
// consumed — to dst, unescaped exactly as encoding/json decodes it (a lone
// surrogate escape and each byte of invalid UTF-8 become U+FFFD), and returns
// what follows the closing quote. ok is false for a string JSON rejects: a
// raw control byte, an unknown escape, or no closing quote.
func unquote(dst, b []byte) (out, rest []byte, ok bool) {
	start := 0
	for i := 0; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			return append(dst, b[start:i]...), b[i+1:], true
		case c < ' ':
			return dst, nil, false
		case c == '\\':
			dst = append(dst, b[start:i]...)
			if i+1 >= len(b) {
				return dst, nil, false
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				dst = append(dst, e)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(b[i+2:])
				if r < 0 {
					return dst, nil, false
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A pair only if a second escape follows that completes
					// it; otherwise the first half decodes alone.
					r2 := rune(-1)
					if i+3 < len(b) && b[i+2] == '\\' && b[i+3] == 'u' {
						r2 = hex4(b[i+4:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				dst = utf8.AppendRune(dst, r)
			default:
				return dst, nil, false
			}
			i += 2
			start = i
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				dst = utf8.AppendRune(append(dst, b[start:i]...), utf8.RuneError)
				start = i + 1
			}
			i += size
		}
	}
	return dst, nil, false
}

// hex4 decodes the four hex digits at the start of b, -1 if there are not
// four.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
