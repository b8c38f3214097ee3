// Package ndjson is the one line writer behind every NDJSON response the
// server streams: /v1/query?stream=ndjson (internal/serve) and the shard
// execute wire (internal/shardrpc). A line is assembled in a buffer the
// writer reuses and handed to the http.ResponseWriter, whose own buffer is the
// batch; nothing is flushed per item. Instead a written line is on the wire
// within flushInterval even if the row source then stalls — "slow consumers
// see progress" as a bound, not as one syscall per item — and at the end of the
// stream, when the handler returns. See DESIGN.md "Streaming execution and
// limit pushdown".
package ndjson

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// flushInterval bounds how long a written line may sit in the response's
// buffers while the handler is busy (or parked) elsewhere.
const flushInterval = 10 * time.Millisecond

// Writer writes NDJSON lines to one response. Its methods are for the
// handler's goroutine only; the mutex orders them with the flush timer, the
// one other user of the ResponseWriter. The first failed write sticks: every
// later line fails with it without touching the response. Close before the
// handler returns.
type Writer struct {
	line   []byte  // the line being assembled, reused line to line
	pooled *[]byte // where line came from in linePool; nil once closed
	html   bool    // item strings escape <, > and & (see SetEscapeHTML)

	mu     sync.Mutex
	w      http.ResponseWriter
	fl     http.Flusher // nil when the response cannot flush: no timer then
	timer  *time.Timer
	armed  bool // a flush is pending for the lines written since the last one
	closed bool
	err    error
}

// maxPooledLine is the largest line buffer Close returns to linePool; a
// larger one is dropped, so one huge item cannot keep that much heap live in
// the pool (fmt's rule for its printer buffers).
const maxPooledLine = 64 << 10

// linePool recycles line buffers across responses, so a response does not
// regrow its buffer from empty.
var linePool = sync.Pool{New: func() any { return new([]byte) }}

// NewWriter returns a line writer over w. Its line buffer comes from a pool
// and goes back at Close.
func NewWriter(w http.ResponseWriter) *Writer {
	fl, _ := w.(http.Flusher)
	p := linePool.Get().(*[]byte)
	return &Writer{w: w, fl: fl, html: true, line: (*p)[:0], pooled: p}
}

// SetEscapeHTML selects how item strings treat <, > and &: escaped as
// six-byte \u00XX sequences (the default, what encoding/json writes) or left
// alone (what a json.Encoder after SetEscapeHTML(false) writes). Both are
// plain JSON and decode to the same item.
func (lw *Writer) SetEscapeHTML(on bool) { lw.html = on }

// Item writes {"item":"…"}, byte for byte the line
// json.Marshal(map[string]string{"item": string(item)}) produces (or, with
// HTML escaping off, the line of a json.Encoder that does not escape HTML).
func (lw *Writer) Item(item []byte) error {
	lw.line = AppendString(append(lw.line[:0], `{"item":`...), item, lw.html)
	return lw.end()
}

// ItemRaw writes an item line with one more member, {"item":"…","name":raw};
// raw is the member's value, already JSON (see AppendString, AppendFloat).
func (lw *Writer) ItemRaw(item []byte, name string, raw []byte) error {
	lw.line = append(AppendString(append(lw.line[:0], `{"item":`...), item, lw.html), ',')
	lw.line = append(appendName(lw.line, name), raw...)
	return lw.end()
}

// Field writes the one-member line {"name":v} — a stream's terminal stats,
// error or done report — v encoded by encoding/json.
func (lw *Writer) Field(name string, v any) error {
	lw.line = append(lw.line[:0], '{')
	return lw.field(name, v)
}

// field appends "name":v to the line and ends it; name needs no escaping.
func (lw *Writer) field(name string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	lw.line = append(appendName(lw.line, name), b...)
	return lw.end()
}

// appendName appends "name": — a member name that needs no escaping.
func appendName(dst []byte, name string) []byte {
	return append(append(append(dst, '"'), name...), '"', ':')
}

// end closes the line's object, writes it and makes sure a flush is pending.
func (lw *Writer) end() error {
	lw.line = append(lw.line, '}', '\n')
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return lw.err
	}
	if _, lw.err = lw.w.Write(lw.line); lw.err != nil {
		return lw.err
	}
	if !lw.armed && lw.fl != nil {
		lw.armed = true
		if lw.timer == nil {
			lw.timer = time.AfterFunc(flushInterval, lw.flush)
		} else {
			lw.timer.Reset(flushInterval)
		}
	}
	return nil
}

// flush is the timer's callback. After Close it must not touch the response:
// the handler may have returned.
func (lw *Writer) flush() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.armed = false
	if !lw.closed {
		lw.fl.Flush()
	}
}

// Close ends the writer's use of the response: a pending flush is dropped —
// the server flushes when the handler returns — and one already running has
// finished by the time Close returns. The line buffer goes back to the pool.
func (lw *Writer) Close() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.closed = true
	if lw.timer != nil {
		lw.timer.Stop()
	}
	if p := lw.pooled; p != nil {
		if cap(lw.line) <= maxPooledLine {
			*p = lw.line[:0]
			linePool.Put(p)
		}
		lw.line, lw.pooled = nil, nil
	}
}

const hex = "0123456789abcdef"

// AppendString appends src as a JSON string literal, byte for byte as
// encoding/json encodes a Go string: quote, backslash and control bytes
// escaped (\b \f \n \r \t by name, the rest as \u00XX), U+2028 and U+2029
// escaped, and each byte of invalid UTF-8 replaced by the six characters
// \ufffd. With html set, <, > and & are escaped as \u00XX too — encoding/json's
// default; without, they are left alone, as a json.Encoder writes them after
// SetEscapeHTML(false).
func AppendString[T []byte | string](dst []byte, src T, html bool) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		b := src[i]
		if b >= utf8.RuneSelf {
			// At most one rune's bytes are converted, so the string stays on
			// the stack (encoding/json decodes a []byte the same way).
			r, size := utf8.DecodeRuneInString(string(src[i:min(len(src), i+utf8.UTFMax)]))
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(append(dst, src[start:i]...), `\ufffd`...)
			case r == '\u2028' || r == '\u2029':
				dst = append(append(dst, src[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' && (!html || b != '<' && b != '>' && b != '&') {
			i++
			continue
		}
		dst = append(dst, src[start:i]...)
		switch b {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, src[start:]...), '"')
}

// AppendFloat appends a finite f as encoding/json encodes a float64: the
// shortest digits that round-trip, in exponent form only below 1e-6 and from
// 1e21 up, with a two-digit exponent's leading zero dropped.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 is written e-9
		dst = dst[:n-1]
	}
	return dst
}
