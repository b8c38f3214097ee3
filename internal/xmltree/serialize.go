package xmltree

import (
	"io"
	"unicode/utf8"
)

// AppendSerialize appends the subtree rooted at n as XML text to dst and
// returns the extended buffer; serializing the document root appends the whole
// document. This is the counterpart of the MonetDB/XQuery "serialize tabular
// data as XML" operator, and the one serializer the repo has: a caller that
// renders many nodes reuses one buffer across them (the execution cursor's row
// rendering), Serialize and SerializeString are wrappers over it.
func AppendSerialize(dst []byte, d *Document, n NodeID) []byte {
	s := serializer{d: d, buf: dst}
	s.node(n)
	return s.buf
}

// Serialize writes the subtree rooted at n as XML text to w, in chunks, so a
// whole document streams to a file without being held in memory.
func Serialize(w io.Writer, d *Document, n NodeID) error {
	s := serializer{d: d, w: w}
	s.node(n)
	if s.err == nil {
		_, s.err = w.Write(s.buf)
	}
	return s.err
}

// SerializeString returns the subtree rooted at n as an XML string.
func SerializeString(d *Document, n NodeID) string {
	return string(AppendSerialize(nil, d, n))
}

// serializeChunk is how much text Serialize gathers before it writes.
const serializeChunk = 32 << 10

type serializer struct {
	d   *Document
	buf []byte
	// w and err are Serialize's: buf drains into w between nodes whenever it
	// passes serializeChunk, and the first write error stops the walk.
	w   io.Writer
	err error
}

func (s *serializer) node(n NodeID) {
	d := s.d
	switch d.Kind(n) {
	case KindDoc:
		s.children(n+1, n+d.Size(n))
	case KindElem:
		name := d.NodeName(n)
		s.buf = append(append(s.buf, '<'), name...)
		// The subtree is walked in place: n's attributes sit first in its pre
		// range, then its children, each followed by its own subtree.
		ch, end := n+1, n+d.Size(n)
		for ; ch <= end && d.Kind(ch) == KindAttr; ch++ {
			s.buf = append(s.buf, ' ')
			s.attr(ch)
		}
		if ch > end {
			s.buf = append(s.buf, "/>"...)
			return
		}
		s.buf = append(s.buf, '>')
		s.children(ch, end)
		s.buf = append(append(append(s.buf, "</"...), name...), '>')
	case KindText:
		s.buf = appendEscaped(s.buf, d.Value(n))
	case KindAttr:
		// A bare attribute serializes as name="value" (XQuery serialization
		// of attribute nodes outside an element is an error; we follow the
		// pragmatic MonetDB behaviour of emitting the lexical form).
		s.attr(n)
	case KindComment:
		s.buf = append(append(append(s.buf, "<!--"...), d.Value(n)...), "-->"...)
	case KindPI:
		s.buf = append(append(s.buf, "<?"...), d.NodeName(n)...)
		s.buf = append(append(append(s.buf, ' '), d.Value(n)...), "?>"...)
	}
}

// children serializes the sibling run that starts at first and ends with the
// subtree range at end, hopping from subtree to subtree.
func (s *serializer) children(first, end NodeID) {
	for ch := first; ch <= end && s.err == nil; ch += s.d.Size(ch) + 1 {
		s.node(ch)
		if s.w != nil && len(s.buf) >= serializeChunk {
			_, s.err = s.w.Write(s.buf)
			s.buf = s.buf[:0]
		}
	}
}

func (s *serializer) attr(a NodeID) {
	s.buf = append(append(s.buf, s.d.NodeName(a)...), `="`...)
	s.buf = append(appendEscaped(s.buf, s.d.Value(a)), '"')
}

// appendEscaped appends the XML-escaped form of str, byte for byte what
// encoding/xml's EscapeText writes: the five markup characters and tab,
// newline and carriage return as character references, anything outside XML's
// character range (invalid UTF-8 included) as U+FFFD.
func appendEscaped(dst []byte, str string) []byte {
	last := 0
	for i := 0; i < len(str); {
		r, width := rune(str[i]), 1
		if r >= utf8.RuneSelf {
			r, width = utf8.DecodeRuneInString(str[i:])
		}
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if inCharacterRange(r) && (r != utf8.RuneError || width != 1) {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		dst = append(append(dst, str[last:i]...), esc...)
		i += width
		last = i
	}
	return append(dst, str[last:]...)
}

// inCharacterRange reports whether r is in the Char production of the XML
// specification (section 2.2).
func inCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
