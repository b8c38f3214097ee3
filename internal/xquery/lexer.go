// Package xquery implements the static compilation front of the system: a
// lexer and recursive-descent parser for the FLWOR+XPath subset the paper's
// queries use (extended with order by and return aggregates), and a compiler
// that performs Join Graph Isolation [18] — it clusters all step and join
// relationships of a query into a Join Graph plus a tail (project → distinct
// → sort → key-order → limit window → aggregate/project), the representation
// handed to the ROX run-time optimizer. Order-by keys, aggregates and the
// limit/offset window live strictly in the tail: they never add graph
// vertices or edges, so the optimizer's plan space is identical with and
// without them.
//
// Supported grammar (the paper's query shapes plus the aggregate/order tail):
//
//	query   := (let | for)+ ("where" cmp ("and" cmp)*)? order? "return" ret limit?
//	order   := "order" "by" $var kpath? ("ascending" | "descending")?
//	limit   := "limit" NUMBER ("offset" NUMBER)?       (whole numbers; count >= 1)
//	ret     := $var | "count" "(" $var ")" | agg "(" $var kpath? ")"
//	         | "<" NAME ">" ("{" $var "}")+ "</" NAME ">"
//	agg     := "sum" | "avg" | "min" | "max"
//	kpath   := (("/"|"//") kstep)+            (key paths carry no predicates)
//	kstep   := NAME | "@" NAME | "text" "(" ")"   (child, descendant, attribute)
//	let     := "let" $var ":=" source
//	for     := "for" $var "in" path ("," $var "in" path)*
//	path    := (source | $var) (("/"|"//") step)+
//	source  := ("doc" | "collection") "(" STRING ")"
//	step    := (axis "::")? test pred* | "@" (NAME | "*") pred*
//	axis    := "child" | "descendant" | "descendant-or-self" | "parent"
//	         | "ancestor" | "ancestor-or-self" | "following" | "preceding"
//	         | "following-sibling" | "preceding-sibling" | "self" | "attribute"
//	test    := NAME | "*" | "text" "(" ")" | "node" "(" ")"
//	pred    := "[" rel (op literal)? "]"
//	rel     := "."? (("/"|"//") step)+ | step (("/"|"//") step)*
//	cmp     := ref op (ref | literal)               (two paths compare by "=" only)
//	ref     := $var (("/"|"//") step)*
//	op      := "=" | "!=" | "<" | ">" | "<=" | ">="
//
// The abbreviations are axes: "/" is child, "//" descendant and "@"
// attribute. "//" takes neither an explicit axis nor "@". The attribute axis
// takes a NAME or "*" (the "@*" test); every other axis takes any test but
// "@". "*", "@*" and node() match every element, every attribute and every
// element or text node; none of them may end a join path, and node() takes
// no value comparison. "=" and "!=" compare strings, the range operators
// compare numbers and need a numeric literal; an element is compared through
// its text() children.
package xquery

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokName
	tokVar    // $name
	tokString // "..."
	tokNumber
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokAssign // :=
	tokSlash  // /
	tokDSlash // //
	tokAt     // @
	tokDot    // .
	tokEq     // =
	tokLt     // <
	tokGt     // >
	tokLe     // <=
	tokGe     // >=
	tokLBrace // {
	tokRBrace // }
	tokAxis   // name:: (text holds the axis name)
	tokStar   // *
	tokNe     // !=
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of query"
	case tokName:
		return "name"
	case tokVar:
		return "variable"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokAssign:
		return "':='"
	case tokSlash:
		return "'/'"
	case tokDSlash:
		return "'//'"
	case tokAt:
		return "'@'"
	case tokDot:
		return "'.'"
	case tokEq:
		return "'='"
	case tokLt:
		return "'<'"
	case tokGt:
		return "'>'"
	case tokLe:
		return "'<='"
	case tokGe:
		return "'>='"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokAxis:
		return "axis"
	case tokStar:
		return "'*'"
	case tokNe:
		return "'!='"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src   string
	pos   int
	toks  []token
	depth int // open '[' brackets
}

// lex tokenizes the whole query up front (queries are tiny). It counts
// predicate nesting as it goes, so a query nested beyond MaxPredicateDepth
// fails before the parser recurses into it.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, t)
		if t.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case c == ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case c == '[':
		l.pos++
		if l.depth++; l.depth > MaxPredicateDepth {
			return token{}, fmt.Errorf("xquery: predicates nest deeper than MaxPredicateDepth (%d) at %d", MaxPredicateDepth, start)
		}
		return token{tokLBracket, "[", start}, nil
	case c == ']':
		l.pos++
		l.depth = max(l.depth-1, 0)
		return token{tokRBracket, "]", start}, nil
	case c == '*':
		l.pos++
		return token{tokStar, "*", start}, nil
	case c == '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{tokNe, "!=", start}, nil
		}
		return token{}, fmt.Errorf("xquery: unexpected '!' at %d", start)
	case c == ',':
		l.pos++
		return token{tokComma, ",", start}, nil
	case c == '{':
		l.pos++
		return token{tokLBrace, "{", start}, nil
	case c == '}':
		l.pos++
		return token{tokRBrace, "}", start}, nil
	case c == '@':
		l.pos++
		return token{tokAt, "@", start}, nil
	case c == '.':
		// A dot may start a number like .5 — not used in the paper's
		// queries, so '.' is always the context-item step here.
		l.pos++
		return token{tokDot, ".", start}, nil
	case c == '/':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '/' {
			l.pos++
			return token{tokDSlash, "//", start}, nil
		}
		return token{tokSlash, "/", start}, nil
	case c == ':':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{tokAssign, ":=", start}, nil
		}
		return token{}, fmt.Errorf("xquery: unexpected ':' at %d", start)
	case c == '=':
		l.pos++
		return token{tokEq, "=", start}, nil
	case c == '<':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{tokLe, "<=", start}, nil
		}
		return token{tokLt, "<", start}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{tokGe, ">=", start}, nil
		}
		return token{tokGt, ">", start}, nil
	case c == '"' || c == '\'':
		quote := c
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) && l.src[l.pos] != quote {
			sb.WriteByte(l.src[l.pos])
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, fmt.Errorf("xquery: unterminated string at %d", start)
		}
		l.pos++
		return token{tokString, sb.String(), start}, nil
	case c == '$':
		l.pos++
		name := l.name()
		if name == "" {
			return token{}, fmt.Errorf("xquery: '$' without variable name at %d", start)
		}
		return token{tokVar, name, start}, nil
	case c >= '0' && c <= '9':
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
			l.pos++
		}
		return token{tokNumber, l.src[start:l.pos], start}, nil
	case isNameStart(c):
		name := l.name()
		if strings.HasPrefix(l.src[l.pos:], "::") {
			// An explicit axis; the parser checks its name.
			l.pos += 2
			return token{tokAxis, name, start}, nil
		}
		return token{tokName, name, start}, nil
	default:
		return token{}, fmt.Errorf("xquery: unexpected character %q at %d", c, start)
	}
}

// name scans a name, which may hold a prefix colon but never "::".
func (l *lexer) name() string {
	start := l.pos
	for l.pos < len(l.src) && isNamePart(l.src[l.pos]) && !strings.HasPrefix(l.src[l.pos:], "::") {
		l.pos++
	}
	return l.src[start:l.pos]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isNamePart(c byte) bool {
	return isNameStart(c) || isDigit(c) || c == '-' || c == ':'
}
