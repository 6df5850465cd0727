// Package deck implements the .ttsv text deck format: a SPICE-style netlist
// describing a TTSV thermal scenario — geometry, materials, power sources,
// boundary conditions — together with the analyses to run on it. One text
// file replaces a hand-written Go program per scenario and feeds every
// engine in the repository: steady-state model solves and the FVM reference
// (".op"), transient step response (".tran"), parameter sweeps through the
// batch engine (".sweep"), and TTSV insertion planning (".plan").
//
// The grammar follows the classic netlist conventions:
//
//	TTSV liner sweep                      <- first line is always the title
//	* comments start with an asterisk
//	b1 side=100um sink=27                 <- element card: name, then params
//	p1 tsi=500um td=4um                   <- card type = first letter of name
//	+ tdev=1um                            <- '+' continues the previous card
//	v1 r=10um tl=0.5um lext=1um           <- unit-suffixed values
//	.op model=all segments=100            <- analysis cards start with '.'
//	.end                                  <- optional terminator
//
// Values carry SPICE scale suffixes (1meg, 300u) and dimension-aware unit
// words (45um, 0.35w, 27c, 700w/mm3, 100us) resolved by internal/units;
// ';' starts an inline comment. Parse errors, and every lowering error that
// can be pinned to a card or field, carry file:line:column positions.
package deck

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// Pos is a source position within a deck file (1-based line and byte
// column).
type Pos struct {
	Line, Col int
}

// Error is a positioned deck error, rendered "file:line:col: message" so
// editors and CI logs can jump to the offending card.
type Error struct {
	// File is the deck name given to Parse.
	File string
	// Pos locates the offending token or card.
	Pos Pos
	// Msg describes the problem.
	Msg string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Pos.Line, e.Pos.Col, e.Msg)
}

// errAt builds a positioned error.
func errAt(file string, p Pos, format string, args ...any) *Error {
	return &Error{File: file, Pos: p, Msg: fmt.Sprintf(format, args...)}
}

// Field is one token of a card: either a named parameter (Key non-empty,
// from "key=value") or a positional value.
type Field struct {
	// Key is the lowercased parameter name, empty for positional fields.
	Key string
	// Value is the raw value text, case preserved (material names and model
	// specs are case-sensitive in spirit even though matching is lenient).
	Value string
	// Pos locates the token.
	Pos Pos
}

// Card is one logical line of the deck (continuations folded in): an
// element card (plane, via, block, source, tile) or an analysis card
// (leading '.').
type Card struct {
	// Name is the lowercased card name (first token), including the leading
	// '.' for analysis cards.
	Name string
	// Fields lists the card's parameters in source order.
	Fields []Field
	// Pos locates the card name.
	Pos Pos
}

// Dot reports whether the card is an analysis card.
func (c *Card) Dot() bool { return strings.HasPrefix(c.Name, ".") }

// Deck is a parsed .ttsv file. It preserves the title and every card in
// source order; comments and the optional .end terminator are dropped.
type Deck struct {
	// File is the source name used in error positions.
	File string
	// Title is the first line, verbatim.
	Title string
	// Cards lists the element and analysis cards in source order.
	Cards []Card
}

// maxLine bounds a single physical line; hostile input beyond it is an
// error, not an allocation.
const maxLine = 1 << 20

// Parse reads a .ttsv deck. name labels error positions (typically the file
// path). The first line is always the title; '*' lines are comments, '+'
// lines continue the previous card, ';' starts an inline comment, and
// parsing stops at an optional ".end".
func Parse(name string, r io.Reader) (*Deck, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxLine)
	d := &Deck{File: name}
	line := 0
	sawTitle := false
scan:
	for sc.Scan() {
		line++
		text := sc.Text()
		if !sawTitle {
			// The scanner drops one \r before \n; a title ending in several
			// (e.g. "x\r\r\n") would keep the rest and break the
			// format→parse round trip, so trailing carriage returns are
			// treated as line-ending material.
			d.Title = strings.TrimRight(text, "\r")
			sawTitle = true
			continue
		}
		// Inline comments end the line; full-line handling below works on
		// the stripped text.
		if i := strings.IndexByte(text, ';'); i >= 0 {
			text = text[:i]
		}
		trimmed := strings.TrimSpace(text)
		switch {
		case trimmed == "" || strings.HasPrefix(trimmed, "*"):
			continue
		case strings.HasPrefix(trimmed, "+"):
			plus := strings.IndexByte(text, '+')
			if len(d.Cards) == 0 {
				return nil, errAt(name, Pos{line, plus + 1}, "dangling continuation line: no card to continue")
			}
			fields, err := tokenize(name, text[plus+1:], line, plus+1)
			if err != nil {
				return nil, err
			}
			last := &d.Cards[len(d.Cards)-1]
			last.Fields = append(last.Fields, fields...)
			continue
		}
		fields, err := tokenize(name, text, line, 0)
		if err != nil {
			return nil, err
		}
		head := fields[0]
		if head.Key != "" {
			return nil, errAt(name, head.Pos, "card name %q must not contain '='", head.Key+"="+head.Value)
		}
		cname := strings.ToLower(head.Value)
		if cname == ".end" {
			break scan
		}
		if !validCardName(cname) {
			return nil, errAt(name, head.Pos, "card name %q must start with a letter (or '.' for analysis cards)", head.Value)
		}
		d.Cards = append(d.Cards, Card{Name: cname, Fields: fields[1:], Pos: head.Pos})
	}
	if err := sc.Err(); err != nil {
		return nil, errAt(name, Pos{line + 1, 1}, "reading deck: %v", err)
	}
	if !sawTitle {
		return nil, errAt(name, Pos{1, 1}, "empty deck: missing title line")
	}
	return d, nil
}

// ParseFile parses the deck at path, using the path as the error-position
// file name.
func ParseFile(path string) (*Deck, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(path, f)
}

// validCardName admits names beginning with an ASCII letter, or '.' followed
// by a letter (analysis cards).
func validCardName(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '.' {
		return len(s) > 1 && isLetter(s[1])
	}
	return isLetter(s[0])
}

func isLetter(b byte) bool {
	return (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

// tokenize splits one (partial) line into fields, recording positions.
// colOff is the byte offset of text within the physical line.
func tokenize(file, text string, line, colOff int) ([]Field, error) {
	var out []Field
	i := 0
	for i < len(text) {
		if isSpace(text[i]) {
			i++
			continue
		}
		start := i
		for i < len(text) && !isSpace(text[i]) {
			i++
		}
		tok := text[start:i]
		pos := Pos{line, colOff + start + 1}
		if eq := strings.IndexByte(tok, '='); eq >= 0 {
			key := tok[:eq]
			if key == "" {
				return nil, errAt(file, pos, "empty parameter name in %q", tok)
			}
			out = append(out, Field{Key: strings.ToLower(key), Value: tok[eq+1:], Pos: pos})
		} else {
			out = append(out, Field{Value: tok, Pos: pos})
		}
	}
	if len(out) == 0 {
		// Callers strip blank lines first; a continuation line may still be
		// all whitespace, which is a no-op handled by returning no fields.
		return nil, nil
	}
	return out, nil
}

func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\v' || b == '\f'
}
