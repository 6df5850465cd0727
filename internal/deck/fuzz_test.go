package deck

import (
	"os"
	"strings"
	"testing"
)

// FuzzParseDeck asserts two properties over arbitrary input: the parser
// never panics, and any deck that parses survives a format→parse round trip
// as an equal deck (so format is a faithful canonical form). Seeds come from
// the golden corpus plus grammar corner cases.
func FuzzParseDeck(f *testing.F) {
	for _, path := range corpusDecks(f) {
		src, err := readFileString(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add("")
	f.Add("title only")
	f.Add("t\n+ dangling\n")
	f.Add("t\nb1 side=100um side=200um\n")
	f.Add("t\nb1 =empty\n")
	f.Add("t\n* comment\n\n.op model=a ; trailing\n.end\n")
	f.Add("t\np1 tsi=1um\n+ td=4um k=v\n+\n")
	f.Add("t\nv1 r=1e-6 tl=1meg lext=0x10 n=1_0\n")
	f.Add("t\r\nb1 side=1um\r\n.op\r\n")
	f.Add("t\nb1 \t side=1um\v\f\n")
	f.Fuzz(func(t *testing.T, src string) {
		d, err := Parse("fuzz.ttsv", strings.NewReader(src))
		if err != nil {
			if d != nil {
				t.Fatalf("Parse returned both a deck and error %v", err)
			}
			return
		}
		formatted := d.format()
		d2, err := Parse("fuzz2.ttsv", strings.NewReader(formatted))
		if err != nil {
			t.Fatalf("formatted deck does not reparse: %v\ninput:     %q\nformatted: %q", err, src, formatted)
		}
		if !d.equal(d2) {
			t.Fatalf("round trip not equal\ninput:     %q\nformatted: %q", src, formatted)
		}
		// format must be a fixed point after one round trip.
		if again := d2.format(); again != formatted {
			t.Fatalf("format not idempotent\nfirst:  %q\nsecond: %q", formatted, again)
		}
		// Lowering must never panic either; errors are fine.
		if sc, err := d.Lower(); err == nil && sc == nil {
			t.Fatal("Lower returned nil scenario and nil error")
		}
	})
}

func readFileString(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}

// equal reports whether two decks have the same title and card structure.
// Positions and file names are ignored: a formatted-and-reparsed deck is
// equal to the original even though every token moved.
func (d *Deck) equal(o *Deck) bool {
	if d == nil || o == nil {
		return d == o
	}
	if d.Title != o.Title || len(d.Cards) != len(o.Cards) {
		return false
	}
	for i := range d.Cards {
		a, b := &d.Cards[i], &o.Cards[i]
		if a.Name != b.Name || len(a.Fields) != len(b.Fields) {
			return false
		}
		for j := range a.Fields {
			if a.Fields[j].Key != b.Fields[j].Key || a.Fields[j].Value != b.Fields[j].Value {
				return false
			}
		}
	}
	return true
}

// format renders the deck in canonical form: the title line followed by one
// line per card, single-space separated. Parsing the result yields a deck
// equal to the receiver (the property FuzzParseDeck enforces).
func (d *Deck) format() string {
	var b strings.Builder
	b.WriteString(d.Title)
	b.WriteByte('\n')
	for i := range d.Cards {
		c := &d.Cards[i]
		b.WriteString(c.Name)
		for _, f := range c.Fields {
			b.WriteByte(' ')
			if f.Key != "" {
				b.WriteString(f.Key)
				b.WriteByte('=')
			}
			b.WriteString(f.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
