package deck

import (
	"strings"
	"testing"
)

func parseString(t *testing.T, src string) *Deck {
	t.Helper()
	d, err := Parse("test.ttsv", strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return d
}

func TestParseBasics(t *testing.T) {
	d := parseString(t, `My Title Line * not a comment ; not stripped
* full-line comment
b1 side=100um sink=27
V1 R=10um TL=0.5um   ; inline comment
+ lext=1um
.op model=all
.end
ignored after end
`)
	if d.Title != "My Title Line * not a comment ; not stripped" {
		t.Errorf("title = %q", d.Title)
	}
	if len(d.Cards) != 3 {
		t.Fatalf("cards = %d, want 3", len(d.Cards))
	}
	b := d.Cards[0]
	if b.Name != "b1" || len(b.Fields) != 2 {
		t.Fatalf("card 0 = %+v", b)
	}
	if b.Fields[0].Key != "side" || b.Fields[0].Value != "100um" {
		t.Errorf("b1 field 0 = %+v", b.Fields[0])
	}
	v := d.Cards[1]
	if v.Name != "v1" {
		t.Errorf("card name not lowercased: %q", v.Name)
	}
	if len(v.Fields) != 3 {
		t.Fatalf("v1 fields = %+v", v.Fields)
	}
	if v.Fields[2].Key != "lext" || v.Fields[2].Value != "1um" {
		t.Errorf("continuation field = %+v", v.Fields[2])
	}
	if v.Fields[2].Pos.Line != 5 {
		t.Errorf("continuation field line = %d, want 5", v.Fields[2].Pos.Line)
	}
	if keys := v.Fields[0].Key + v.Fields[1].Key; keys != "rtl" {
		t.Errorf("keys not lowercased: %q", keys)
	}
	if d.Cards[2].Name != ".op" || !d.Cards[2].Dot() {
		t.Errorf("analysis card = %+v", d.Cards[2])
	}
}

func TestParsePositions(t *testing.T) {
	d := parseString(t, "t\np1 tsi=1um  td=2um\n.op\n")
	c := d.Cards[0]
	if c.Pos != (Pos{2, 1}) {
		t.Errorf("card pos = %+v", c.Pos)
	}
	if c.Fields[0].Pos != (Pos{2, 4}) {
		t.Errorf("field 0 pos = %+v", c.Fields[0].Pos)
	}
	if c.Fields[1].Pos != (Pos{2, 13}) {
		t.Errorf("field 1 pos = %+v", c.Fields[1].Pos)
	}
}

func TestParsePositionalFields(t *testing.T) {
	d := parseString(t, "t\nt00 0 1 0.5w 0.25w\n.plan budget=1 tileside=1mm\n")
	c := d.Cards[0]
	if len(c.Fields) != 4 {
		t.Fatalf("fields = %+v", c.Fields)
	}
	for i, f := range c.Fields {
		if f.Key != "" {
			t.Errorf("field %d unexpectedly keyed: %+v", i, f)
		}
	}
	if c.Fields[2].Value != "0.5w" {
		t.Errorf("field 2 = %+v", c.Fields[2])
	}
}

func TestParseBlankAndWhitespaceContinuation(t *testing.T) {
	d := parseString(t, "t\n\n  \nb1 side=1um\n+   \n+ sink=27\n.op\n")
	if len(d.Cards) != 2 {
		t.Fatalf("cards = %d", len(d.Cards))
	}
	if len(d.Cards[0].Fields) != 2 {
		t.Errorf("fields = %+v", d.Cards[0].Fields)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	src := `Round trip
* comment dropped
b1 side=100um sink=27
p1 tsi=500um td=4um
+ tdev=1um
t00 0 0 0.5w
.op model=all segments=100
.end
`
	d := parseString(t, src)
	formatted := d.format()
	d2, err := Parse("formatted.ttsv", strings.NewReader(formatted))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, formatted)
	}
	if !d.equal(d2) {
		t.Errorf("round trip not equal:\noriginal:  %+v\nreparsed: %+v", d.Cards, d2.Cards)
	}
	if again := d2.format(); again != formatted {
		t.Errorf("format not idempotent:\n%q\n%q", formatted, again)
	}
}

func TestDeckEqual(t *testing.T) {
	a := parseString(t, "t\nb1 side=1um\n.op\n")
	b := parseString(t, "t\nb1 side=1um\n.op\n")
	if !a.equal(b) {
		t.Error("identical decks not equal")
	}
	c := parseString(t, "t\nb1 side=2um\n.op\n")
	if a.equal(c) {
		t.Error("different decks equal")
	}
	var nilDeck *Deck
	if a.equal(nilDeck) || !nilDeck.equal(nil) {
		t.Error("nil handling wrong")
	}
}
