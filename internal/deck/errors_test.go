package deck

import (
	"errors"
	"strings"
	"testing"
)

// lowerString parses and lowers a deck source, returning the lowering error.
func lowerString(t *testing.T, src string) error {
	t.Helper()
	d, err := Parse("err.ttsv", strings.NewReader(src))
	if err != nil {
		return err
	}
	_, err = d.Lower()
	return err
}

// validBody is a minimal correct deck the error cases perturb.
const validBody = `valid deck
b1 side=100um sink=27
p1 tsi=500um td=4um
p2 tsi=45um td=4um tb=1um
v1 r=10um tl=0.5um lext=1um
iall plane=all devd=700w/mm3 ildd=70w/mm3
.op model=a
`

func TestLowerValidBaseline(t *testing.T) {
	if err := lowerString(t, validBody); err != nil {
		t.Fatalf("baseline deck should lower: %v", err)
	}
}

// TestPositionedErrors table-tests every malformed-card class: each must
// fail with a deck.Error carrying the expected line and mentioning the
// expected message — no silent defaulting.
func TestPositionedErrors(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		wantMsg  string
		wantLine int // 0 = don't check
	}{
		{
			name:     "negative via radius",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=-10um tl=0.5um\n.op\n",
			wantMsg:  "via radius must be positive",
			wantLine: 5,
		},
		{
			name:     "negative liner thickness",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=-1um\n.op\n",
			wantMsg:  "liner thickness must be positive",
			wantLine: 5,
		},
		{
			name:     "unknown unit suffix",
			src:      "t\nb1 side=100zz\n.op\n",
			wantMsg:  "unknown unit suffix",
			wantLine: 2,
		},
		{
			name:     "watts on a length",
			src:      "t\nb1 side=100w\n.op\n",
			wantMsg:  "unknown unit suffix",
			wantLine: 2,
		},
		{
			name:     "dangling continuation",
			src:      "t\n+ side=100um\n.op\n",
			wantMsg:  "dangling continuation",
			wantLine: 2,
		},
		{
			name:     "duplicate card name",
			src:      "t\np1 tsi=1um td=1um\np1 tsi=2um td=1um tb=1um\n.op\n",
			wantMsg:  "duplicate card name \"p1\"",
			wantLine: 3,
		},
		{
			name:     "duplicate parameter",
			src:      "t\nb1 side=100um side=200um\n.op\n",
			wantMsg:  "duplicate parameter \"side\"",
			wantLine: 2,
		},
		{
			name:     "unknown parameter",
			src:      "t\nb1 side=100um bogus=1\n.op\n",
			wantMsg:  "unknown parameter \"bogus\"",
			wantLine: 2,
		},
		{
			name:     "unknown card type",
			src:      "t\nx1 foo=1\n.op\n",
			wantMsg:  "unknown element card \"x1\"",
			wantLine: 2,
		},
		{
			name:     "card name with equals",
			src:      "t\nfoo=bar side=1\n.op\n",
			wantMsg:  "must not contain '='",
			wantLine: 2,
		},
		{
			name:     "card name not a letter",
			src:      "t\n1abc x=1\n.op\n",
			wantMsg:  "must start with a letter",
			wantLine: 2,
		},
		{
			name:     "empty parameter name",
			src:      "t\nb1 =100um\n.op\n",
			wantMsg:  "empty parameter name",
			wantLine: 2,
		},
		{
			name:     "plane 1 with bond layer",
			src:      "t\np1 tsi=500um td=4um tb=1um\n.op\n",
			wantMsg:  "plane 1 sits on the heat sink",
			wantLine: 2,
		},
		{
			name:     "upper plane without bond layer",
			src:      "t\np1 tsi=500um td=4um\np2 tsi=45um td=4um\n.op\n",
			wantMsg:  "needs a positive bond thickness",
			wantLine: 3,
		},
		{
			name:     "negative substrate thickness",
			src:      "t\np1 tsi=-500um td=4um\n.op\n",
			wantMsg:  "substrate thickness must be positive",
			wantLine: 2,
		},
		{
			name:     "missing required parameter",
			src:      "t\np1 td=4um\n.op\n",
			wantMsg:  "missing required parameter tsi=",
			wantLine: 2,
		},
		{
			name:     "unknown material",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um fill=unobtanium\n.op\n",
			wantMsg:  "unknown material \"unobtanium\"",
			wantLine: 5,
		},
		{
			name:     "duplicate tile",
			src:      "t\np1 tsi=1um td=1um\np2 tsi=1um td=1um tb=1um\nv1 r=1um tl=1um\nt00 0 0 1w 1w\nt99 0 0 2w 2w\n.plan budget=1 tileside=1mm\n",
			wantMsg:  "duplicate tile (0,0)",
			wantLine: 6,
		},
		{
			name:     "source both watts and density",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\ni1 plane=1 dev=1w devd=1w/mm3\n.op\n",
			wantMsg:  "not both",
			wantLine: 4,
		},
		{
			name:     "source before any plane",
			src:      "t\nb1 side=100um\ni1 plane=1 dev=1w\n.op\n",
			wantMsg:  "before any plane card",
			wantLine: 3,
		},
		{
			name:     "source plane out of range",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\ni1 plane=7 dev=1w\n.op\n",
			wantMsg:  "must be \"all\" or 1..1",
			wantLine: 4,
		},
		{
			name:     "missing dt on tran",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.tran steps=10\n",
			wantMsg:  "missing required parameter dt=",
			wantLine: 6,
		},
		{
			name:     "tran model without transient form",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.tran dt=1us steps=10 model=1d\n",
			wantMsg:  "no transient form",
			wantLine: 6,
		},
		{
			name:     "unknown sweep parameter",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.sweep q 1um 2um 3\n",
			wantMsg:  "unknown sweep parameter \"q\"",
			wantLine: 6,
		},
		{
			name:     "sweep too few points",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.sweep r 1um 2um 1\n",
			wantMsg:  "at least 2 points",
			wantLine: 6,
		},
		{
			name:     "sweep fractional via count",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.sweep n list 1 2.5\n",
			wantMsg:  "must be a positive integer",
			wantLine: 6,
		},
		{
			name:     "unknown model",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.op model=z\n",
			wantMsg:  "unknown model \"z\"",
			wantLine: 6,
		},
		// Request-size caps: refine, segments, sweep points and transient
		// steps.
		{
			name:     "refine above cap",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.op model=ref refine=9\n",
			wantMsg:  "refine must be in [1, 8], got 9",
			wantLine: 6,
		},
		{
			name:     "segments above cap",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.op model=b segments=10001\n",
			wantMsg:  "segments must be in [1, 10000], got 10001",
			wantLine: 6,
		},
		{
			name:     "sweep points above cap",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.sweep r 1um 20um 10001 model=a\n",
			wantMsg:  "sweep has 10001 points, more than the maximum 10000",
			wantLine: 6,
		},
		{
			name:     "sweep list above cap",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.sweep r list" + strings.Repeat(" 5um", 10001) + " model=a\n",
			wantMsg:  "sweep has 10001 points, more than the maximum 10000",
			wantLine: 6,
		},
		{
			name:     "tran steps above cap",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.tran dt=1us steps=2000000000 model=b segments=10000\n",
			wantMsg:  "steps must be at most 10000, got 2000000000",
			wantLine: 6,
		},
		// precond= takes auto or mg: the SSOR preconditioner is gone, and
		// the grid rule picks the banded Cholesky solve on small grids.
		{
			name:     "precond ssor",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.op model=ref precond=ssor\n",
			wantMsg:  "unknown preconditioner \"ssor\" (want auto or mg)",
			wantLine: 6,
		},
		// ref-workers= is not a parameter: every reference solve runs on the
		// caller's goroutine.
		{
			name:     "unknown ref workers",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.op model=ref ref-workers=2\n",
			wantMsg:  "unknown parameter \"ref-workers\"",
			wantLine: 6,
		},
		// operator=, mg.hierarchy= and mg.precision= are not parameters:
		// the reference solver's operator and hierarchy follow from the
		// preconditioner and the grid.
		{
			name:     "unknown operator",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.op model=ref operator=dense\n",
			wantMsg:  "unknown parameter \"operator\"",
			wantLine: 6,
		},
		{
			name:     "unknown mg hierarchy",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.op model=ref mg.hierarchy=amg\n",
			wantMsg:  "unknown parameter \"mg.hierarchy\"",
			wantLine: 6,
		},
		{
			name:     "unknown mg precision",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.op model=ref mg.precision=f16\n",
			wantMsg:  "unknown parameter \"mg.precision\"",
			wantLine: 6,
		},
		{
			name:     "f32 without geometric",
			src:      "t\nb1 side=100um\np1 tsi=500um td=4um\np2 tsi=45um td=4um tb=1um\nv1 r=10um tl=1um\n.op model=ref mg.precision=f32\n",
			wantMsg:  "unknown parameter \"mg.precision\"",
			wantLine: 6,
		},
		{
			name:     "unknown analysis card",
			src:      "t\n.ac dec 10\n",
			wantMsg:  "unknown analysis card \".ac\"",
			wantLine: 2,
		},
		{
			name:     "analysis without stack",
			src:      "t\n.op\n",
			wantMsg:  "needs a block card",
			wantLine: 2,
		},
		{
			name:     "no analysis cards",
			src:      "t\nb1 side=100um\n",
			wantMsg:  "no analysis cards",
			wantLine: 1,
		},
		{
			name:     "empty deck",
			src:      "",
			wantMsg:  "missing title line",
			wantLine: 1,
		},
		{
			name:     "plan tile grid gap",
			src:      "t\np1 tsi=1um td=1um\np2 tsi=1um td=1um tb=1um\nv1 r=1um tl=1um\nt00 0 0 1w 1w\nt11 1 1 1w 1w\n.plan budget=1 tileside=1mm\n",
			wantMsg:  "tile grid 2x2 needs 4 tile cards, deck has 2",
			wantLine: 7,
		},
		{
			name:     "plan tile power arity",
			src:      "t\np1 tsi=1um td=1um\np2 tsi=1um td=1um tb=1um\nv1 r=1um tl=1um\nt00 0 0 1w\n.plan budget=1 tileside=1mm\n",
			wantMsg:  "lists 1 plane powers, deck has 2 planes",
			wantLine: 5,
		},
		{
			name:     "plan nonuniform upper planes",
			src:      "t\np1 tsi=1um td=1um\np2 tsi=1um td=1um tb=1um\np3 tsi=2um td=1um tb=1um\nv1 r=1um tl=1um\nt00 0 0 1w 1w 1w\n.plan budget=1 tileside=1mm\n",
			wantMsg:  "uniform upper planes",
			wantLine: 4,
		},
		{
			name:     "duplicate block card",
			src:      "t\nb1 side=100um\nb2 side=200um\n.op\n",
			wantMsg:  "duplicate block card",
			wantLine: 3,
		},
		{
			name:     "duplicate via card",
			src:      "t\nv1 r=1um tl=1um\nv2 r=2um tl=1um\n.op\n",
			wantMsg:  "duplicate via card",
			wantLine: 3,
		},
		{
			name:     "block without footprint",
			src:      "t\nb1 sink=27\n.op\n",
			wantMsg:  "missing footprint",
			wantLine: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := lowerString(t, tc.src)
			if err == nil {
				t.Fatalf("deck unexpectedly lowered:\n%s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, tc.wantMsg)
			}
			var de *Error
			if !errors.As(err, &de) {
				t.Fatalf("error %T is not a positioned *deck.Error: %v", err, err)
			}
			if de.Pos.Line < 1 || de.Pos.Col < 1 {
				t.Errorf("unpositioned error: %+v", de)
			}
			if tc.wantLine != 0 && de.Pos.Line != tc.wantLine {
				t.Errorf("error at line %d, want %d: %v", de.Pos.Line, tc.wantLine, err)
			}
			if !strings.HasPrefix(err.Error(), "err.ttsv:") {
				t.Errorf("error %q does not lead with the file position", err)
			}
		})
	}
}
