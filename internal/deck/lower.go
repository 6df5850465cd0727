package deck

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/materials"
	"repro/internal/plan"
	"repro/internal/stack"
	"repro/internal/units"
)

// Scenario is the lowered, engine-ready form of a deck: the stack the
// element cards describe (nil for plan-only decks) plus the analyses to run
// in order.
type Scenario struct {
	// Title echoes the deck title.
	Title string
	// Stack is the block geometry, built when the deck has a block card.
	Stack *stack.Stack
	// Analyses lists the lowered analysis cards in deck order.
	Analyses []Analysis
}

// Analysis is one lowered analysis card; exactly one of the typed fields is
// set, matching Kind.
type Analysis struct {
	// Kind is "op", "tran", "sweep" or "plan".
	Kind string
	// Pos locates the analysis card in the deck.
	Pos Pos
	// Op holds the steady-state analysis, Kind "op".
	Op *OpAnalysis
	// Tran holds the transient analysis, Kind "tran".
	Tran *TranAnalysis
	// Sweep holds the parameter-sweep analysis, Kind "sweep".
	Sweep *SweepAnalysis
	// Plan holds the insertion-planning analysis, Kind "plan".
	Plan *PlanAnalysis
}

// OpAnalysis is a steady-state solve of the deck's stack with one or more
// models (".op").
type OpAnalysis struct {
	// Models lists the models to solve with, in report order.
	Models []core.Model
}

// TranAnalysis is a step-power transient simulation (".tran").
type TranAnalysis struct {
	// Model is the transient-capable model (A or B).
	Model core.Model
	// Spec is the integration step and horizon.
	Spec core.TransientSpec
}

// SweepAnalysis is a one-parameter geometry sweep through the batch engine
// (".sweep").
type SweepAnalysis struct {
	// Param is the swept deck parameter (r, tl, lext, n, tsi, tsi1, td, tb).
	Param string
	// Values lists the parameter values in sweep order.
	Values []float64
	// Stacks holds one validated stack per value.
	Stacks []*stack.Stack
	// Models lists the models evaluated at every value.
	Models []core.Model
	// Workers overrides the run option's worker count when positive.
	Workers int
}

// PlanAnalysis is a TTSV insertion-planning run (".plan").
type PlanAnalysis struct {
	// Tech is the per-via/per-plane technology derived from the via and
	// plane cards.
	Tech plan.Technology
	// Floor is the tiled power map assembled from the tile cards.
	Floor *plan.Floorplan
	// Budget is the allowed temperature rise (K).
	Budget float64
	// Model is the planning model.
	Model core.Model
	// Workers overrides the run option's worker count when positive.
	Workers int
}

// elements collects the deck's element cards during lowering.
type elements struct {
	file   string
	block  *Card
	via    *Card
	planes []planeDef
	tiles  []tileDef
	tileAt map[[2]int]*Card

	// block card values
	side, footprint, sink float64

	// via card values
	viaDef viaDef
}

type planeDef struct {
	card *Card
	p    stack.Plane
}

type viaDef struct {
	v stack.TTSV
}

type tileDef struct {
	card     *Card
	row, col int
	powers   []float64
}

// Lower resolves the deck into a Scenario: element cards become a validated
// stack (and floorplan), analysis cards become engine-ready analyses.
// Errors carry the position of the offending card or field.
func (d *Deck) Lower() (*Scenario, error) {
	el := &elements{file: d.File}
	sc := &Scenario{Title: d.Title}
	names := make(map[string]Pos)
	var analyses []*Card
	for i := range d.Cards {
		c := &d.Cards[i]
		if c.Dot() {
			analyses = append(analyses, c)
			continue
		}
		if prev, dup := names[c.Name]; dup {
			return nil, errAt(d.File, c.Pos, "duplicate card name %q (first defined at line %d)", c.Name, prev.Line)
		}
		names[c.Name] = c.Pos
		if err := el.addElement(c); err != nil {
			return nil, err
		}
	}
	// Source cards are applied after every plane exists, so a source may
	// precede the planes it powers.
	for i := range d.Cards {
		c := &d.Cards[i]
		if !c.Dot() && (c.Name[0] == 'i' || c.Name[0] == 's') {
			if err := el.applySource(c); err != nil {
				return nil, err
			}
		}
	}
	if len(analyses) == 0 {
		return nil, errAt(d.File, Pos{1, 1}, "deck has no analysis cards (.op, .tran, .sweep or .plan)")
	}
	for _, c := range analyses {
		a, err := el.lowerAnalysis(c, sc)
		if err != nil {
			return nil, err
		}
		sc.Analyses = append(sc.Analyses, a)
	}
	return sc, nil
}

// addElement dispatches one element card by the first letter of its name.
func (el *elements) addElement(c *Card) error {
	switch c.Name[0] {
	case 'b':
		return el.addBlock(c)
	case 'p':
		return el.addPlane(c)
	case 'v':
		return el.addVia(c)
	case 'i', 's':
		return nil // sources are applied in a second pass
	case 't':
		return el.addTile(c)
	default:
		return errAt(el.file, c.Pos, "unknown element card %q (want b*, p*, v*, i*/s*, t* or a '.' analysis card)", c.Name)
	}
}

func (el *elements) addBlock(c *Card) error {
	if el.block != nil {
		return errAt(el.file, c.Pos, "duplicate block card (first at line %d)", el.block.Pos.Line)
	}
	el.block = c
	r := newReader(el.file, c)
	el.side = r.float("side", units.DimLength, 0)
	el.footprint = r.float("a0", units.DimArea, 0)
	el.sink = r.float("sink", units.DimTemperature, 0)
	if err := r.finish(); err != nil {
		return err
	}
	if el.side != 0 && el.footprint != 0 {
		return errAt(el.file, c.Pos, "block card: give side= or a0=, not both")
	}
	if el.side == 0 && el.footprint == 0 {
		return errAt(el.file, c.Pos, "block card: missing footprint (side= or a0=)")
	}
	if el.footprint == 0 {
		el.footprint = el.side * el.side
	}
	return nil
}

func (el *elements) addPlane(c *Card) error {
	r := newReader(el.file, c)
	first := len(el.planes) == 0
	p := stack.Plane{
		SiThickness:          r.require("tsi", units.DimLength),
		ILDThickness:         r.require("td", units.DimLength),
		BondThickness:        r.float("tb", units.DimLength, 0),
		DevicePower:          r.float("qdev", units.DimPower, 0),
		ILDPower:             r.float("qild", units.DimPower, 0),
		DeviceLayerThickness: r.float("tdev", units.DimLength, units.UM(1)),
		Si:                   r.material("si", materials.Silicon),
		ILD:                  r.material("ild", materials.SiO2),
		Bond:                 r.material("bond", materials.Polyimide),
	}
	repeat := r.int("repeat", 1)
	if err := r.finish(); err != nil {
		return err
	}
	if p.SiThickness <= 0 {
		return r.fieldErr("tsi", "substrate thickness must be positive, got %s", units.FormatMeters(p.SiThickness))
	}
	if p.ILDThickness <= 0 {
		return r.fieldErr("td", "ILD thickness must be positive, got %s", units.FormatMeters(p.ILDThickness))
	}
	if first && p.BondThickness != 0 {
		return r.fieldErr("tb", "plane 1 sits on the heat sink and takes no bond layer")
	}
	if !first && p.BondThickness <= 0 {
		return errAt(el.file, c.Pos, "plane %d needs a positive bond thickness tb=", len(el.planes)+1)
	}
	if repeat < 1 {
		return r.fieldErr("repeat", "repeat must be >= 1, got %d", repeat)
	}
	if first && repeat != 1 {
		return r.fieldErr("repeat", "plane 1 cannot repeat (it has no bond layer)")
	}
	if len(el.planes)+repeat > 1024 {
		return errAt(el.file, c.Pos, "deck exceeds 1024 planes")
	}
	for i := 0; i < repeat; i++ {
		el.planes = append(el.planes, planeDef{card: c, p: p})
	}
	return nil
}

func (el *elements) addVia(c *Card) error {
	if el.via != nil {
		return errAt(el.file, c.Pos, "duplicate via card (first at line %d)", el.via.Pos.Line)
	}
	el.via = c
	r := newReader(el.file, c)
	v := stack.TTSV{
		Radius:         r.require("r", units.DimLength),
		LinerThickness: r.require("tl", units.DimLength),
		Extension:      r.float("lext", units.DimLength, 0),
		Count:          r.int("n", 1),
		Fill:           r.material("fill", materials.Copper),
		Liner:          r.material("liner", materials.SiO2),
	}
	if err := r.finish(); err != nil {
		return err
	}
	// The via column is the deck's "resistor": negative or zero geometry
	// would flip resistance signs, so it is rejected at the field.
	if v.Radius <= 0 {
		return r.fieldErr("r", "via radius must be positive, got %s", units.FormatMeters(v.Radius))
	}
	if v.LinerThickness <= 0 {
		return r.fieldErr("tl", "liner thickness must be positive, got %s", units.FormatMeters(v.LinerThickness))
	}
	if v.Extension < 0 {
		return r.fieldErr("lext", "via extension must be non-negative, got %s", units.FormatMeters(v.Extension))
	}
	if v.Count < 1 {
		return r.fieldErr("n", "via count must be >= 1, got %d", v.Count)
	}
	el.viaDef = viaDef{v: v}
	return nil
}

// applySource folds a power-source card into the plane powers. dev=/ild=
// give plane powers in watts; devd=/ildd= give volumetric densities applied
// over the block footprint and the plane's device-layer/ILD thickness —
// exactly the arithmetic stack.BlockConfig.Build performs, so density-driven
// decks land bit-identical to BlockConfig-built stacks.
func (el *elements) applySource(c *Card) error {
	r := newReader(el.file, c)
	planeSel := r.str("plane", "all")
	dev := r.float("dev", units.DimPower, math.NaN())
	ild := r.float("ild", units.DimPower, math.NaN())
	devd := r.float("devd", units.DimPowerDensity, math.NaN())
	ildd := r.float("ildd", units.DimPowerDensity, math.NaN())
	if err := r.finish(); err != nil {
		return err
	}
	if !math.IsNaN(dev) && !math.IsNaN(devd) {
		return errAt(el.file, c.Pos, "source card: give dev= (watts) or devd= (density), not both")
	}
	if !math.IsNaN(ild) && !math.IsNaN(ildd) {
		return errAt(el.file, c.Pos, "source card: give ild= (watts) or ildd= (density), not both")
	}
	if math.IsNaN(dev) && math.IsNaN(devd) && math.IsNaN(ild) && math.IsNaN(ildd) {
		return errAt(el.file, c.Pos, "source card sets no power (dev=, ild=, devd= or ildd=)")
	}
	if (!math.IsNaN(devd) || !math.IsNaN(ildd)) && el.block == nil {
		return errAt(el.file, c.Pos, "density source needs a block card for the footprint")
	}
	if len(el.planes) == 0 {
		return errAt(el.file, c.Pos, "source card before any plane card")
	}
	lo, hi := 0, len(el.planes)-1
	if planeSel != "all" {
		n, err := parseInt(planeSel)
		if err != nil || n < 1 || n > len(el.planes) {
			return r.fieldErr("plane", "plane %q must be \"all\" or 1..%d", planeSel, len(el.planes))
		}
		lo, hi = n-1, n-1
	}
	for i := lo; i <= hi; i++ {
		p := &el.planes[i].p
		a0 := el.footprint
		switch {
		case !math.IsNaN(dev):
			p.DevicePower = dev
		case !math.IsNaN(devd):
			p.DevicePower = devd * a0 * p.DeviceLayerThickness
		}
		switch {
		case !math.IsNaN(ild):
			p.ILDPower = ild
		case !math.IsNaN(ildd):
			p.ILDPower = ildd * a0 * p.ILDThickness
		}
	}
	return nil
}

func (el *elements) addTile(c *Card) error {
	r := newReader(el.file, c)
	row := r.posInt(0, "row")
	col := r.posInt(1, "col")
	powers := r.posFloats(2, units.DimPower)
	if err := r.finish(); err != nil {
		return err
	}
	if row < 0 || col < 0 {
		return errAt(el.file, c.Pos, "tile position (%d,%d) must be non-negative", row, col)
	}
	if row >= 4096 || col >= 4096 {
		return errAt(el.file, c.Pos, "tile position (%d,%d) outside the 4096x4096 grid bound", row, col)
	}
	if len(powers) == 0 {
		return errAt(el.file, c.Pos, "tile card needs per-plane powers after row and col")
	}
	if prev, dup := el.tileAt[[2]int{row, col}]; dup {
		return errAt(el.file, c.Pos, "duplicate tile (%d,%d) (first at line %d)", row, col, prev.Pos.Line)
	}
	if el.tileAt == nil {
		el.tileAt = make(map[[2]int]*Card)
	}
	el.tileAt[[2]int{row, col}] = c
	el.tiles = append(el.tiles, tileDef{card: c, row: row, col: col, powers: powers})
	return nil
}

// buildStack assembles and validates the stack for stack-based analyses.
func (el *elements) buildStack(at *Card) (*stack.Stack, error) {
	if el.block == nil {
		return nil, errAt(el.file, at.Pos, "%s needs a block card (footprint and sink)", at.Name)
	}
	if el.via == nil {
		return nil, errAt(el.file, at.Pos, "%s needs a via card", at.Name)
	}
	if len(el.planes) < 2 {
		return nil, errAt(el.file, at.Pos, "%s needs at least 2 plane cards, have %d", at.Name, len(el.planes))
	}
	planes := make([]stack.Plane, len(el.planes))
	for i := range el.planes {
		planes[i] = el.planes[i].p
	}
	s := &stack.Stack{
		Footprint: el.footprint,
		Planes:    planes,
		Via:       el.viaDef.v,
		SinkTemp:  el.sink,
	}
	if err := s.Validate(); err != nil {
		return nil, errAt(el.file, el.block.Pos, "%v", err)
	}
	return s, nil
}

// lowerAnalysis dispatches one analysis card.
func (el *elements) lowerAnalysis(c *Card, sc *Scenario) (Analysis, error) {
	switch c.Name {
	case ".op":
		return el.lowerOp(c, sc)
	case ".tran":
		return el.lowerTran(c, sc)
	case ".sweep":
		return el.lowerSweep(c, sc)
	case ".plan":
		return el.lowerPlan(c)
	default:
		return Analysis{}, errAt(el.file, c.Pos, "unknown analysis card %q (want .op, .tran, .sweep, .plan or .end)", c.Name)
	}
}

// ensureStack builds the deck stack once and caches it on the scenario.
func (el *elements) ensureStack(c *Card, sc *Scenario) (*stack.Stack, error) {
	if sc.Stack == nil {
		s, err := el.buildStack(c)
		if err != nil {
			return nil, err
		}
		sc.Stack = s
	}
	return sc.Stack, nil
}

func (el *elements) lowerOp(c *Card, sc *Scenario) (Analysis, error) {
	if _, err := el.ensureStack(c, sc); err != nil {
		return Analysis{}, err
	}
	r := newReader(el.file, c)
	models, err := el.readModels(r, "all", core.Coeffs{K1: 1.3, K2: 0.55, C1: 1})
	if err != nil {
		return Analysis{}, err
	}
	if err := r.finish(); err != nil {
		return Analysis{}, err
	}
	return Analysis{Kind: "op", Pos: c.Pos, Op: &OpAnalysis{Models: models}}, nil
}

func (el *elements) lowerTran(c *Card, sc *Scenario) (Analysis, error) {
	if _, err := el.ensureStack(c, sc); err != nil {
		return Analysis{}, err
	}
	r := newReader(el.file, c)
	spec := core.TransientSpec{
		Dt:    r.require("dt", units.DimTime),
		Steps: r.int("steps", 0),
	}
	models, err := el.readModels(r, "a", core.Coeffs{K1: 1.3, K2: 0.55, C1: 1})
	if err != nil {
		return Analysis{}, err
	}
	if len(models) != 1 {
		return Analysis{}, errAt(el.file, c.Pos, ".tran takes exactly one model (A or B)")
	}
	if _, ok := models[0].(transientModel); !ok {
		return Analysis{}, errAt(el.file, c.Pos, ".tran model %s has no transient form (want A or B)", models[0].Name())
	}
	if err := spec.Validate(); err != nil {
		return Analysis{}, errAt(el.file, c.Pos, "%v", err)
	}
	if err := r.finish(); err != nil {
		return Analysis{}, err
	}
	return Analysis{Kind: "tran", Pos: c.Pos, Tran: &TranAnalysis{Model: models[0], Spec: spec}}, nil
}

// transientModel is the step-response interface ModelA and ModelB implement.
type transientModel interface {
	SolveTransient(*stack.Stack, core.TransientSpec) (*core.TransientResult, error)
}

// sweepDims maps sweepable deck parameters to their dimensions.
var sweepDims = map[string]units.Dim{
	"r": units.DimLength, "tl": units.DimLength, "lext": units.DimLength,
	"tsi": units.DimLength, "tsi1": units.DimLength,
	"td": units.DimLength, "tb": units.DimLength,
	"n": units.DimNone,
}

func (el *elements) lowerSweep(c *Card, sc *Scenario) (Analysis, error) {
	base, err := el.ensureStack(c, sc)
	if err != nil {
		return Analysis{}, err
	}
	r := newReader(el.file, c)
	paramF, ok := r.positional(0)
	if !ok {
		return Analysis{}, errAt(el.file, c.Pos, ".sweep needs a parameter: .sweep <param> <from> <to> <points> or .sweep <param> list v1 v2 …")
	}
	param := strings.ToLower(paramF.Value)
	dim, known := sweepDims[param]
	if !known {
		return Analysis{}, errAt(el.file, paramF.Pos, "unknown sweep parameter %q (want r, tl, lext, n, tsi, tsi1, td or tb)", paramF.Value)
	}
	var values []float64
	if second, ok := r.positional(1); ok && strings.EqualFold(second.Value, "list") {
		r.take(1)
		for i := 2; ; i++ {
			f, ok := r.positional(i)
			if !ok {
				break
			}
			v, err := units.ParseValue(f.Value, dim)
			if err != nil {
				return Analysis{}, errAt(el.file, f.Pos, "sweep value: %v", err)
			}
			values = append(values, v)
			r.take(i)
		}
		if len(values) == 0 {
			return Analysis{}, errAt(el.file, c.Pos, ".sweep list needs at least one value")
		}
	} else {
		lo := r.posFloat(1, "from", dim)
		hi := r.posFloat(2, "to", dim)
		n := r.posInt(3, "points")
		if r.err == nil && n < 2 {
			return Analysis{}, errAt(el.file, c.Pos, ".sweep needs at least 2 points, got %d", n)
		}
		if r.err == nil {
			values = units.Linspace(lo, hi, n)
		}
	}
	r.take(0)
	models, merr := el.readModels(r, "all", core.Coeffs{K1: 1.3, K2: 0.55, C1: 1})
	if merr != nil {
		return Analysis{}, merr
	}
	workers := r.int("workers", 0)
	if err := r.finish(); err != nil {
		return Analysis{}, err
	}
	stacks := make([]*stack.Stack, len(values))
	for i, v := range values {
		s, err := ApplyParam(base, param, v)
		if err != nil {
			return Analysis{}, errAt(el.file, c.Pos, "sweep point %s=%v: %v", param, v, err)
		}
		stacks[i] = s
	}
	return Analysis{Kind: "sweep", Pos: c.Pos, Sweep: &SweepAnalysis{
		Param: param, Values: values, Stacks: stacks, Models: models, Workers: workers,
	}}, nil
}

// ApplyParam clones the base stack with one sweep parameter (r, tl, lext, n,
// tsi, tsi1, td, tb) changed and re-validates it. Deck .sweep cards and the
// solve service's JSON sweep requests both build their per-point stacks
// through it, so equal requests land on identical stack values.
func ApplyParam(base *stack.Stack, param string, v float64) (*stack.Stack, error) {
	s := base.Clone()
	switch param {
	case "r":
		s.Via.Radius = v
	case "tl":
		s.Via.LinerThickness = v
	case "lext":
		s.Via.Extension = v
	case "n":
		n := int(v)
		if float64(n) != v || n < 1 {
			return nil, fmt.Errorf("via count must be a positive integer, got %v", v)
		}
		s.Via.Count = n
	case "tsi":
		for i := 1; i < len(s.Planes); i++ {
			s.Planes[i].SiThickness = v
		}
	case "tsi1":
		s.Planes[0].SiThickness = v
	case "td":
		for i := range s.Planes {
			s.Planes[i].ILDThickness = v
		}
	case "tb":
		for i := 1; i < len(s.Planes); i++ {
			s.Planes[i].BondThickness = v
		}
	default:
		return nil, fmt.Errorf("unknown sweep parameter %q", param)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func (el *elements) lowerPlan(c *Card) (Analysis, error) {
	if el.via == nil {
		return Analysis{}, errAt(el.file, c.Pos, ".plan needs a via card for the technology")
	}
	if len(el.planes) < 2 {
		return Analysis{}, errAt(el.file, c.Pos, ".plan needs at least 2 plane cards, have %d", len(el.planes))
	}
	for i := 2; i < len(el.planes); i++ {
		a, b := el.planes[i].p, el.planes[1].p
		if a.SiThickness != b.SiThickness || a.ILDThickness != b.ILDThickness || a.BondThickness != b.BondThickness {
			return Analysis{}, errAt(el.file, el.planes[i].card.Pos, ".plan needs uniform upper planes; plane %d differs from plane 2", i+1)
		}
	}
	if len(el.tiles) == 0 {
		return Analysis{}, errAt(el.file, c.Pos, ".plan needs tile cards (t<name> <row> <col> <powers…>)")
	}
	r := newReader(el.file, c)
	budget := r.require("budget", units.DimTemperature)
	tileSide := r.require("tileside", units.DimLength)
	maxDensity := r.float("maxdensity", units.DimNone, 0.10)
	workers := r.int("workers", 0)
	models, err := el.readModels(r, "a", core.Coeffs{K1: 1.6, K2: 0.8, C1: 3.5})
	if err != nil {
		return Analysis{}, err
	}
	if len(models) != 1 {
		return Analysis{}, errAt(el.file, c.Pos, ".plan takes exactly one model")
	}
	p0, p1 := el.planes[0].p, el.planes[1].p
	tech := plan.Technology{
		ViaRadius:            el.viaDef.v.Radius,
		LinerThickness:       el.viaDef.v.LinerThickness,
		Extension:            el.viaDef.v.Extension,
		TSi1:                 p0.SiThickness,
		TSi:                  p1.SiThickness,
		TD:                   p0.ILDThickness,
		TB:                   p1.BondThickness,
		NumPlanes:            len(el.planes),
		MaxDensity:           maxDensity,
		DeviceLayerThickness: p0.DeviceLayerThickness,
		Si:                   p0.Si,
		ILD:                  p0.ILD,
		Bond:                 p1.Bond,
		Fill:                 el.viaDef.v.Fill,
		Liner:                el.viaDef.v.Liner,
	}
	rows, cols := 0, 0
	for _, t := range el.tiles {
		rows = max(rows, t.row+1)
		cols = max(cols, t.col+1)
	}
	// Tiles are unique, so a full grid needs exactly rows*cols of them;
	// checking the count first keeps a sparse hostile deck (one tile at a
	// huge coordinate) from allocating the whole grid just to fail.
	if rows*cols > len(el.tiles) {
		return Analysis{}, errAt(el.file, c.Pos, "tile grid %dx%d needs %d tile cards, deck has %d", rows, cols, rows*cols, len(el.tiles))
	}
	powers := make([][][]float64, rows)
	for i := range powers {
		powers[i] = make([][]float64, cols)
	}
	for _, t := range el.tiles {
		if len(t.powers) != tech.NumPlanes {
			return Analysis{}, errAt(el.file, t.card.Pos, "tile (%d,%d) lists %d plane powers, deck has %d planes",
				t.row, t.col, len(t.powers), tech.NumPlanes)
		}
		powers[t.row][t.col] = t.powers
	}
	for ri := range powers {
		for ci := range powers[ri] {
			if powers[ri][ci] == nil {
				return Analysis{}, errAt(el.file, c.Pos, "tile (%d,%d) missing: every cell of the %dx%d grid needs a tile card", ri, ci, rows, cols)
			}
		}
	}
	floor := &plan.Floorplan{TileSide: tileSide, PlanePowers: powers}
	if err := r.finish(); err != nil {
		return Analysis{}, err
	}
	if err := floor.Validate(tech); err != nil {
		return Analysis{}, errAt(el.file, c.Pos, "%v", err)
	}
	return Analysis{Kind: "plan", Pos: c.Pos, Plan: &PlanAnalysis{
		Tech: tech, Floor: floor, Budget: budget, Model: models[0], Workers: workers,
	}}, nil
}

// readModels parses the shared model selection parameters: model= (A, B, 1D,
// ref, all), segments=, k1=, k2=, c1=, and the reference-solver knobs
// ref-workers=, precond=, refine=. Construction funnels through
// ModelSpec.build, the same path JSON-driven requests use, so a card and the
// equivalent JSON request yield value-identical models.
func (el *elements) readModels(r *cardReader, defSpec string, defCoeffs core.Coeffs) ([]core.Model, error) {
	sp := ModelSpec{
		Model:      strings.ToLower(r.str("model", defSpec)),
		Segments:   r.int("segments", 100),
		K1:         r.float("k1", units.DimNone, defCoeffs.K1),
		K2:         r.float("k2", units.DimNone, defCoeffs.K2),
		C1:         r.float("c1", units.DimNone, defCoeffs.C1),
		RefWorkers: r.int("ref-workers", 0),
		Refine:     r.int("refine", 1),
		Precond:    r.str("precond", "auto"),
	}
	if r.err != nil {
		return nil, r.err
	}
	models, err := sp.build()
	if err != nil {
		var se *specError
		if errors.As(err, &se) {
			return nil, r.fieldErr(se.field, "%s", se.msg)
		}
		return nil, err
	}
	return models, nil
}

func parseInt(s string) (int, error) {
	v, err := units.ParseValue(s, units.DimNone)
	if err != nil {
		return 0, err
	}
	n := int(v)
	if float64(n) != v {
		return 0, fmt.Errorf("%q is not an integer", s)
	}
	return n, nil
}
