package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/deck"
	"repro/internal/fem"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stack"
	"repro/internal/units"
)

// serveLimit is the latency a request must meet to count towards goodput:
// several times the slowest request kind's latency (the 2× geometric deck).
const serveLimit = 250 * time.Millisecond

// request is one distinct request body with the exact response it must get.
type request struct {
	kind string // solve_a, solve_ref, deck or sweep
	path string
	raw  []byte // the whole HTTP/1.1 request
	want []byte
}

func newRequest(kind, path string, body, want []byte) *request {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: ttsvd\r\nContent-Length: %d\r\n\r\n", path, len(body))
	return &request{kind: kind, path: path, raw: append([]byte(head), body...), want: want}
}

// serveW drives an in-process ttsvd (serve.ListenAndServe on loopback,
// default Config but for numcpu engine workers) closed loop: each of its
// clients holds one keep-alive connection and sends its next request as soon
// as the previous reply has arrived. README.md ("Why closed loop") explains
// why not open loop.
//
// The single-client workload's timed phases run with GOMAXPROCS 1 (see the
// workload table).
type serveW struct {
	clients int
	workers int

	solveA, solveRef, decks []*request
	sweep                   *request
	seq                     []*request // the seeded request sequence clients draw from

	addr  string
	stop  func() error
	conns []*conn // one keep-alive connection per client
}

// The mix per 100 requests: /solve Model A, /solve model=ref, /deck,
// /sweep. Exact counts per block, shuffled by the seed, keep the mix — and
// so the allocation per request — the same on every seed.
const (
	mixSolveA   = 85
	mixSolveRef = 10
	mixDeck     = 4
	mixSweep    = 1
	mixBlock    = mixSolveA + mixSolveRef + mixDeck + mixSweep
)

// Model A requests use 16 geometries, 80% of requests going to the first
// three (20% of the keys).
const (
	solveAKeys = 16
	solveAHot  = 3
	refKeys    = 4
)

// setupServe returns the set-up of a serve workload with the given number
// of clients.
func setupServe(clients func(e *env) int) func(context.Context, *env) (instance, error) {
	return func(ctx context.Context, e *env) (instance, error) {
		s, err := newServe(ctx, e, clients(e))
		if err != nil {
			return nil, err
		}
		if err := s.start(nil); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
}

// newServe generates the request catalogue and each request's expected
// response: /solve bodies must equal an in-process deck.RunScenario render
// of the same scenario, /deck bodies the corpus goldens.
func newServe(ctx context.Context, e *env, clients int) (*serveW, error) {
	rng := rand.New(rand.NewSource(e.seed))
	s := &serveW{clients: clients, workers: e.workers}
	solve := func(model string, cfg stack.BlockConfig) (*request, error) {
		spec := deck.ModelSpec{Model: model}
		body, err := json.Marshal(serve.SolveRequest{Block: cfg, Models: spec})
		if err != nil {
			return nil, err
		}
		models, err := spec.Models("all", core.PaperBlockCoeffs())
		if err != nil {
			return nil, err
		}
		st, err := cfg.Build()
		if err != nil {
			return nil, err
		}
		want, err := render(ctx, e, &deck.Scenario{Title: "solve", Stack: st,
			Analyses: []deck.Analysis{{Kind: "op", Op: &deck.OpAnalysis{Models: models}}}})
		return newRequest("solve_"+model, "/solve", body, want), err
	}
	for k := 0; k < solveAKeys+refKeys; k++ {
		cfg := stack.DefaultBlock()
		cfg.R = units.UM(6 + 14*rng.Float64())
		model := "a"
		if k < solveAKeys {
			cfg.TL = units.UM(0.5 + 1.5*rng.Float64())
		} else {
			// The ref geometries vary only the radius, which keeps the grid
			// topology — and so the warm-pool entry — shared.
			model = "ref"
		}
		r, err := solve(model, cfg)
		if err != nil {
			return nil, err
		}
		if k < solveAKeys {
			s.solveA = append(s.solveA, r)
		} else {
			s.solveRef = append(s.solveRef, r)
		}
	}
	var err error
	if s.sweep, err = sweepRequest(ctx, e, 5+5*rng.Float64()); err != nil {
		return nil, err
	}
	paths, err := filepath.Glob(filepath.Join(e.root, "testdata", "decks", "*.ttsv"))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no decks under testdata/decks: %v", err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		body, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		golden := filepath.Join(filepath.Dir(p), "golden", strings.TrimSuffix(filepath.Base(p), ".ttsv")+".golden")
		want, err := os.ReadFile(golden)
		if err != nil {
			return nil, err
		}
		s.decks = append(s.decks, newRequest("deck", "/deck", body, want))
	}
	s.seq = s.sequence(rng, serveSequence)
	return s, nil
}

// serveSequence is the length of the request sequence; clients cycle it.
const serveSequence = 100 * mixBlock

// sweepRequest builds the 12-point Model A radius sweep starting at r0 µm
// and renders its expected report through the same lowering the service
// applies to a SweepRequest.
func sweepRequest(ctx context.Context, e *env, r0 float64) (*request, error) {
	req := serve.SweepRequest{Block: stack.DefaultBlock(), Models: deck.ModelSpec{Model: "a"},
		Param: "r", From: units.UM(r0), To: units.UM(r0 + 10), Points: 12}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	base, err := req.Block.Build()
	if err != nil {
		return nil, err
	}
	models, err := req.Models.Models("all", core.PaperBlockCoeffs())
	if err != nil {
		return nil, err
	}
	values := units.Linspace(req.From, req.To, req.Points)
	stacks := make([]*stack.Stack, len(values))
	for i, v := range values {
		if stacks[i], err = deck.ApplyParam(base, req.Param, v); err != nil {
			return nil, err
		}
	}
	want, err := render(ctx, e, &deck.Scenario{Title: "sweep", Stack: base, Analyses: []deck.Analysis{{Kind: "sweep",
		Sweep: &deck.SweepAnalysis{Param: req.Param, Values: values, Stacks: stacks, Models: models}}}})
	return newRequest("sweep", "/sweep", body, want), err
}

func render(ctx context.Context, e *env, sc *deck.Scenario) ([]byte, error) {
	res, err := deck.RunScenario(ctx, sc, deck.Options{Workers: e.workers})
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	err = res.WriteText(&b)
	return b.Bytes(), err
}

// start runs a fresh server recording spans into tr (nil: untraced) and
// warms it up: every distinct request once, checked, so lazy set-up is done
// and the warm pool holds the reference solver state.
func (s *serveW) start(tr *obs.Tracer) error {
	sctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve.ListenAndServe(sctx, "127.0.0.1:0", serve.Config{Workers: s.workers, Trace: tr}, time.Second,
			func(addr string) { ready <- addr })
	}()
	select {
	case s.addr = <-ready:
	case err := <-done:
		cancel()
		return fmt.Errorf("starting server: %w", err)
	}
	s.stop = func() error {
		cancel()
		return <-done
	}
	s.conns = make([]*conn, s.clients)
	for c := range s.conns {
		s.conns[c] = &conn{addr: s.addr}
	}
	for i, r := range s.catalog() {
		if err := s.conns[i%len(s.conns)].do(r); err != nil {
			s.shutdown()
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (s *serveW) catalog() []*request {
	all := append(append(append([]*request(nil), s.solveA...), s.solveRef...), s.decks...)
	return append(all, s.sweep)
}

// setTracer restarts the server so its spans go to tr.
func (s *serveW) setTracer(tr *obs.Tracer) error {
	s.shutdown()
	return s.start(tr)
}

// conn is one keep-alive HTTP/1.1 connection to the server, used by one
// goroutine at a time: it writes the request and reads the response itself.
// net/http's client would hand each request to its connection's read and
// write goroutines, and every hand-off is a thread wake-up that on an idle
// VM costs as much as a whole Model A request (about 50 µs).
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

// do sends r and checks the response: 200 and the expected body.
func (c *conn) do(r *request) error {
	if c.c == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return err
		}
		c.c, c.br = nc, bufio.NewReader(nc)
	}
	err := c.roundTrip(r)
	if err != nil {
		c.close() // the connection state is unknown: redial for the next request
	}
	return err
}

func (c *conn) roundTrip(r *request) error {
	if err := c.c.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		return err
	}
	if _, err := c.c.Write(r.raw); err != nil {
		return err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", r.kind, r.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if !bytes.Equal(body, r.want) {
		return fmt.Errorf("%s %s: response differs from the in-process render", r.kind, r.path)
	}
	return nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c, c.br = nil, nil
	}
}

// sequence returns n requests drawn from the mix. Every block of mixBlock
// requests has the mix's exact counts in a seeded order, and keys, decks and
// ref geometries are taken round-robin in a seeded order, so the work per
// request does not vary with the seed.
func (s *serveW) sequence(rng *rand.Rand, n int) []*request {
	rr := func(set []*request) func() *request {
		order, k := rng.Perm(len(set)), 0
		return func() *request {
			k++
			return set[order[k%len(set)]]
		}
	}
	nextHot, nextCold := rr(s.solveA[:solveAHot]), rr(s.solveA[solveAHot:])
	nextRef, nextDeck := rr(s.solveRef), rr(s.decks)
	seq := make([]*request, 0, n+mixBlock)
	for len(seq) < n {
		block := make([]*request, 0, mixBlock)
		for i := 0; i < mixSolveA; i++ {
			if i < mixSolveA*8/10 {
				block = append(block, nextHot())
			} else {
				block = append(block, nextCold())
			}
		}
		for i := 0; i < mixSolveRef; i++ {
			block = append(block, nextRef())
		}
		for i := 0; i < mixDeck; i++ {
			block = append(block, nextDeck())
		}
		for i := 0; i < mixSweep; i++ {
			block = append(block, s.sweep)
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		seq = append(seq, block...)
	}
	return seq[:n]
}

// drive runs the clients until dur has passed. The clients take requests
// from the one sequence in turn, so together they send the mix.
func (s *serveW) drive(ctx context.Context, dur time.Duration, rec *recorder) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cn := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i > 0 && time.Since(rec.start) >= dur {
					return
				}
				r := s.seq[i%len(s.seq)]
				_, sp := obs.StartSpan(ctx, "bench.request")
				sp.Set("req", i)
				sp.Set("kind", r.kind)
				t0 := time.Now()
				err := cn.do(r)
				lat := time.Since(t0)
				sp.End()
				rec.done(lat, err)
			}
		}()
	}
	wg.Wait()
}

func (s *serveW) problem() (*stack.Stack, fem.Resolution) {
	st, _ := stack.DefaultBlock().Build()
	return st, fem.DefaultResolution()
}

func (s *serveW) close() { s.shutdown() }

// shutdown closes the connections and stops the server.
func (s *serveW) shutdown() {
	if s.stop == nil {
		return
	}
	for _, cn := range s.conns {
		cn.close()
	}
	if err := s.stop(); err != nil {
		logf("stopping server: %v", err)
	}
	s.stop = nil
}
