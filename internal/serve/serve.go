// Package serve is the ttsvd solve service: an embeddable HTTP handler
// exposing the library's analyses — steady-state solves, parameter sweeps,
// insertion planning and full .ttsv scenario decks — over POST endpoints.
//
// Every request lowers onto the same deck.Scenario execution path the CLIs'
// -deck flag uses and renders through deck.Result.WriteText, so a response
// body is byte-identical to the equivalent CLI run for the same input.
// Around that deterministic core the service adds the serving machinery:
//
//   - single-flight coalescing: identical in-flight requests (keyed by the
//     canonical hash of the lowered scenario) share one solve through the
//     flight group the sweep cache uses too; each request waits on its own
//     context, and the solve stops only when the last one has left;
//   - token-bucket admission control (429 + Retry-After);
//   - per-request timeouts and client-disconnect cancellation threaded into
//     the iterative solvers;
//   - /metrics, /healthz and /debug/pprof/ on the same mux.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/deck"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stack"
	"repro/internal/sweep"
	"repro/internal/units"
)

// maxBodyBytes bounds request bodies; decks and JSON configs are small, so
// anything past this is a mistake or abuse.
const maxBodyBytes = 1 << 20

// Config configures the service. The zero value serves with GOMAXPROCS
// engine workers, no admission limit and no timeout. The service records
// its metrics into obs.Default(), as every package does.
type Config struct {
	// Workers is the engine pool size for sweep and plan analyses; values
	// < 1 select GOMAXPROCS. Per-request workers= overrides still apply.
	Workers int
	// Timeout bounds each solve; an expired request gets 504. Zero means no
	// limit (client disconnect still cancels).
	Timeout time.Duration
	// Rate admits this many solve requests per second (token bucket);
	// overflow gets 429 with Retry-After. Zero disables admission control.
	Rate float64
	// Burst is the bucket capacity; <= 0 selects ceil(Rate).
	Burst int
	// Trace optionally records per-request and solver spans as NDJSON.
	Trace *obs.Tracer
}

// Server is the solve service handler. Create it with New; it is safe for
// concurrent use.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	flights flight.Group[response]
	bucket  *tokenBucket

	// solveGate, when set (tests only), runs at the start of every
	// coalesced execution, before any solving.
	solveGate func(endpoint string)
}

// New returns a ready-to-serve handler for cfg.
func New(cfg Config) *Server {
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		bucket: newTokenBucket(cfg.Rate, cfg.Burst),
	}
	s.mux.HandleFunc("POST /solve", s.handleRun("solve", s.lowerSolve))
	s.mux.HandleFunc("POST /sweep", s.handleSweep)
	s.mux.HandleFunc("POST /plan", s.handleRun("plan", s.lowerPlan))
	s.mux.HandleFunc("POST /deck", s.handleRun("deck", lowerDeck))
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, obs.Default().Snapshot().String())
	})
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	obs.RegisterPprof(s.mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleRun wraps one solve endpoint: admission control, request lowering,
// single-flight coalescing, execution, response sharing.
func (s *Server) handleRun(endpoint string, lower func(body []byte) (*deck.Scenario, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		obs.Default().Counter("serve." + endpoint + ".requests").Inc()
		if ok, retry := s.bucket.take(); !ok {
			s.rateLimited(w, retry)
			return
		}
		body, ok := s.readBody(w, r)
		if !ok {
			return
		}
		sc, err := lower(body)
		if err != nil {
			s.reject(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The coalescing key is the digest of the *lowered* scenario, not
		// the raw bytes: two requests that differ only in whitespace or
		// field order still share one solve.
		key := canon.Sum(endpoint, sc)
		s.coalesced(w, r, endpoint, key, func(ctx context.Context) response {
			return s.execute(ctx, endpoint, sc, deck.SweepControl{})
		})
	}
}

// readBody reads the request body under the size cap. On failure it answers
// the client (413 for an oversized body, 400 otherwise), refunds the
// admission token — the request never reached a solver — and returns false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.reject(w, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit), http.StatusRequestEntityTooLarge)
		} else {
			s.reject(w, fmt.Sprintf("reading request: %v", err), http.StatusBadRequest)
		}
		return nil, false
	}
	return body, true
}

// reject answers a request rejected before any solving and gives its
// admission token back.
func (s *Server) reject(w http.ResponseWriter, msg string, status int) {
	s.bucket.refund()
	obs.Default().Counter("serve.refunded").Inc()
	http.Error(w, msg, status)
}

// response is one finished execution, shared verbatim by every request that
// coalesced onto it.
type response struct {
	status      int
	contentType string
	body        []byte
}

// requestSecondsBounds are the bucket bounds of serve.request.seconds.
var requestSecondsBounds = obs.ExpBuckets(1e-6, 4, 13)

// coalesced runs fn under the single-flight group and writes the shared
// response; a request whose client disconnects leaves, writing nothing.
func (s *Server) coalesced(w http.ResponseWriter, r *http.Request, endpoint string, key [32]byte, fn func(context.Context) response) {
	t0 := time.Now()
	resp, shared, err := s.flights.Do(r.Context(), key, fn)
	obs.Default().Histogram("serve.request.seconds", requestSecondsBounds).Observe(time.Since(t0).Seconds())
	if err != nil {
		// Client is gone; there is nobody to write to.
		obs.Default().Counter("serve.abandoned").Inc()
		return
	}
	if shared {
		obs.Default().Counter("serve.coalesced").Inc()
	}
	w.Header().Set("Content-Type", resp.contentType)
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// execute runs one coalesced scenario to a response. ctx is the flight's
// execution context (alive while any client waits); the configured timeout
// and tracer stack on top, and both reach the iterative solvers through
// deck.RunScenario.
func (s *Server) execute(ctx context.Context, endpoint string, sc *deck.Scenario, sweepCtl deck.SweepControl) response {
	if s.solveGate != nil {
		s.solveGate(endpoint)
	}
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	ctx = obs.ContextWithTracer(ctx, s.cfg.Trace)
	ctx, sp := obs.StartSpan(ctx, "serve."+endpoint)
	if sp != nil {
		sp.Set("analyses", len(sc.Analyses))
		defer sp.End()
	}

	opt := deck.Options{Workers: s.cfg.Workers, Sweep: sweepCtl}
	res, err := deck.RunScenario(ctx, sc, opt)
	if err != nil {
		if sp != nil {
			sp.Set("error", err.Error())
		}
		obs.Default().Counter("serve.errors").Inc()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return textResponse(http.StatusGatewayTimeout, fmt.Sprintf("solve timed out after %v\n", s.cfg.Timeout))
		case errors.Is(err, context.Canceled):
			return textResponse(http.StatusServiceUnavailable, "solve cancelled\n")
		default:
			return textResponse(http.StatusUnprocessableEntity, err.Error()+"\n")
		}
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		obs.Default().Counter("serve.errors").Inc()
		return textResponse(http.StatusInternalServerError, err.Error()+"\n")
	}
	return response{status: http.StatusOK, contentType: "text/plain; charset=utf-8", body: buf.Bytes()}
}

// handleSweep serves POST /sweep: admission, lowering, then either the
// coalesced one-shot response path (like every other endpoint, with the
// shard spec folded into the coalescing key) or — when the request sets
// "stream" — a per-point NDJSON progress stream that bypasses coalescing,
// since each client gets its own live stream.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	obs.Default().Counter("serve.sweep.requests").Inc()
	if ok, retry := s.bucket.take(); !ok {
		s.rateLimited(w, retry)
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, sc, spec, err := s.lowerSweepRequest(body)
	if err != nil {
		s.reject(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctl := deck.SweepControl{Shard: spec}
	if !req.Stream {
		key := canon.Sum("sweep", spec.String(), sc)
		s.coalesced(w, r, "sweep", key, func(ctx context.Context) response {
			return s.execute(ctx, "sweep", sc, ctl)
		})
		return
	}
	s.streamSweep(w, r, sc, ctl)
}

// streamSweep executes the sweep with a progress callback wired to the
// response: one NDJSON record per completed point, then a final record
// carrying the full text report (or the error). The HTTP status is committed
// before solving starts, so failures surface in the final record, not the
// status line.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, sc *deck.Scenario, ctl deck.SweepControl) {
	obs.Default().Counter("serve.sweep.streams").Inc()
	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	ctx = obs.ContextWithTracer(ctx, s.cfg.Trace)
	ctx, sp := obs.StartSpan(ctx, "serve.sweep.stream")
	if sp != nil {
		defer sp.End()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	var mu sync.Mutex
	enc := json.NewEncoder(w)
	emit := func(v any) {
		mu.Lock()
		defer mu.Unlock()
		enc.Encode(v)
		if fl != nil {
			fl.Flush()
		}
	}
	ctl.Progress = func(p deck.SweepProgress) { emit(p) }

	opt := deck.Options{Workers: s.cfg.Workers, Sweep: ctl}
	res, err := deck.RunScenario(ctx, sc, opt)
	final := sweepStreamFinal{Done: true}
	if err != nil {
		obs.Default().Counter("serve.errors").Inc()
		if sp != nil {
			sp.Set("error", err.Error())
		}
		final.Err = err.Error()
	} else {
		var buf bytes.Buffer
		if werr := res.WriteText(&buf); werr != nil {
			final.Err = werr.Error()
		} else {
			final.Report = buf.String()
		}
	}
	emit(final)
}

// sweepStreamFinal is the last record of a /sweep NDJSON stream.
type sweepStreamFinal struct {
	Done   bool   `json:"done"`
	Report string `json:"report,omitempty"`
	Err    string `json:"error,omitempty"`
}

// rateLimited answers a request rejected by the admission bucket.
func (s *Server) rateLimited(w http.ResponseWriter, retry time.Duration) {
	obs.Default().Counter("serve.rejected").Inc()
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, "solve capacity exhausted, retry later", http.StatusTooManyRequests)
}

func textResponse(status int, msg string) response {
	return response{status: status, contentType: "text/plain; charset=utf-8", body: []byte(msg)}
}

// SolveRequest is the POST /solve body: one steady-state solve of a block.
// Block starts from the paper's DefaultBlock, so the empty object solves the
// baseline geometry; materials may be stock names ("Cu") or full objects.
// All quantities are SI.
type SolveRequest struct {
	Block  stack.BlockConfig `json:"block"`
	Models deck.ModelSpec    `json:"models"`
}

// SweepRequest is the POST /sweep body: a one-parameter geometry sweep.
// Give either Values, or From/To/Points for a linear range. Param names
// match the deck's sweepable parameters (r, tl, lext, n, tsi, tsi1, td, tb);
// values are SI.
type SweepRequest struct {
	Block  stack.BlockConfig `json:"block"`
	Models deck.ModelSpec    `json:"models"`
	Param  string            `json:"param"`
	Values []float64         `json:"values,omitempty"`
	From   float64           `json:"from,omitempty"`
	To     float64           `json:"to,omitempty"`
	Points int               `json:"points,omitempty"`
	// Workers overrides the service's engine pool size for this request.
	Workers int `json:"workers,omitempty"`
	// Shard selects one contiguous slice of the sweep's job list, in the
	// 1-based "i/n" form (e.g. "2/5"); empty runs the whole batch. The
	// response then covers only that shard's value rows and carries a shard
	// header, letting N processes split one sweep and merge their journals.
	Shard string `json:"shard,omitempty"`
	// Stream switches the response to NDJSON: one progress record per
	// completed point (deck.SweepProgress), then a final
	// {"done":true,"report":...} record with the full text report. Streamed
	// requests bypass single-flight coalescing — each client gets its own
	// live stream.
	Stream bool `json:"stream,omitempty"`
}

// PlanRequest is the POST /plan body: a TTSV insertion-planning run. Tech
// starts from plan.DefaultTechnology; PlanePowers is [row][col][plane] watts.
type PlanRequest struct {
	Tech    plan.Technology `json:"tech"`
	Floor   plan.Floorplan  `json:"floor"`
	Budget  float64         `json:"budget"`
	Models  deck.ModelSpec  `json:"models"`
	Workers int             `json:"workers,omitempty"`
}

// decodeStrict unmarshals body into v, rejecting unknown fields and
// trailing garbage.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %v", err)
	}
	if dec.More() {
		return fmt.Errorf("decoding request: trailing data after JSON object")
	}
	return nil
}

func (s *Server) lowerSolve(body []byte) (*deck.Scenario, error) {
	req := SolveRequest{Block: stack.DefaultBlock()}
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	models, err := req.Models.Models("all", core.PaperBlockCoeffs())
	if err != nil {
		return nil, err
	}
	st, err := req.Block.Build()
	if err != nil {
		return nil, err
	}
	return &deck.Scenario{
		Title:    "solve",
		Stack:    st,
		Analyses: []deck.Analysis{{Kind: "op", Op: &deck.OpAnalysis{Models: models}}},
	}, nil
}

func (s *Server) lowerSweepRequest(body []byte) (SweepRequest, *deck.Scenario, sweep.ShardSpec, error) {
	req := SweepRequest{Block: stack.DefaultBlock()}
	if err := decodeStrict(body, &req); err != nil {
		return req, nil, sweep.ShardSpec{}, err
	}
	spec, err := sweep.ParseShardSpec(req.Shard)
	if err != nil {
		return req, nil, sweep.ShardSpec{}, err
	}
	models, err := req.Models.Models("all", core.PaperBlockCoeffs())
	if err != nil {
		return req, nil, sweep.ShardSpec{}, err
	}
	base, err := req.Block.Build()
	if err != nil {
		return req, nil, sweep.ShardSpec{}, err
	}
	values := req.Values
	n := len(values)
	if n == 0 {
		n = req.Points
	}
	if err := deck.CheckSweepPoints(n); err != nil {
		return req, nil, sweep.ShardSpec{}, err
	}
	if len(values) == 0 {
		if req.Points < 2 {
			return req, nil, sweep.ShardSpec{}, fmt.Errorf("sweep needs values, or from/to with points >= 2 (got points=%d)", req.Points)
		}
		values = units.Linspace(req.From, req.To, req.Points)
	}
	stacks := make([]*stack.Stack, len(values))
	for i, v := range values {
		s, err := deck.ApplyParam(base, req.Param, v)
		if err != nil {
			return req, nil, sweep.ShardSpec{}, fmt.Errorf("sweep point %s=%v: %v", req.Param, v, err)
		}
		stacks[i] = s
	}
	sc := &deck.Scenario{
		Title: "sweep",
		Stack: base,
		Analyses: []deck.Analysis{{Kind: "sweep", Sweep: &deck.SweepAnalysis{
			Param: req.Param, Values: values, Stacks: stacks, Models: models, Workers: req.Workers,
		}}},
	}
	return req, sc, spec, nil
}

func (s *Server) lowerPlan(body []byte) (*deck.Scenario, error) {
	req := PlanRequest{Tech: plan.DefaultTechnology()}
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	models, err := req.Models.Models("a", core.PaperSystemCoeffs())
	if err != nil {
		return nil, err
	}
	if len(models) != 1 {
		return nil, fmt.Errorf("plan takes exactly one model, got %d", len(models))
	}
	if err := req.Floor.Validate(req.Tech); err != nil {
		return nil, err
	}
	return &deck.Scenario{
		Title: "plan",
		Analyses: []deck.Analysis{{Kind: "plan", Plan: &deck.PlanAnalysis{
			Tech: req.Tech, Floor: &req.Floor, Budget: req.Budget, Model: models[0], Workers: req.Workers,
		}}},
	}, nil
}

func lowerDeck(body []byte) (*deck.Scenario, error) {
	d, err := deck.Parse("request.ttsv", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return d.Lower()
}

// ListenAndServe runs the service on addr until ctx is cancelled, then
// drains: the listener closes immediately, in-flight requests get up to
// drain (<= 0 selects 10s) to finish, stragglers are cut off. ready, when
// non-nil, is called with the bound address once the listener is up (addr
// may end in :0).
func ListenAndServe(ctx context.Context, addr string, cfg Config, drain time.Duration, ready func(boundAddr string)) error {
	s := New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	if drain <= 0 {
		drain = 10 * time.Second
	}
	srv := &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
