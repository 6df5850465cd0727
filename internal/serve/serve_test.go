package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/deck"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stack"
	"repro/internal/units"
)

// The corpus shared with the deck package and the CLI golden tests; the
// service must reproduce these reports byte for byte.
const (
	corpusDir = "../../testdata/decks"
	goldenDir = "../../testdata/decks/golden"
)

// newTestServer builds a Server on its own registry (so counters are not
// polluted across tests) behind an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, cfg.Registry
}

// post sends one request and returns status and body.
func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, got
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeckEndpointMatchesGoldens posts every corpus deck to /deck and
// requires the response body to be byte-identical to the deck's golden
// report — the service must not add, reorder or reformat anything relative
// to the CLI -deck path.
func TestDeckEndpointMatchesGoldens(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.ttsv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 6 {
		t.Fatalf("corpus has %d decks, want >= 6", len(paths))
	}
	sort.Strings(paths)
	for _, path := range paths {
		path := path
		base := strings.TrimSuffix(filepath.Base(path), ".ttsv")
		t.Run(base, func(t *testing.T) {
			t.Parallel()
			deck, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(goldenDir, base+".golden"))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			status, got := post(t, ts.URL+"/deck", deck)
			if status != http.StatusOK {
				t.Fatalf("status %d, body:\n%s", status, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("response differs from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// baselineDeck returns a deck equivalent to the given JSON endpoint request
// against the paper's default block: same geometry as stack.DefaultBlock,
// same analysis defaults as the JSON lowering.
func baselineDeck(title, analysis string) []byte {
	return []byte(title + "\n" +
		"b1 side=100um sink=27\n" +
		"p1 tsi=500um td=4um tdev=1um\n" +
		"p2 tsi=45um td=4um tb=1um tdev=1um repeat=2\n" +
		"v1 r=10um tl=0.5um lext=1um n=1\n" +
		"iall plane=all devd=700w/mm3 ildd=70w/mm3\n" +
		analysis + "\n" +
		".end\n")
}

// TestSolveMatchesDeck: an empty JSON /solve request and the hand-written
// equivalent deck must produce byte-identical reports — the JSON lowering
// and the deck lowering meet at the same scenario.
func TestSolveMatchesDeck(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	status, fromJSON := post(t, ts.URL+"/solve", []byte(`{}`))
	if status != http.StatusOK {
		t.Fatalf("/solve status %d, body:\n%s", status, fromJSON)
	}
	status, fromDeck := post(t, ts.URL+"/deck", baselineDeck("solve", ".op model=all segments=100"))
	if status != http.StatusOK {
		t.Fatalf("/deck status %d, body:\n%s", status, fromDeck)
	}
	if !bytes.Equal(fromJSON, fromDeck) {
		t.Errorf("JSON solve differs from equivalent deck:\n--- json ---\n%s\n--- deck ---\n%s", fromJSON, fromDeck)
	}
}

// TestSweepMatchesDeck: a JSON /sweep over a linear range must match the
// equivalent .sweep card byte for byte. The endpoints are spelled with
// units.UM, not 5e-6 literals: the deck parses "5um" as 5 × 1e-6, which is
// one ulp away from the decimal literal, and byte-identity is exact.
func TestSweepMatchesDeck(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	body, err := json.Marshal(SweepRequest{
		Block:  stack.DefaultBlock(),
		Param:  "r",
		From:   units.UM(5),
		To:     units.UM(10),
		Points: 3,
		Models: deck.ModelSpec{Model: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	status, fromJSON := post(t, ts.URL+"/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("/sweep status %d, body:\n%s", status, fromJSON)
	}
	status, fromDeck := post(t, ts.URL+"/deck", baselineDeck("sweep", ".sweep r 5um 10um 3 model=a"))
	if status != http.StatusOK {
		t.Fatalf("/deck status %d, body:\n%s", status, fromDeck)
	}
	if !bytes.Equal(fromJSON, fromDeck) {
		t.Errorf("JSON sweep differs from equivalent deck:\n--- json ---\n%s\n--- deck ---\n%s", fromJSON, fromDeck)
	}
}

// TestPlanMatchesDeck: a JSON /plan must match the deck whose plane/via
// cards spell out the same technology. Lengths go through units.UM/MM for
// the same ulp-exactness reason as the sweep test.
func TestPlanMatchesDeck(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	tech := plan.DefaultTechnology()
	tech.ViaRadius = units.UM(30)
	tech.LinerThickness = units.UM(1)
	tech.Extension = units.UM(1)
	tech.TSi1 = units.UM(300)
	tech.TSi = units.UM(300)
	tech.TD = units.UM(20)
	tech.TB = units.UM(10)
	tech.DeviceLayerThickness = units.UM(1)
	req := PlanRequest{
		Tech: tech,
		Floor: plan.Floorplan{
			TileSide: units.MM(1),
			PlanePowers: [][][]float64{
				{{0.10, 0.25, 0.20}, {0.15, 0.60, 0.50}, {0.10, 0.20, 0.15}},
				{{0.12, 0.30, 0.25}, {0.18, 0.70, 0.55}, {0.08, 0.15, 0.10}},
			},
		},
		Budget: 15,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	status, fromJSON := post(t, ts.URL+"/plan", body)
	if status != http.StatusOK {
		t.Fatalf("/plan status %d, body:\n%s", status, fromJSON)
	}
	planDeck := []byte("plan\n" +
		"p1 tsi=300um td=20um tdev=1um\n" +
		"p2 tsi=300um td=20um tb=10um repeat=2\n" +
		"v1 r=30um tl=1um lext=1um\n" +
		"t00 0 0 0.10w 0.25w 0.20w\n" +
		"t01 0 1 0.15w 0.60w 0.50w\n" +
		"t02 0 2 0.10w 0.20w 0.15w\n" +
		"t10 1 0 0.12w 0.30w 0.25w\n" +
		"t11 1 1 0.18w 0.70w 0.55w\n" +
		"t12 1 2 0.08w 0.15w 0.10w\n" +
		".plan budget=15 tileside=1mm maxdensity=0.1 model=a\n" +
		".end\n")
	status, fromDeck := post(t, ts.URL+"/deck", planDeck)
	if status != http.StatusOK {
		t.Fatalf("/deck status %d, body:\n%s", status, fromDeck)
	}
	if !bytes.Equal(fromJSON, fromDeck) {
		t.Errorf("JSON plan differs from equivalent deck:\n--- json ---\n%s\n--- deck ---\n%s", fromJSON, fromDeck)
	}
}

// TestCoalescingCollapsesIdenticalRequests fires N identical /solve requests
// while the execution is gated, then releases the gate: exactly one
// execution must run and the other N-1 requests must share its bytes.
func TestCoalescingCollapsesIdenticalRequests(t *testing.T) {
	const n = 8
	s, ts, reg := newTestServer(t, Config{Workers: 1})
	var execs atomic.Int32
	release := make(chan struct{})
	s.solveGate = func(string) {
		execs.Add(1)
		<-release
	}
	body := []byte(`{"models": {"model": "a"}}`)

	// The flight key the handler will compute for this body.
	sc, err := s.lowerSolve(body)
	if err != nil {
		t.Fatal(err)
	}
	key := canon.Hash("solve", sc)

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	// Release the gate only once every request is parked on the same flight,
	// so none of them can arrive after the leader finished and start a
	// second execution.
	waitFor(t, "all requests to join the flight", func() bool {
		s.flights.mu.Lock()
		defer s.flights.mu.Unlock()
		c := s.flights.m[key]
		return c != nil && c.waiters == n
	})
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Errorf("coalesced batch ran %d executions, want 1", got)
	}
	if got := reg.Counter("serve.coalesced").Value(); got != n-1 {
		t.Errorf("serve.coalesced = %d, want %d", got, n-1)
	}
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d got different bytes than request 0", i)
		}
	}
	if len(bodies[0]) == 0 || !bytes.HasPrefix(bodies[0], []byte("title: solve\n")) {
		t.Errorf("unexpected report:\n%s", bodies[0])
	}
}

// TestWarmPoolBitIdentical solves the reference model twice on one server:
// the second solve reuses pooled solver state and must still produce the
// exact same bytes as the cold one.
func TestWarmPoolBitIdentical(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{Workers: 1})
	body := []byte(`{"models": {"model": "ref"}}`)
	status, cold := post(t, ts.URL+"/solve", body)
	if status != http.StatusOK {
		t.Fatalf("cold solve: status %d, body:\n%s", status, cold)
	}
	status, warm := post(t, ts.URL+"/solve", body)
	if status != http.StatusOK {
		t.Fatalf("warm solve: status %d, body:\n%s", status, warm)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm solve differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if hits := reg.Counter("serve.pool.hits").Value(); hits < 1 {
		t.Errorf("serve.pool.hits = %d, want >= 1", hits)
	}
}

// TestAdmissionControl: with a 1-token bucket and a negligible refill rate,
// the second request must get 429 with a Retry-After hint.
func TestAdmissionControl(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{Workers: 1, Rate: 1e-4, Burst: 1})
	status, body := post(t, ts.URL+"/solve", []byte(`{"models": {"model": "a"}}`))
	if status != http.StatusOK {
		t.Fatalf("first request: status %d, body:\n%s", status, body)
	}
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"models": {"model": "a"}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if got := reg.Counter("serve.rejected").Value(); got != 1 {
		t.Errorf("serve.rejected = %d, want 1", got)
	}
}

// TestTimeoutReturns504: a vanishing per-request timeout must surface as 504
// (the deadline reaches the sweep engine through the flight's context).
func TestTimeoutReturns504(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1, Timeout: time.Nanosecond})
	body := []byte(`{"param": "r", "from": 5e-6, "to": 10e-6, "points": 6, "models": {"model": "a"}}`)
	status, got := post(t, ts.URL+"/sweep", body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body:\n%s", status, got)
	}
	if !strings.Contains(string(got), "timed out") {
		t.Errorf("body %q does not mention the timeout", got)
	}
}

// TestBadRequests covers the 4xx surface of every endpoint.
func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, path, body string
		status           int
		want             string
	}{
		{"malformed json", "/solve", `{`, http.StatusBadRequest, "decoding request"},
		{"unknown field", "/solve", `{"bogus": 1}`, http.StatusBadRequest, "unknown field"},
		{"trailing garbage", "/solve", `{} {}`, http.StatusBadRequest, "trailing data"},
		{"bad model", "/solve", `{"models": {"model": "x"}}`, http.StatusBadRequest, "unknown model"},
		{"ref workers above cap", "/solve", `{"models": {"model": "ref", "ref_workers": 100000000}}`,
			http.StatusBadRequest, "ref-workers must be in [0, 256]"},
		{"negative ref workers", "/solve", `{"models": {"model": "ref", "ref_workers": -1}}`,
			http.StatusBadRequest, "ref-workers must be in [0, 256]"},
		// operator, mg_hierarchy and mg_precision are not spec fields: the
		// reference solver's operator and hierarchy follow from the
		// preconditioner and the grid.
		{"removed operator field", "/solve", `{"models": {"model": "ref", "operator": "csr"}}`,
			http.StatusBadRequest, "unknown field"},
		{"removed mg_hierarchy field", "/solve", `{"models": {"model": "ref", "mg_hierarchy": "geometric"}}`,
			http.StatusBadRequest, "unknown field"},
		{"removed mg_precision field", "/sweep", `{"param": "r", "values": [1e-5], "models": {"model": "ref", "mg_precision": "f32"}}`,
			http.StatusBadRequest, "unknown field"},
		{"sweep without points", "/sweep", `{"param": "r"}`, http.StatusBadRequest, "points"},
		{"sweep bad param", "/sweep", `{"param": "zz", "values": [1e-6]}`, http.StatusBadRequest, "zz"},
		{"plan without tiles", "/plan", `{"budget": 15}`, http.StatusBadRequest, "tile"},
		{"unparsable deck", "/deck", "broken\nq1 r=10um\n.op\n", http.StatusBadRequest, "request.ttsv"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, got := post(t, ts.URL+tc.path, []byte(tc.body))
			if status != tc.status {
				t.Fatalf("status %d, want %d; body:\n%s", status, tc.status, got)
			}
			if !strings.Contains(strings.ToLower(string(got)), strings.ToLower(tc.want)) {
				t.Errorf("body %q does not contain %q", got, tc.want)
			}
		})
	}
	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/solve")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /solve: status %d, want 405", resp.StatusCode)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		status, got := post(t, ts.URL+"/deck", bytes.Repeat([]byte("*"), maxBodyBytes+1))
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 413; body:\n%s", status, got)
		}
		if !strings.Contains(string(got), "exceeds") {
			t.Errorf("body %q does not explain the size limit", got)
		}
	})
	t.Run("oversized sweep body", func(t *testing.T) {
		status, got := post(t, ts.URL+"/sweep", bytes.Repeat([]byte("*"), maxBodyBytes+1))
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 413; body:\n%s", status, got)
		}
	})
}

// TestHealthMetricsAndPprof checks the operational endpoints live on the
// same mux as the solve endpoints.
func TestHealthMetricsAndPprof(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	status, _ := post(t, ts.URL+"/solve", []byte(`{"models": {"model": "a"}}`))
	if status != http.StatusOK {
		t.Fatalf("solve: status %d", status)
	}
	for path, want := range map[string]string{
		"/healthz":          "ok",
		"/metrics":          "serve.solve.requests",
		"/debug/pprof/":     "profile",
		"/debug/pprof/heap": "",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
			continue
		}
		if want != "" && !strings.Contains(string(body), want) {
			t.Errorf("GET %s: body does not contain %q", path, want)
		}
	}
}

// TestFlightLastWaiterCancels: when the only client waiting on a flight
// disconnects, the execution context must be cancelled so the solve stops.
func TestFlightLastWaiterCancels(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	cancelled := make(chan struct{})
	rctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.do(rctx, "k", func(ctx context.Context) response {
			close(started)
			<-ctx.Done()
			close(cancelled)
			return response{status: http.StatusServiceUnavailable}
		})
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; err != errClientGone {
		t.Fatalf("do returned %v, want errClientGone", err)
	}
	select {
	case <-cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("execution context was not cancelled after the last waiter left")
	}
}

// TestTokenBucketRefill pins the bucket arithmetic with an injected clock.
func TestTokenBucketRefill(t *testing.T) {
	if b := newTokenBucket(0, 0); b != nil {
		t.Fatal("rate 0 should disable admission control")
	}
	var nilBucket *tokenBucket
	if ok, _ := nilBucket.take(); !ok {
		t.Fatal("nil bucket must admit")
	}
	b := newTokenBucket(2, 1)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	if ok, _ := b.take(); !ok {
		t.Fatal("first take should be admitted from the burst")
	}
	ok, retry := b.take()
	if ok {
		t.Fatal("empty bucket admitted a request")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want within (0, 1s] at 2 tokens/s", retry)
	}
	now = now.Add(time.Second)
	if ok, _ := b.take(); !ok {
		t.Fatal("bucket did not refill after a second")
	}
}

// TestListenAndServeDrains starts a real listener, verifies it serves, then
// cancels the context and requires a clean drain.
func TestListenAndServeDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- ListenAndServe(ctx, "127.0.0.1:0", Config{Registry: obs.NewRegistry()}, time.Second, func(addr string) {
			ready <- addr
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("server exited before ready: %v", err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after cancellation")
	}
}
