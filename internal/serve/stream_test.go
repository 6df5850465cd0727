package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/deck"
	"repro/internal/stack"
	"repro/internal/units"
)

// sweepBody marshals a SweepRequest for the 6-point Model A radius sweep the
// streaming tests share.
func sweepBody(t *testing.T, mutate func(*SweepRequest)) []byte {
	t.Helper()
	req := SweepRequest{
		Block:  stack.DefaultBlock(),
		Param:  "r",
		From:   units.UM(5),
		To:     units.UM(20),
		Points: 6,
		Models: deck.ModelSpec{Model: "a"},
	}
	if mutate != nil {
		mutate(&req)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postStream posts a streaming sweep and returns the decoded progress
// records and the final record.
func postStream(t *testing.T, url string, body []byte) ([]deck.SweepProgress, sweepStreamFinal) {
	t.Helper()
	progress, final, err := streamSweep(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return progress, final
}

// streamSweep is postStream for any goroutine: it reports failures as an
// error instead of through the test.
func streamSweep(url string, body []byte) ([]deck.SweepProgress, sweepStreamFinal, error) {
	var (
		progress []deck.SweepProgress
		final    sweepStreamFinal
		sawFinal bool
	)
	resp, err := http.Post(url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, final, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, final, fmt.Errorf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return nil, final, fmt.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if sawFinal {
			return nil, final, fmt.Errorf("record after the final one: %s", line)
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, final, fmt.Errorf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Done {
			if err := json.Unmarshal(line, &final); err != nil {
				return nil, final, err
			}
			sawFinal = true
			continue
		}
		var p deck.SweepProgress
		if err := json.Unmarshal(line, &p); err != nil {
			return nil, final, err
		}
		progress = append(progress, p)
	}
	if err := sc.Err(); err != nil {
		return nil, final, err
	}
	if !sawFinal {
		return nil, final, fmt.Errorf("stream ended without a final record")
	}
	return progress, final, nil
}

// TestSweepStreamsNDJSONProgress: a streamed /sweep delivers one progress
// record per point and a final record whose embedded report is byte-identical
// to the non-streamed response for the same request.
func TestSweepStreamsNDJSONProgress(t *testing.T) {
	_, ts, counted := newTestServer(t, Config{Workers: 2})
	progress, final := postStream(t, ts.URL, sweepBody(t, func(r *SweepRequest) { r.Stream = true }))
	if len(progress) != 6 {
		t.Fatalf("got %d progress records, want 6", len(progress))
	}
	seen := make(map[int]bool)
	for _, p := range progress {
		if p.Total != 6 {
			t.Errorf("point %d: total %d, want 6", p.Index, p.Total)
		}
		if p.Err != "" {
			t.Errorf("point %d failed: %s", p.Index, p.Err)
		}
		if p.Label == "" {
			t.Errorf("point %d has no label", p.Index)
		}
		if seen[p.Index] {
			t.Errorf("point %d reported twice", p.Index)
		}
		seen[p.Index] = true
	}
	for i := 0; i < 6; i++ {
		if !seen[i] {
			t.Errorf("point %d never reported", i)
		}
	}
	if final.Err != "" {
		t.Fatalf("final record carries error: %s", final.Err)
	}

	status, plain := post(t, ts.URL+"/sweep", sweepBody(t, nil))
	if status != http.StatusOK {
		t.Fatalf("non-streamed sweep: status %d", status)
	}
	if final.Report != string(plain) {
		t.Errorf("streamed report differs from one-shot response:\n--- stream ---\n%s\n--- plain ---\n%s", final.Report, plain)
	}
	if got := counted("serve.sweep.streams"); got != 1 {
		t.Errorf("serve.sweep.streams = %d, want 1", got)
	}
}

// TestSweepStreamShard: two shards streamed concurrently each report
// exactly their own points (global indices) under their shard header, and
// together deliver every point exactly once.
func TestSweepStreamShard(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 2})
	// 12 points × 1 model = 12 jobs, split evenly: shard 1/2 = [0, 6) and
	// shard 2/2 = [6, 12).
	shards := []struct {
		spec, header string
		lo, hi       int
	}{
		{"1/2", "shard: 1/2 (6 of 12 values)", 0, 6},
		{"2/2", "shard: 2/2 (6 of 12 values)", 6, 12},
	}
	progress := make([][]deck.SweepProgress, len(shards))
	finals := make([]sweepStreamFinal, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for s, sh := range shards {
		body := sweepBody(t, func(r *SweepRequest) { r.Points = 12; r.Shard = sh.spec; r.Stream = true })
		wg.Add(1)
		go func() {
			defer wg.Done()
			progress[s], finals[s], errs[s] = streamSweep(ts.URL, body)
		}()
	}
	wg.Wait()

	seen := make(map[int]int)
	for s, sh := range shards {
		if errs[s] != nil {
			t.Fatalf("shard %s: %v", sh.spec, errs[s])
		}
		if len(progress[s]) != sh.hi-sh.lo {
			t.Errorf("shard %s of 12 points streamed %d records, want %d", sh.spec, len(progress[s]), sh.hi-sh.lo)
		}
		for _, p := range progress[s] {
			seen[p.Index]++
			if p.Index < sh.lo || p.Index >= sh.hi {
				t.Errorf("shard %s: point %d outside shard range [%d,%d)", sh.spec, p.Index, sh.lo, sh.hi)
			}
			if p.Total != 12 {
				t.Errorf("shard %s: point %d: total %d, want 12", sh.spec, p.Index, p.Total)
			}
		}
		if finals[s].Err != "" {
			t.Fatalf("shard %s: final record carries error: %s", sh.spec, finals[s].Err)
		}
		if !strings.Contains(finals[s].Report, sh.header) {
			t.Errorf("shard %s report missing %q:\n%s", sh.spec, sh.header, finals[s].Report)
		}
	}
	for i := 0; i < 12; i++ {
		if seen[i] != 1 {
			t.Errorf("point %d streamed %d times across the shards, want exactly once", i, seen[i])
		}
	}
}

// TestSweepShardPartitionsReport: the one-shot sharded responses jointly
// carry exactly the unsharded report's value rows, each under its shard
// header; a malformed shard spec is a 400.
func TestSweepShardPartitionsReport(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 2})
	status, full := post(t, ts.URL+"/sweep", sweepBody(t, func(r *SweepRequest) { r.Points = 12 }))
	if status != http.StatusOK {
		t.Fatalf("unsharded sweep: status %d, body:\n%s", status, full)
	}
	var shardRows []string
	for _, spec := range []string{"1/2", "2/2"} {
		status, body := post(t, ts.URL+"/sweep", sweepBody(t, func(r *SweepRequest) { r.Points = 12; r.Shard = spec }))
		if status != http.StatusOK {
			t.Fatalf("shard %s: status %d, body:\n%s", spec, status, body)
		}
		if !strings.Contains(string(body), fmt.Sprintf("shard: %s", spec)) {
			t.Errorf("shard %s response missing shard header:\n%s", spec, body)
		}
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "  r=") {
				shardRows = append(shardRows, line)
			}
		}
	}
	var fullRows []string
	for _, line := range strings.Split(string(full), "\n") {
		if strings.HasPrefix(line, "  r=") {
			fullRows = append(fullRows, line)
		}
	}
	if len(fullRows) != 12 {
		t.Fatalf("unsharded report has %d value rows, want 12:\n%s", len(fullRows), full)
	}
	if strings.Join(shardRows, "\n") != strings.Join(fullRows, "\n") {
		t.Errorf("shard rows differ from unsharded rows:\n--- shards ---\n%s\n--- full ---\n%s",
			strings.Join(shardRows, "\n"), strings.Join(fullRows, "\n"))
	}

	status, body := post(t, ts.URL+"/sweep", sweepBody(t, func(r *SweepRequest) { r.Shard = "5/2" }))
	if status != http.StatusBadRequest {
		t.Errorf("bad shard spec: status %d, want 400; body:\n%s", status, body)
	}
}

// TestRejectedRequestRefundsAdmissionToken: requests rejected before solving
// (malformed or oversized bodies) give their admission token back, so with a
// frozen 1-token bucket a valid solve still goes through after a burst of
// garbage — and the bucket is empty afterwards.
func TestRejectedRequestRefundsAdmissionToken(t *testing.T) {
	s, ts, counted := newTestServer(t, Config{Workers: 1, Rate: 1e-4, Burst: 1})
	base := time.Now()
	s.bucket.now = func() time.Time { return base } // frozen: no refill, ever

	if status, _ := post(t, ts.URL+"/solve", []byte(`{`)); status != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", status)
	}
	if status, _ := post(t, ts.URL+"/deck", bytes.Repeat([]byte("*"), maxBodyBytes+1)); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", status)
	}
	if got := counted("serve.refunded"); got != 2 {
		t.Errorf("serve.refunded = %d, want 2", got)
	}

	status, body := post(t, ts.URL+"/solve", []byte(`{"models": {"model": "a"}}`))
	if status != http.StatusOK {
		t.Fatalf("valid request after refunds: status %d, body:\n%s (token was burned by rejected requests)", status, body)
	}
	resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"models": {"model": "a"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("bucket should now be empty: status %d, want 429", resp.StatusCode)
	}
}
