package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestRunEmitsSpans: a traced batch produces one sweep.run root with a
// sweep.job child per job, cache hits flagged.
func TestRunEmitsSpans(t *testing.T) {
	s := fig4Stack(t, 10)
	m := core.Model1D{}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	jobs := Batch{}.Add("a", s, m).Add("b", s, m)
	if _, err := Run(obs.ContextWithTracer(context.Background(), tr), jobs, Options{Workers: 1, Cache: NewCache()}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Span   string         `json:"span"`
		ID     int64          `json:"id"`
		Parent int64          `json:"parent"`
		Attrs  map[string]any `json:"attrs"`
	}
	var runID int64
	var jobRecs []rec
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad NDJSON %q: %v", line, err)
		}
		switch r.Span {
		case "sweep.run":
			runID = r.ID
		case "sweep.job":
			jobRecs = append(jobRecs, r)
		}
	}
	if runID == 0 {
		t.Fatal("no sweep.run span")
	}
	if len(jobRecs) != 2 {
		t.Fatalf("got %d sweep.job spans, want 2", len(jobRecs))
	}
	hits := 0
	for _, r := range jobRecs {
		if r.Parent != runID {
			t.Errorf("job span %v not parented to sweep.run", r.Attrs)
		}
		if r.Attrs["from_cache"] == true {
			hits++
		}
	}
	if hits != 1 {
		t.Errorf("%d job spans flagged from_cache, want 1 (second job repeats the first)", hits)
	}
}
