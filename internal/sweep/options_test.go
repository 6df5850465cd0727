package sweep

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// TestWarmStartIgnoredAndResumePerPoint: the deprecated WarmStart field is
// ignored, so it combines with a Cache and changes no outcome at any worker
// count; and a resume, even with WarmStart set, re-solves exactly the
// points its journal lacks, one job each, with the outcomes of an
// uninterrupted run.
func TestWarmStartIgnoredAndResumePerPoint(t *testing.T) {
	jobs := resumeJobs(t, cheapRef(), 16)
	var buf bytes.Buffer
	j, err := NewJournal(&buf, jobs, ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := Run(context.Background(), jobs, Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, opt := range []Options{
			{Workers: workers},
			{Workers: workers, WarmStart: true, Cache: cacheOf(8)},
		} {
			t.Run(fmt.Sprintf("workers=%d/warm=%v", workers, opt.WarmStart), func(t *testing.T) {
				out, err := Run(context.Background(), jobs, opt)
				if err != nil {
					t.Fatalf("Run(%+v) = %v", opt, err)
				}
				requireSameOutcomes(t, out, baseline)
			})
		}
	}

	resume, _, err := ReadJournal(bytes.NewReader(buf.Bytes()), jobs)
	if err != nil {
		t.Fatal(err)
	}
	delete(resume, 5)
	solved := obs.Default().Counter("sweep.jobs")
	before := solved.Value()
	out, err := Run(context.Background(), jobs, Options{Workers: 2, WarmStart: true, Resume: resume})
	if err != nil {
		t.Fatal(err)
	}
	if got := solved.Value() - before; got != 1 {
		t.Errorf("resume without point 5 solved %d jobs, want 1", got)
	}
	if out[5].Replayed || !out[4].Replayed || !out[6].Replayed {
		t.Errorf("replayed flags around point 5: %v %v %v, want true false true",
			out[4].Replayed, out[5].Replayed, out[6].Replayed)
	}
	requireSameOutcomes(t, out, baseline)
}
