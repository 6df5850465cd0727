package sweep

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fem"
)

// cheapRef is a cheap FVM reference model: the base mesh (1458 unknowns)
// solves in about a millisecond and runs through fem's idle solver
// contexts.
func cheapRef() fem.ReferenceModel {
	return fem.ReferenceModel{}
}

func resumeJobs(t *testing.T, m core.Model, n int) Batch {
	t.Helper()
	var jobs Batch
	for i := 0; i < n; i++ {
		r := 2 + float64(i) // distinct radii, one per point
		jobs = jobs.Add(fmt.Sprintf("r=%gum", r), fig4Stack(t, r), m)
	}
	return jobs
}

// normOutcome strips the fields that legitimately differ between a fresh
// solve and a journal replay of the same point: wall times and provenance
// flags, among them Solver.Reused, which says whether the idle solver
// context a solve drew still held this operator's factor. Everything
// numerical must match bit-for-bit.
func normOutcome(oc Outcome) Outcome {
	oc.Runtime = 0
	oc.FromCache = false
	oc.Replayed = false
	if oc.Result != nil {
		r := *oc.Result
		r.Solver.Wall, r.Solver.Factor, r.Solver.Reused = 0, 0, false
		oc.Result = &r
	}
	if oc.Err != nil {
		// Replayed errors are flattened to strings; compare the rendering.
		oc.Err = fmt.Errorf("%s", oc.Err.Error())
	}
	return oc
}

func requireSameOutcomes(t *testing.T, got, want []Outcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d outcomes, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := normOutcome(got[i]), normOutcome(want[i])
		if (g.Err == nil) != (w.Err == nil) || (g.Err != nil && g.Err.Error() != w.Err.Error()) {
			t.Fatalf("point %d error %v, want %v", i, g.Err, w.Err)
		}
		if !reflect.DeepEqual(g.Result, w.Result) {
			t.Fatalf("point %d result differs\n got %+v\nwant %+v", i, g.Result, w.Result)
		}
	}
}

// killAndResume journals a run that is cancelled after roughly kill completed
// points, then resumes it from the journal and returns the resumed outcomes
// plus the resumed journal's contents.
func killAndResume(t *testing.T, jobs Batch, opt Options, kill int) ([]Outcome, *bytes.Buffer) {
	t.Helper()
	var first bytes.Buffer
	j1, err := NewJournal(&first, jobs, ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int64
	killOpt := opt
	killOpt.Journal = j1
	killOpt.Progress = func(i int, oc Outcome) {
		if completed.Add(1) >= int64(kill) {
			cancel()
		}
	}
	Run(cctx, jobs, killOpt) // cancellation mid-run is the point; error expected
	if err := j1.Err(); err != nil {
		t.Fatalf("journal write error: %v", err)
	}

	resume, _, err := ReadJournal(bytes.NewReader(first.Bytes()), jobs)
	if err != nil {
		t.Fatalf("reading interrupted journal: %v", err)
	}
	if kill > 0 && len(resume) == 0 && kill <= len(jobs) {
		t.Fatalf("interrupted run journaled no points (wanted ~%d)", kill)
	}

	var second bytes.Buffer
	j2, err := NewJournal(&second, jobs, ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	resumeOpt := opt
	resumeOpt.Journal = j2
	resumeOpt.Resume = resume
	out, err := Run(context.Background(), jobs, resumeOpt)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return out, &second
}

// TestSweepJournalResumeIdentity is the crash/resume property test: a
// journaled sweep killed after an arbitrary number of completed points and
// resumed from its journal produces outcomes bit-identical to an
// uninterrupted run, across worker counts — and the resumed journal is
// complete (every point present), so a further resume is a pure replay.
func TestSweepJournalResumeIdentity(t *testing.T) {
	jobs := resumeJobs(t, core.Model1D{}, 24)
	baseline, err := Run(context.Background(), jobs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, kill := range []int{0, 1, 5, 17, 24} {
			t.Run(fmt.Sprintf("workers=%d/kill=%d", workers, kill), func(t *testing.T) {
				out, journal := killAndResume(t, jobs, Options{Workers: workers}, kill)
				requireSameOutcomes(t, out, baseline)
				final, _, err := ReadJournal(bytes.NewReader(journal.Bytes()), jobs)
				if err != nil {
					t.Fatal(err)
				}
				if len(final) != len(jobs) {
					t.Fatalf("resumed journal holds %d of %d points", len(final), len(jobs))
				}
			})
		}
	}
}

// TestSweepShardMergeIdentity: running every shard of a partition separately
// (journaled) and merging the journals reproduces the single-process
// outcomes exactly, for shard counts 1/2/5. 27 jobs do not split evenly,
// so some shards are one job longer than others.
func TestSweepShardMergeIdentity(t *testing.T) {
	jobs := resumeJobs(t, core.Model1D{}, 27)
	baseline, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var concat []Outcome
			readers := make([]*bytes.Buffer, shards)
			for s := 0; s < shards; s++ {
				spec := ShardSpec{Index: s, Count: shards}
				readers[s] = &bytes.Buffer{}
				j, err := NewJournal(readers[s], jobs, spec)
				if err != nil {
					t.Fatal(err)
				}
				out, lo, err := RunShard(context.Background(), jobs, spec,
					Options{Workers: 3, Journal: j})
				if err != nil {
					t.Fatal(err)
				}
				wantLo, wantHi := spec.Range(len(jobs))
				if lo != wantLo || len(out) != wantHi-wantLo {
					t.Fatalf("shard %s returned [%d,%d), want [%d,%d)",
						spec.String(), lo, lo+len(out), wantLo, wantHi)
				}
				concat = append(concat, out...)
			}
			requireSameOutcomes(t, concat, baseline)

			var ioReaders []io.Reader
			for _, b := range readers {
				ioReaders = append(ioReaders, bytes.NewReader(b.Bytes()))
			}
			merged, err := MergeJournals(jobs, ioReaders...)
			if err != nil {
				t.Fatal(err)
			}
			requireSameOutcomes(t, merged, baseline)
		})
	}
}
