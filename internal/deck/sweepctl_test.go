package deck

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sweep"
)

// shardDeck is a 12-point Model B radius sweep: 12 jobs, which two shards
// split evenly into [0,6) and [6,12).
const shardDeck = `Shard identity sweep
b1 side=100um sink=27
p1 tsi=500um td=4um
p2 tsi=45um td=4um tb=1um repeat=2
v1 r=10um tl=0.5um lext=1um
iall plane=all devd=700w/mm3 ildd=70w/mm3
.sweep r 6um 12um 12 model=b segments=100
.end
`

// runShardDeck runs shardDeck with the given sweep controls and renders the
// text report.
func runShardDeck(t *testing.T, ctx context.Context, ctl SweepControl) ([]byte, error) {
	t.Helper()
	d, err := Parse("shard.ttsv", strings.NewReader(shardDeck))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctx, d, Options{Workers: 2, Sweep: ctl})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), nil
}

// TestDeckSweepShardMergeReportIdentity: running the deck's shards in
// separate processes (separate Run calls here), then merging their journals,
// reproduces the single-process report byte for byte.
func TestDeckSweepShardMergeReportIdentity(t *testing.T) {
	ctx := context.Background()
	want, err := runShardDeck(t, ctx, SweepControl{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var journals []string
	for i := 1; i <= 2; i++ {
		spec := sweep.ShardSpec{Index: i - 1, Count: 2}
		jp := filepath.Join(dir, spec.String()[:1]+".journal")
		report, err := runShardDeck(t, ctx, SweepControl{Shard: spec, JournalPath: jp})
		if err != nil {
			t.Fatalf("shard %d/2: %v", i, err)
		}
		if !bytes.Contains(report, []byte("shard: "+spec.String()+" (6 of 12 values)")) {
			t.Errorf("shard %d/2 report lacks its shard header of 6 of 12 values:\n%s", i, report)
		}
		journals = append(journals, jp)
	}

	got, err := runShardDeck(t, ctx, SweepControl{MergePaths: journals})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged report differs from single-process run:\n--- merged ---\n%s\n--- direct ---\n%s", got, want)
	}
}

// TestDeckSweepJournalResumeReportIdentity: a journaled deck run killed
// mid-sweep resumes from its journal — replaying completed points, solving
// the rest — and renders the same report as an uninterrupted run.
func TestDeckSweepJournalResumeReportIdentity(t *testing.T) {
	want, err := runShardDeck(t, context.Background(), SweepControl{})
	if err != nil {
		t.Fatal(err)
	}

	jp := filepath.Join(t.TempDir(), "sweep.journal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	_, err = runShardDeck(t, ctx, SweepControl{
		JournalPath: jp,
		Progress: func(p SweepProgress) {
			if done.Add(1) == 3 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("killed run reported success")
	}

	var replayed, solved atomic.Int64
	got, err := runShardDeck(t, context.Background(), SweepControl{
		JournalPath: jp,
		Resume:      true,
		Progress: func(p SweepProgress) {
			if p.Replayed {
				replayed.Add(1)
			} else {
				solved.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed report differs from uninterrupted run:\n--- resumed ---\n%s\n--- direct ---\n%s", got, want)
	}
	if replayed.Load() == 0 {
		t.Error("resume replayed nothing despite a journal with completed points")
	}
	if replayed.Load()+solved.Load() != 12 {
		t.Errorf("resume covered %d points, want 12", replayed.Load()+solved.Load())
	}

	// The resumed journal is itself complete: resuming again replays all 12.
	replayed.Store(0)
	solved.Store(0)
	again, err := runShardDeck(t, context.Background(), SweepControl{
		JournalPath: jp,
		Resume:      true,
		Progress: func(p SweepProgress) {
			if p.Replayed {
				replayed.Add(1)
			} else {
				solved.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if replayed.Load() != 12 || solved.Load() != 0 {
		t.Errorf("second resume replayed %d / solved %d, want 12 / 0", replayed.Load(), solved.Load())
	}
	if !bytes.Equal(again, want) {
		t.Errorf("fully replayed report differs from uninterrupted run:\n--- replayed ---\n%s\n--- direct ---\n%s", again, want)
	}
}

// TestDeckSweepControlValidation: sweep controls demand a single-sweep deck,
// merge is exclusive with shard/journal, and a resumed journal must match the
// requested shard.
func TestDeckSweepControlValidation(t *testing.T) {
	opDeck := `Op only
b1 side=100um sink=27
p1 tsi=500um td=4um
v1 r=10um tl=0.5um lext=1um
iall plane=all devd=700w/mm3 ildd=70w/mm3
.op model=a
.end
`
	d, err := Parse("op.ttsv", strings.NewReader(opDeck))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), d, Options{Sweep: SweepControl{JournalPath: "x"}}); err == nil {
		t.Error("journaling an .op deck did not error")
	}

	if _, err := runShardDeck(t, context.Background(), SweepControl{
		MergePaths:  []string{"a", "b"},
		JournalPath: "x",
	}); err == nil {
		t.Error("merge combined with journal did not error")
	}

	// A journal written for shard 1/2 cannot resume shard 2/2.
	jp := filepath.Join(t.TempDir(), "j")
	if _, err := runShardDeck(t, context.Background(), SweepControl{
		Shard: sweep.ShardSpec{Index: 0, Count: 2}, JournalPath: jp,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := runShardDeck(t, context.Background(), SweepControl{
		Shard: sweep.ShardSpec{Index: 1, Count: 2}, JournalPath: jp, Resume: true,
	}); err == nil || !strings.Contains(err.Error(), "shard") {
		t.Errorf("resuming shard 2/2 from a 1/2 journal: err = %v, want shard mismatch", err)
	}
}
