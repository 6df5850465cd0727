package sweep

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/core"
)

func journalJobs(t *testing.T, radii ...float64) Batch {
	t.Helper()
	var jobs Batch
	for _, r := range radii {
		jobs = jobs.Add("", fig4Stack(t, r), core.Model1D{})
	}
	return jobs
}

// TestJournalRoundTrip: every completed point of a journaled run replays
// bit-identically through ReadJournal.
func TestJournalRoundTrip(t *testing.T) {
	jobs := journalJobs(t, 2, 5, 10, 20)
	var buf bytes.Buffer
	j, err := NewJournal(&buf, jobs, ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), jobs, Options{Workers: 2, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatalf("journal error: %v", err)
	}
	replayed, spec, err := ReadJournal(&buf, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !spec.IsZero() {
		t.Fatalf("unsharded journal read back shard %q", spec.String())
	}
	if len(replayed) != len(jobs) {
		t.Fatalf("replayed %d of %d points", len(replayed), len(jobs))
	}
	for i, want := range out {
		got, ok := replayed[i]
		if !ok {
			t.Fatalf("point %d missing from journal", i)
		}
		if !got.Replayed {
			t.Fatalf("point %d not marked Replayed", i)
		}
		if !reflect.DeepEqual(got.Result, want.Result) {
			t.Fatalf("point %d replays %+v, want %+v", i, got.Result, want.Result)
		}
	}
}

// TestJournalReplaysErrors: failed points journal their wrapped error string
// and replay as failures.
func TestJournalReplaysErrors(t *testing.T) {
	jobs := Batch{}.
		Add("ok", fig4Stack(t, 10), core.Model1D{}).
		Add("bad", fig4Stack(t, 10), failModel{})
	var buf bytes.Buffer
	j, err := NewJournal(&buf, jobs, ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), jobs, Options{Workers: 1, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	replayed, _, err := ReadJournal(&buf, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if replayed[1].Err == nil || replayed[1].Err.Error() != out[1].Err.Error() {
		t.Fatalf("replayed error %v, want %v", replayed[1].Err, out[1].Err)
	}
}

// TestSweepJournalRejectsMismatch: a journal written for one batch refuses to
// replay into a different one — wrong job count, or same count with different
// geometry (fingerprint mismatch).
func TestSweepJournalRejectsMismatch(t *testing.T) {
	jobs := journalJobs(t, 2, 5, 10, 20)
	var buf bytes.Buffer
	j, err := NewJournal(&buf, jobs, ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), jobs, Options{Journal: j}); err != nil {
		t.Fatal(err)
	}

	if _, _, err := ReadJournal(bytes.NewReader(buf.Bytes()), jobs[:3]); err == nil {
		t.Fatal("journal for 4 jobs replayed into 3-job batch")
	} else if !strings.Contains(err.Error(), "jobs") {
		t.Fatalf("unhelpful job-count error: %v", err)
	}

	other := journalJobs(t, 2, 5, 10, 21) // same count, one radius differs
	if _, _, err := ReadJournal(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("journal replayed into a batch with different geometry")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("unhelpful fingerprint error: %v", err)
	}
}

// TestJournalRefusesVersion1: a journal written before the fingerprint
// hashed 32-byte keys (version 1: each job's full canonical string) fails on
// its version, not on a fingerprint mismatch that would blame the geometry.
func TestJournalRefusesVersion1(t *testing.T) {
	jobs := journalJobs(t, 2, 5)
	h := sha256.New()
	for _, j := range jobs {
		io.WriteString(h, j.Label+"\x00"+canon.String(j.Model, j.Stack)+"\x01")
	}
	header := fmt.Sprintf(`{"kind":"header","version":1,"jobs":2,"batch":"%x"}`+"\n", h.Sum(nil))
	_, _, err := ReadJournal(strings.NewReader(header), jobs)
	if err == nil || !strings.Contains(err.Error(), "journal version 1, want 2") {
		t.Fatalf("version-1 journal: %v, want a version error", err)
	}
}

// TestJournalToleratesTornTail: a partial final line — the tail a killed
// process leaves — is ignored; everything before it replays. The same
// garbage mid-file is corruption and errors.
func TestJournalToleratesTornTail(t *testing.T) {
	jobs := journalJobs(t, 2, 5, 10, 20)
	var buf bytes.Buffer
	j, err := NewJournal(&buf, jobs, ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), jobs, Options{Journal: j}); err != nil {
		t.Fatal(err)
	}

	torn := append(append([]byte{}, buf.Bytes()...), []byte(`{"kind":"point","i":2,"resu`)...)
	replayed, _, err := ReadJournal(bytes.NewReader(torn), jobs)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(replayed) != len(jobs) {
		t.Fatalf("torn journal replays %d of %d points", len(replayed), len(jobs))
	}

	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	var mid []byte
	mid = append(mid, lines[0]...)                    // header
	mid = append(mid, []byte("{\"kind\":\"poi\n")...) // garbage, not the final line
	mid = append(mid, bytes.Join(lines[1:], nil)...)
	if _, _, err := ReadJournal(bytes.NewReader(mid), jobs); err == nil {
		t.Fatal("mid-file garbage accepted")
	}
}

// TestJournalLongLines: the scanner grows its buffer from bufio's default
// as lines need, so a point whose label makes its line longer than 64 KiB
// replays, while a line longer than maxJournalLine fails with an error
// naming that line.
func TestJournalLongLines(t *testing.T) {
	label := strings.Repeat("r", 70<<10)
	jobs := Batch{}.Add(label, fig4Stack(t, 5), core.Model1D{}).Add("short", fig4Stack(t, 10), core.Model1D{})
	var buf bytes.Buffer
	j, err := NewJournal(&buf, jobs, ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), jobs, Options{Journal: j}); err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		longest = max(longest, len(line))
	}
	if longest <= 64<<10 {
		t.Fatalf("longest journal line is %d bytes, want over 64 KiB", longest)
	}
	replayed, _, err := ReadJournal(bytes.NewReader(buf.Bytes()), jobs)
	if err != nil {
		t.Fatalf("journal with a %d-byte label: %v", len(label), err)
	}
	if len(replayed) != len(jobs) || replayed[0].Job.Label != label {
		t.Fatalf("replayed %d of %d points", len(replayed), len(jobs))
	}

	header := buf.Bytes()[:bytes.IndexByte(buf.Bytes(), '\n')+1]
	long := append(append([]byte{}, header...), `{"kind":"point","i":0,"label":"`...)
	long = append(long, bytes.Repeat([]byte("r"), maxJournalLine)...)
	long = append(long, "\"}\n"...)
	_, _, err = ReadJournal(bytes.NewReader(long), jobs)
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "journal line 2") {
		t.Fatalf("line over %d bytes: %v, want a too-long error at line 2", maxJournalLine, err)
	}
}

// TestJournalResumeAppendsMatchingHeader: resuming appends a second header to
// the same stream; ReadJournal accepts matching headers and rejects a header
// from a different shard.
func TestJournalResumeAppendsMatchingHeader(t *testing.T) {
	jobs := journalJobs(t, 2, 5, 8, 11, 14, 17, 20, 23, 26)
	spec := ShardSpec{Index: 0, Count: 2}
	var buf bytes.Buffer
	j1, err := NewJournal(&buf, jobs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunShard(context.Background(), jobs, spec, Options{Journal: j1}); err != nil {
		t.Fatal(err)
	}
	// Resume session: a second matching header on the same stream.
	j2, err := NewJournal(&buf, jobs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunShard(context.Background(), jobs, spec, Options{Journal: j2}); err != nil {
		t.Fatal(err)
	}
	replayed, got, err := ReadJournal(bytes.NewReader(buf.Bytes()), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Fatalf("read back shard %q, want %q", got.String(), spec.String())
	}
	lo, hi := spec.Range(len(jobs))
	if len(replayed) != hi-lo {
		t.Fatalf("replayed %d points, want %d", len(replayed), hi-lo)
	}

	// A header from another shard on the same stream must be rejected.
	if _, err := NewJournal(&buf, jobs, ShardSpec{Index: 1, Count: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadJournal(bytes.NewReader(buf.Bytes()), jobs); err == nil {
		t.Fatal("mixed-shard journal accepted")
	}
}

// TestMergeJournalsRequiresFullCoverage: merging shard journals errors when a
// point is missing, and succeeds (in batch order) when shards cover the batch.
func TestMergeJournalsRequiresFullCoverage(t *testing.T) {
	jobs := journalJobs(t, 2, 5, 8, 11, 14, 17, 20, 23, 26, 29)
	var bufs [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		spec := ShardSpec{Index: i, Count: 2}
		j, err := NewJournal(&bufs[i], jobs, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := RunShard(context.Background(), jobs, spec, Options{Journal: j}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MergeJournals(jobs, bytes.NewReader(bufs[0].Bytes())); err == nil {
		t.Fatal("merge of one shard out of two succeeded")
	}
	merged, err := MergeJournals(jobs, bytes.NewReader(bufs[0].Bytes()), bytes.NewReader(bufs[1].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(merged[i].Result, want[i].Result) {
			t.Fatalf("merged point %d = %+v, want %+v", i, merged[i].Result, want[i].Result)
		}
	}
}
