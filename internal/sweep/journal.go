package sweep

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
)

// journalVersion is bumped when the record layout or the batch fingerprint
// changes incompatibly. Version 2 fingerprints each job's 32-byte key.
const journalVersion = 2

// maxJournalLine bounds one journal record; results with large PlaneDT
// arrays stay far below this.
const maxJournalLine = 16 << 20

// BatchFingerprint returns a digest of the batch's jobs — each label and the
// job's cache key, the canon.Sum of its model and stack — used by journals
// to refuse replay against a different job list. It is deterministic across processes, so a
// shard's journal written on one machine validates against the same deck
// lowered on another.
func BatchFingerprint(jobs []Job) string {
	h := sha256.New()
	for _, j := range jobs {
		io.WriteString(h, j.Label+"\x00")
		key := cacheKey(j.Model, j.Stack)
		h.Write(key[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// journalHeader is the first record of a journal (and of every resumed
// append session): enough to validate that a replay targets the same batch
// partitioned the same way.
type journalHeader struct {
	Kind    string `json:"kind"` // "header"
	Version int    `json:"version"`
	Jobs    int    `json:"jobs"`
	Batch   string `json:"batch"`
	Shard   string `json:"shard,omitempty"` // "i/n", empty = whole batch
}

// journalPoint is one completed point. Result round-trips exactly: Go's JSON
// encoder renders float64 in shortest round-trip form, so a replayed result
// is bit-identical to the solved one.
type journalPoint struct {
	Kind      string       `json:"kind"` // "point"
	I         int          `json:"i"`    // global batch index
	Label     string       `json:"label,omitempty"`
	Result    *core.Result `json:"result,omitempty"`
	Err       string       `json:"err,omitempty"`
	RuntimeNS int64        `json:"runtime_ns,omitempty"`
	FromCache bool         `json:"from_cache,omitempty"`
}

// Journal is an append-only NDJSON checkpoint of a sweep's completed points.
// Workers append one record per finished job (reusing the obs tracer's
// locked line-atomic writer idiom), so a killed sweep loses at most its
// in-flight solves; ReadJournal replays everything that completed. Records
// of cancelled jobs are never written — a context error is not an outcome.
//
// A Journal is safe for concurrent use. Like the tracer, a write failure is
// sticky: recording stops, solving continues, and Err surfaces the failure
// when the run finishes.
type Journal struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJournal writes a header describing the batch and shard to w and returns
// the journal. Appending to an existing journal file (a resume) writes a
// fresh header; ReadJournal accepts any number of matching headers.
func NewJournal(w io.Writer, jobs []Job, spec ShardSpec) (*Journal, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	j := &Journal{w: w}
	line, err := json.Marshal(journalHeader{
		Kind:    "header",
		Version: journalVersion,
		Jobs:    len(jobs),
		Batch:   BatchFingerprint(jobs),
		Shard:   spec.String(),
	})
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		return nil, fmt.Errorf("sweep: writing journal header: %w", err)
	}
	return j, nil
}

// Err returns the first write error the journal encountered, if any. Callers
// that rely on the journal for crash safety should surface it after the run.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// point appends one completed outcome. Nil-safe: a nil journal no-ops, so
// the run loop needs no guards.
func (j *Journal) point(i int, oc Outcome) {
	if j == nil {
		return
	}
	rec := journalPoint{
		Kind:      "point",
		I:         i,
		Label:     oc.Job.Label,
		Result:    oc.Result,
		RuntimeNS: oc.Runtime.Nanoseconds(),
		FromCache: oc.FromCache,
	}
	if oc.Err != nil {
		rec.Err = oc.Err.Error()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		// A result that cannot be marshalled (no such type exists in this
		// repository) drops the record, not the sweep.
		return
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		if _, werr := j.w.Write(line); werr != nil {
			j.err = werr
		}
	}
}

// isCancellation reports whether an outcome's error is a context error — an
// interrupted job, not a solved one, and therefore not journal material.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ReadJournal parses a journal stream written for jobs and returns the
// completed outcomes keyed by global batch index, plus the journal's shard
// spec. The header must match the batch (job count and fingerprint);
// mismatches are an error, because replaying a different batch's results
// would be silently wrong. A torn final line — the usual tail of a killed
// process — is tolerated; garbage anywhere else is corruption and errors.
//
// Replayed outcomes reference the live jobs slice (journals store results,
// not geometries) and carry Replayed = true.
func ReadJournal(r io.Reader, jobs []Job) (map[int]Outcome, ShardSpec, error) {
	var (
		spec        ShardSpec
		sawHeader   bool
		fingerprint string
	)
	out := make(map[int]Outcome)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxJournalLine) // grows from bufio's 4 KiB as lines need

	type anyRecord struct {
		Kind string `json:"kind"`
	}
	var pendingErr error
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if pendingErr != nil {
			// The bad line was not the final one: corruption, not a tear.
			return nil, ShardSpec{}, pendingErr
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var kind anyRecord
		if err := json.Unmarshal(line, &kind); err != nil {
			pendingErr = fmt.Errorf("sweep: journal line %d: %v", lineNo, err)
			continue
		}
		switch kind.Kind {
		case "header":
			var h journalHeader
			if err := json.Unmarshal(line, &h); err != nil {
				pendingErr = fmt.Errorf("sweep: journal line %d: %v", lineNo, err)
				continue
			}
			if h.Version != journalVersion {
				return nil, ShardSpec{}, fmt.Errorf("sweep: journal version %d, want %d", h.Version, journalVersion)
			}
			if h.Jobs != len(jobs) {
				return nil, ShardSpec{}, fmt.Errorf("sweep: journal was written for %d jobs, this sweep has %d", h.Jobs, len(jobs))
			}
			if fingerprint == "" {
				fingerprint = BatchFingerprint(jobs)
			}
			if h.Batch != fingerprint {
				return nil, ShardSpec{}, fmt.Errorf("sweep: journal batch fingerprint %.12s… does not match this sweep (%.12s…): different geometries or models", h.Batch, fingerprint)
			}
			hs, err := ParseShardSpec(h.Shard)
			if err != nil {
				return nil, ShardSpec{}, err
			}
			if sawHeader && hs != spec {
				return nil, ShardSpec{}, fmt.Errorf("sweep: journal mixes shards %q and %q", spec.String(), hs.String())
			}
			spec, sawHeader = hs, true
		case "point":
			if !sawHeader {
				return nil, ShardSpec{}, fmt.Errorf("sweep: journal line %d: point before header", lineNo)
			}
			var p journalPoint
			if err := json.Unmarshal(line, &p); err != nil {
				pendingErr = fmt.Errorf("sweep: journal line %d: %v", lineNo, err)
				continue
			}
			lo, hi := spec.Range(len(jobs))
			if p.I < lo || p.I >= hi {
				return nil, ShardSpec{}, fmt.Errorf("sweep: journal point %d outside shard range [%d,%d)", p.I, lo, hi)
			}
			oc := Outcome{
				Job:       jobs[p.I],
				Result:    p.Result,
				Runtime:   time.Duration(p.RuntimeNS),
				FromCache: p.FromCache,
				Replayed:  true,
			}
			if p.Err != "" {
				oc.Err = errors.New(p.Err)
			}
			out[p.I] = oc
		default:
			pendingErr = fmt.Errorf("sweep: journal line %d: unknown record kind %q", lineNo, kind.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, ShardSpec{}, fmt.Errorf("sweep: journal line %d: %w", lineNo+1, err)
	}
	// pendingErr still set here means the malformed line was the last one: a
	// torn write from a killed process. Everything before it replays — unless
	// nothing valid preceded it, in which case the file is just garbage.
	if pendingErr != nil && !sawHeader {
		return nil, ShardSpec{}, pendingErr
	}
	return out, spec, nil
}

// MergeJournals reassembles a full batch's outcomes from one or more shard
// journals. Every job index must be covered by some journal (shards may
// overlap, e.g. after a re-run; later readers win); a gap is an error naming
// the first missing point. The merged outcomes are ordered like a
// single-process Run over the same jobs, so rendering them produces the
// byte-identical report.
func MergeJournals(jobs []Job, readers ...io.Reader) ([]Outcome, error) {
	merged := make(map[int]Outcome)
	for k, r := range readers {
		m, _, err := ReadJournal(r, jobs)
		if err != nil {
			return nil, fmt.Errorf("sweep: journal %d: %w", k+1, err)
		}
		for i, oc := range m {
			merged[i] = oc
		}
	}
	out := make([]Outcome, len(jobs))
	for i := range jobs {
		oc, ok := merged[i]
		if !ok {
			return nil, fmt.Errorf("sweep: merged journals cover %d of %d points; point %d (%s) is missing — run its shard to completion first",
				len(merged), len(jobs), i, jobs[i].Name())
		}
		out[i] = oc
	}
	return out, nil
}
