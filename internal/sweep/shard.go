package sweep

import (
	"fmt"
	"strconv"
	"strings"
)

// ShardSpec selects one shard of a deterministically partitioned batch. A
// batch of n jobs is split into Count contiguous index ranges of as equal a
// size as possible. Jobs are independent, so every shard solves its points
// exactly as a single-process run would, which is what makes the merged
// outcomes bit-identical to an unsharded run.
//
// The partition is a pure function of (n, Count): shards can be computed
// independently by separate processes and are guaranteed disjoint and
// covering.
type ShardSpec struct {
	// Index is the 0-based shard index, in [0, Count).
	Index int
	// Count is the total number of shards; values <= 1 select the whole
	// batch (the zero ShardSpec is "unsharded").
	Count int
}

// ParseShardSpec parses the textual form "i/n" (1-based, e.g. "2/5" is the
// second of five shards). "1/1", "" and "0/0" all mean unsharded.
func ParseShardSpec(s string) (ShardSpec, error) {
	if s == "" {
		return ShardSpec{}, nil
	}
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return ShardSpec{}, fmt.Errorf("sweep: shard spec %q: want \"i/n\" (e.g. \"2/5\")", s)
	}
	idx, err := strconv.Atoi(s[:i])
	if err != nil {
		return ShardSpec{}, fmt.Errorf("sweep: shard spec %q: bad index: %v", s, err)
	}
	cnt, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return ShardSpec{}, fmt.Errorf("sweep: shard spec %q: bad count: %v", s, err)
	}
	sp := ShardSpec{Index: idx - 1, Count: cnt}
	if cnt == 0 && idx == 0 {
		return ShardSpec{}, nil
	}
	if err := sp.Validate(); err != nil {
		return ShardSpec{}, err
	}
	return sp, nil
}

// IsZero reports whether the spec selects the whole batch.
func (sp ShardSpec) IsZero() bool { return sp.Count <= 1 }

// String renders the 1-based "i/n" form; the unsharded spec renders empty.
func (sp ShardSpec) String() string {
	if sp.IsZero() {
		return ""
	}
	return fmt.Sprintf("%d/%d", sp.Index+1, sp.Count)
}

// Validate rejects out-of-range indices.
func (sp ShardSpec) Validate() error {
	if sp.IsZero() {
		if sp.Index != 0 {
			return fmt.Errorf("sweep: shard index %d with count %d", sp.Index, sp.Count)
		}
		return nil
	}
	if sp.Index < 0 || sp.Index >= sp.Count {
		return fmt.Errorf("sweep: shard index %d out of range for %d shards (want 1/%d .. %d/%d)",
			sp.Index+1, sp.Count, sp.Count, sp.Count, sp.Count)
	}
	return nil
}

// Range returns the half-open job-index range [lo, hi) of the shard for a
// batch of n jobs. Jobs are distributed as evenly as possible: the first
// n%Count shards get one extra job. The union of all shards' ranges is
// exactly [0, n) and the ranges are pairwise disjoint.
func (sp ShardSpec) Range(n int) (lo, hi int) {
	if sp.IsZero() {
		return 0, n
	}
	per, rem := n/sp.Count, n%sp.Count
	lo = sp.Index*per + min(sp.Index, rem)
	hi = lo + per
	if sp.Index < rem {
		hi++
	}
	return lo, hi
}
