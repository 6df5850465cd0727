package sweep

import (
	"fmt"
	"testing"
)

func TestParseShardSpec(t *testing.T) {
	cases := []struct {
		in      string
		want    ShardSpec
		wantErr bool
	}{
		{"", ShardSpec{}, false},
		{"0/0", ShardSpec{}, false},
		{"1/1", ShardSpec{Index: 0, Count: 1}, false},
		{"1/4", ShardSpec{Index: 0, Count: 4}, false},
		{"4/4", ShardSpec{Index: 3, Count: 4}, false},
		{"2/5", ShardSpec{Index: 1, Count: 5}, false},
		{"5/4", ShardSpec{}, true},  // index past count
		{"0/4", ShardSpec{}, true},  // specs are 1-based
		{"-1/4", ShardSpec{}, true}, // negative index
		{"2", ShardSpec{}, true},    // missing slash
		{"a/4", ShardSpec{}, true},
		{"2/b", ShardSpec{}, true},
	}
	for _, c := range cases {
		got, err := ParseShardSpec(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseShardSpec(%q): err=%v wantErr=%v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseShardSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestShardSpecStringRoundTrip(t *testing.T) {
	for count := 2; count <= 6; count++ {
		for idx := 0; idx < count; idx++ {
			sp := ShardSpec{Index: idx, Count: count}
			back, err := ParseShardSpec(sp.String())
			if err != nil {
				t.Fatalf("%+v round-trip: %v", sp, err)
			}
			if back != sp {
				t.Fatalf("%+v round-trips to %+v", sp, back)
			}
		}
	}
	if s := (ShardSpec{}).String(); s != "" {
		t.Fatalf("zero spec renders %q, want empty", s)
	}
}

// TestShardSpecPartition: for every (n, count) the shard ranges are disjoint,
// covering, in order, and even: their lengths differ by at most one.
func TestShardSpecPartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 16, 24, 25, 63, 64, 65, 200} {
		for _, count := range []int{1, 2, 3, 5, 8, 17} {
			t.Run(fmt.Sprintf("n=%d/shards=%d", n, count), func(t *testing.T) {
				next := 0
				shortest, longest := n, 0
				for idx := 0; idx < count; idx++ {
					lo, hi := ShardSpec{Index: idx, Count: count}.Range(n)
					if lo != next {
						t.Fatalf("shard %d starts at %d, want %d (gap or overlap)", idx, lo, next)
					}
					if hi < lo {
						t.Fatalf("shard %d has inverted range [%d,%d)", idx, lo, hi)
					}
					shortest, longest = min(shortest, hi-lo), max(longest, hi-lo)
					next = hi
				}
				if next != n {
					t.Fatalf("shards cover [0,%d), want [0,%d)", next, n)
				}
				if longest-shortest > 1 {
					t.Fatalf("shard lengths range over [%d,%d], want a spread of at most 1", shortest, longest)
				}
			})
		}
	}
}

func TestShardRangeZeroSpecIsWholeBatch(t *testing.T) {
	lo, hi := ShardSpec{}.Range(37)
	if lo != 0 || hi != 37 {
		t.Fatalf("zero spec range [%d,%d), want [0,37)", lo, hi)
	}
}
