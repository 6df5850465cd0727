package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shardDeck gives the sharding tests 12 sweep jobs, which "-shard 1/2" and
// "-shard 2/2" split evenly into [0,6) / [6,12).
const shardDeck = `Shard identity sweep
b1 side=100um sink=27
p1 tsi=500um td=4um
p2 tsi=45um td=4um tb=1um repeat=2
v1 r=10um tl=0.5um lext=1um
iall plane=all devd=700w/mm3 ildd=70w/mm3
.sweep r 6um 12um 12 model=b segments=100
.end
`

// TestDeckShardMergeIdentity drives the full CLI workflow: run each shard
// with its own journal, merge the journals, and require the merged report to
// match an unsharded run byte for byte.
func TestDeckShardMergeIdentity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ttsv")
	if err := os.WriteFile(path, []byte(shardDeck), 0o644); err != nil {
		t.Fatal(err)
	}

	var ref bytes.Buffer
	if err := run(context.Background(), []string{"-deck", path}, &ref); err != nil {
		t.Fatal(err)
	}

	var journals []string
	for _, spec := range []string{"1/2", "2/2"} {
		jp := filepath.Join(dir, strings.ReplaceAll(spec, "/", "of")+".journal")
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-deck", path, "-shard", spec, "-journal", jp}, &buf); err != nil {
			t.Fatalf("shard %s: %v", spec, err)
		}
		if !strings.Contains(buf.String(), "shard: "+spec+" (6 of 12 values)") {
			t.Errorf("shard %s report lacks its shard header of 6 of 12 values:\n%s", spec, buf.String())
		}
		journals = append(journals, jp)
	}

	var merged bytes.Buffer
	if err := run(context.Background(), []string{"-deck", path, "-merge", strings.Join(journals, ",")}, &merged); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !bytes.Equal(merged.Bytes(), ref.Bytes()) {
		t.Errorf("merged report differs from unsharded run:\n--- merged ---\n%s\n--- direct ---\n%s", merged.Bytes(), ref.Bytes())
	}
}

// TestSweepFlagsRequireDeck: the sweep-control flags shape a deck's .sweep;
// without -deck they must be rejected, not silently ignored.
func TestSweepFlagsRequireDeck(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-shard", "1/2", "-model", "A"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-deck") {
		t.Errorf("-shard without -deck: err = %v, want a -deck complaint", err)
	}
	err = run(context.Background(), []string{"-deck", "x.ttsv", "-resume"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-journal") {
		t.Errorf("-resume without -journal: err = %v, want a -journal complaint", err)
	}
	err = run(context.Background(), []string{"-deck", "x.ttsv", "-shard", "0/4"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "shard") {
		t.Errorf("malformed -shard: err = %v, want a shard parse error", err)
	}
}
