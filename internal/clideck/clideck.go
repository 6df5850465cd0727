// Package clideck wires the deck-sweep sharding flags shared by the ttsv
// command-line tools' -deck paths: -shard, -journal, -resume, -merge and
// -progress. The flags lower into deck.SweepControl, so a sweep deck can be
// split across processes, checkpointed, killed, resumed and merged — with
// the merged report byte-identical to one uninterrupted run.
package clideck

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/deck"
	"repro/internal/sweep"
)

// Flags holds the parsed sweep-control flag values for one command run.
type Flags struct {
	shard    string
	journal  string
	resume   bool
	merge    string
	progress bool
}

// Register adds the sweep-control flags to fs and returns the holder to
// lower with Control after parsing.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.shard, "shard", "", `run one contiguous slice of the deck's .sweep, as 1-based "i/n" (e.g. "2/5")`)
	fs.StringVar(&f.journal, "journal", "", "checkpoint completed sweep points to this NDJSON file")
	fs.BoolVar(&f.resume, "resume", false, "replay the -journal file's completed points instead of re-solving them")
	fs.StringVar(&f.merge, "merge", "", "comma-separated shard journals to merge into the full report (no solving)")
	fs.BoolVar(&f.progress, "progress", false, "stream per-point NDJSON progress records to stderr")
	return f
}

// Set reports whether any sweep-control flag was given. The controls apply
// to a deck's .sweep analysis only, so commands reject them without -deck.
func (f *Flags) Set() bool {
	return f.shard != "" || f.journal != "" || f.resume || f.merge != "" || f.progress
}

// Control lowers the parsed flags into the deck run's sweep controls.
// Progress records go to w — the CLIs pass stderr so the text report on
// stdout stays clean and redirectable.
func (f *Flags) Control(w io.Writer) (deck.SweepControl, error) {
	spec, err := sweep.ParseShardSpec(f.shard)
	if err != nil {
		return deck.SweepControl{}, fmt.Errorf("-shard: %w", err)
	}
	if f.resume && f.journal == "" {
		return deck.SweepControl{}, fmt.Errorf("-resume replays a checkpoint journal and requires -journal")
	}
	ctl := deck.SweepControl{
		Shard:       spec,
		JournalPath: f.journal,
		Resume:      f.resume,
	}
	if f.merge != "" {
		for _, p := range strings.Split(f.merge, ",") {
			if p = strings.TrimSpace(p); p != "" {
				ctl.MergePaths = append(ctl.MergePaths, p)
			}
		}
	}
	if f.progress {
		enc := json.NewEncoder(w)
		var mu sync.Mutex
		ctl.Progress = func(p deck.SweepProgress) {
			mu.Lock()
			defer mu.Unlock()
			// Progress is best-effort diagnostics; a broken stderr pipe
			// must not abort the sweep it narrates.
			_ = enc.Encode(p)
		}
	}
	return ctl, nil
}
