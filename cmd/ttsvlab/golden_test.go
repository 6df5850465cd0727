package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestWorkersFlagGolden locks in the sweep engine's determinism guarantee at
// the CLI level: the rendered table and its CSV export must be byte-identical
// for any -workers value. Only the main figure table is compared — the errors
// table carries wall-clock runtimes, which legitimately vary run to run.
func TestWorkersFlagGolden(t *testing.T) {
	type capture struct {
		csv   []byte
		table []byte
	}
	runWorkers := func(n string) capture {
		t.Helper()
		dir := t.TempDir()
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-quick", "-csv", dir, "-workers", n, "fig7"}, &buf); err != nil {
			t.Fatalf("-workers %s: %v", n, err)
		}
		csv, err := os.ReadFile(filepath.Join(dir, "fig7.csv"))
		if err != nil {
			t.Fatalf("-workers %s: %v", n, err)
		}
		// The rendered output follows the main table with a "wrote DIR/..."
		// line (temp dir varies per run) and the errors table (wall-clock
		// runtimes vary); keep the fully deterministic main table only.
		table := buf.Bytes()
		if i := bytes.Index(table, []byte("wrote ")); i >= 0 {
			table = table[:i]
		}
		return capture{csv: csv, table: table}
	}

	golden := runWorkers("1")
	if len(golden.csv) == 0 || len(golden.table) == 0 {
		t.Fatal("sequential run produced no output")
	}
	for _, n := range []string{"2", "8"} {
		got := runWorkers(n)
		if !bytes.Equal(got.csv, golden.csv) {
			t.Errorf("-workers %s: fig7.csv differs from sequential run\nseq:\n%s\ngot:\n%s",
				n, golden.csv, got.csv)
		}
		if !bytes.Equal(got.table, golden.table) {
			t.Errorf("-workers %s: rendered table differs from sequential run\nseq:\n%s\ngot:\n%s",
				n, golden.table, got.table)
		}
	}
}

// TestCalibrateArchive pins the archived results/calibrate.csv to what
// `ttsvlab -csv results calibrate` writes today. `ttsvlab all` does not
// write that file, so without this check it can drift unnoticed.
func TestCalibrateArchive(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-csv", dir, "calibrate"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "calibrate.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "calibrate.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("calibrate.csv differs from results/calibrate.csv; regenerate it with `go run ./cmd/ttsvlab -csv results calibrate`\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestAllArchive pins the archived results/*.csv to what `ttsvlab -csv DIR
// all` writes today, cell by cell, except the columns whose header names a
// runtime (wall-clock times vary run to run). calibrate.csv, which `all`
// does not write, is TestCalibrateArchive's. It pins the run's work too:
// 367 solved jobs, and each of the 35 reference geometries solved once
// through the run's cache (35 misses, 47 hits). A direct solve either
// factors or reuses the factor an idle fem context of an earlier solve in
// the process holds, so the two counters are checked as one sum.
func TestAllArchive(t *testing.T) {
	names := []string{"sweep.jobs", "sweep.cache.misses", "sweep.cache.hits", "fem.direct.factors", "fem.direct.reuse.hits"}
	before := make(map[string]int64)
	for _, name := range names {
		before[name] = obs.Default().Counter(name).Value()
	}
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-csv", dir, "all"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	delta := func(name string) int64 { return obs.Default().Counter(name).Value() - before[name] }
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"sweep.jobs", delta("sweep.jobs"), 367},
		{"sweep.cache.misses", delta("sweep.cache.misses"), 35},
		{"sweep.cache.hits", delta("sweep.cache.hits"), 47},
		{"fem.direct.factors + fem.direct.reuse.hits", delta("fem.direct.factors") + delta("fem.direct.reuse.hits"), 35},
	} {
		if c.got != c.want {
			t.Errorf("all: %s = %d, want %d", c.name, c.got, c.want)
		}
	}
	archive := filepath.Join("..", "..", "results")
	want, err := filepath.Glob(filepath.Join(archive, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)-1 {
		t.Errorf("all wrote %d CSV files, the archive holds %d besides calibrate.csv", len(got), len(want)-1)
	}
	read := func(path string) [][]string {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return rows
	}
	for _, path := range want {
		name := filepath.Base(path)
		if name == "calibrate.csv" {
			continue
		}
		w, g := read(path), read(filepath.Join(dir, name))
		if len(g) != len(w) || len(g) == 0 || len(g[0]) != len(w[0]) {
			t.Errorf("%s: %d rows, archive %d, or the columns differ", name, len(g), len(w))
			continue
		}
		for r := range w {
			for c, header := range w[0] {
				if strings.Contains(header, "runtime") {
					continue
				}
				if g[r][c] != w[r][c] {
					t.Errorf("%s row %d column %q: %q, archive %q; regenerate with `go run ./cmd/ttsvlab -csv results all`", name, r, header, g[r][c], w[r][c])
				}
			}
		}
	}
}
