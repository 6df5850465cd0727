package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
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
