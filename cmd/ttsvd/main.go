// Command ttsvd serves the TTSV thermal models over HTTP: steady-state
// solves, parameter sweeps, insertion planning and full .ttsv scenario decks
// as POST endpoints, with /metrics, /healthz and /debug/pprof/ on the same
// mux. Responses are deterministic text reports, byte-identical to the
// equivalent ttsvsolve -deck run.
//
//	ttsvd -addr 127.0.0.1:7437
//	curl -s -X POST http://127.0.0.1:7437/solve -d '{}'
//	curl -s -X POST http://127.0.0.1:7437/deck --data-binary @scenario.ttsv
//
// SIGINT/SIGTERM drain the server gracefully: the listener closes, in-flight
// solves finish (bounded by -drain), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ttsvd: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("ttsvd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7437", "listen address (host:port; :0 picks a free port)")
	workers := fs.Int("workers", 0, "engine pool size for sweep/plan analyses (< 1 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request solve timeout (0 = none)")
	rate := fs.Float64("rate", 0, "admitted solve requests per second (0 = unlimited)")
	burst := fs.Int("burst", 0, "admission burst capacity (0 = ceil(rate))")
	poolIdle := fs.Int("pool", 2, "warm solver-state entries kept per grid topology")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain timeout for in-flight requests")
	tracePath := fs.String("trace", "", "write an NDJSON span trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := serve.Config{
		Workers:  *workers,
		Timeout:  *timeout,
		Rate:     *rate,
		Burst:    *burst,
		PoolIdle: *poolIdle,
	}
	if *tracePath != "" {
		fh, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		tracer := obs.NewTracer(fh)
		cfg.Trace = tracer
		defer func() {
			ferr := tracer.Err()
			if cerr := fh.Close(); ferr == nil {
				ferr = cerr
			}
			if err == nil && ferr != nil {
				err = fmt.Errorf("trace %s: %w", *tracePath, ferr)
			}
		}()
	}

	return serve.ListenAndServe(ctx, *addr, cfg, *drain, func(bound string) {
		fmt.Fprintf(out, "ttsvd: listening on http://%s\n", bound)
	})
}
