// Command vbmcd is the verification service daemon: an HTTP/JSON front
// end over the engines with a content-addressed result cache, bounded
// admission and graceful drain.
//
// Usage:
//
//	vbmcd -addr 127.0.0.1:8080 -workers 4 -queue 64
//	vbmcd -addr 127.0.0.1:0 -disk /var/lib/vbmcd/cache.jsonl
//
// Endpoints (see docs/SERVICE.md):
//
//	POST /v1/verify     one verification at the request's bounds
//	POST /v1/mink       smallest K with an UNSAFE verdict
//	POST /v1/batch      a whole corpus in one call (JSON or SSE reply)
//	GET  /healthz       liveness + drain state
//	GET  /readyz        readiness: 503 while draining
//	GET  /v1/version    toolchain version (the one in every cache key)
//	GET  /metrics       Prometheus text metrics (latency histograms included)
//	GET  /v1/runs       recent run ledger (summaries, newest first)
//	GET  /v1/runs/{id}  one run's full record: timings, span tree, slow dump
//	GET  /v1/runs/{id}/events  SSE search-telemetry stream (live, replayed when done)
//
// On SIGINT/SIGTERM the daemon stops admitting work, waits up to
// -drain-grace for in-flight verifications, then hard-cancels the
// stragglers. The first stdout line is "vbmcd listening on http://..."
// so wrappers can scrape the bound address (useful with -addr :0).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ravbmc/internal/cache"
	"ravbmc/internal/obs"
	"ravbmc/internal/serve"
	"ravbmc/internal/version"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		workers    = flag.Int("workers", 0, "concurrent verifications (0 = all CPUs)")
		queue      = flag.Int("queue", 64, "requests allowed to wait beyond the workers; overflow is rejected with 429")
		cacheBytes = flag.Int64("cache-bytes", 0, "in-memory cache budget in bytes (0 = 64 MiB, negative = unlimited)")
		disk       = flag.String("disk", "", "JSONL disk store path; entries survive restarts (empty = memory only)")
		defTimeout = flag.Duration("default-timeout", 60*time.Second, "compute deadline for requests that name none")
		maxTimeout = flag.Duration("max-timeout", 10*time.Minute, "cap on a request's compute deadline")
		jobs       = flag.Int("jobs", 0, "portfolio pool width (0 = engine default)")
		searchWkrs = flag.Int("search-workers", 0, "work-stealing workers inside each single search (0 and 1 = one depth-first worker; Reduce searches always use one); -workers admission slots each running this many workers occupy their product in CPUs at saturation")
		reduce     = flag.Bool("reduce", false, "source-DPOR reduction in every vbmc request's SC backend (verdict-neutral; falls back to the full search where inapplicable)")
		tmai       = flag.Bool("tmai", false, "thread-modular pre-pass on vbmc requests: programs it proves get an unbounded SAFE that the cache reuses at every K")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "how long a shutdown waits for in-flight work before hard-cancelling")
		ledgerSize = flag.Int("ledger", 256, "run records retained in memory behind /v1/runs (0 = default)")
		runLog     = flag.String("run-log", "", "append one JSON line per completed run to this file (empty = off)")
		slowRun    = flag.Duration("slow-run", 0, "flight-recorder threshold: dump a still-running request's span tree into its ledger entry after this long (0 = off)")
		sampleIv   = flag.Duration("sample-interval", 500*time.Millisecond, "search-telemetry sampling cadence for live runs (SSE stream and ledger series)")
		logJSON    = flag.Bool("log-json", false, "emit request logs as JSON instead of key=value text")
		showVer    = flag.Bool("version", false, "print the toolchain version and exit")
	)
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 3
	}
	if *showVer {
		fmt.Println(version.String())
		return 0
	}

	rec := obs.New()
	c, err := cache.New(cache.Config{MaxBytes: *cacheBytes, DiskPath: *disk, Obs: rec})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbmcd:", err)
		return 3
	}
	defer c.Close()

	// Request logs go to stderr (stdout's first line is the scrape-able
	// listen address); every line carries the request's run ID.
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	var audit io.Writer
	if *runLog != "" {
		f, err := os.OpenFile(*runLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vbmcd:", err)
			return 3
		}
		defer f.Close()
		audit = f
	}

	s := serve.New(serve.Config{
		Cache: c, Workers: *workers, Queue: *queue,
		DefaultTimeout: *defTimeout, MaxTimeout: *maxTimeout,
		Jobs: *jobs, SearchWorkers: *searchWkrs,
		Reduce: *reduce, TMAI: *tmai, Obs: rec,
		Log: slog.New(handler), LedgerSize: *ledgerSize,
		RunLog: audit, SlowRunThreshold: *slowRun,
		SampleInterval: *sampleIv,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbmcd:", err)
		return 3
	}
	fmt.Printf("vbmcd listening on http://%s\n", ln.Addr())
	fmt.Printf("vbmcd version %s\n", c.Version())

	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "vbmcd: %s: draining (grace %s)\n", sig, *drainGrace)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "vbmcd:", err)
		return 1
	}

	// Drain: refuse new verifications, let in-flight ones finish inside
	// the grace period, then hard-cancel whatever is left and shut the
	// listener down.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "vbmcd: drain grace expired; cancelling in-flight work")
	}
	s.Close()
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
	}
	<-errc // Serve has returned
	fmt.Fprintln(os.Stderr, "vbmcd: drained, bye")
	return 0
}
