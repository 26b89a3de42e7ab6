package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"ravbmc/internal/cache"
	"ravbmc/internal/lang"
	"ravbmc/internal/obs"
)

// Config configures a Server.
type Config struct {
	// Cache answers and memoizes requests; nil runs every request
	// directly (still correct, never warm).
	Cache *cache.Cache
	// Workers bounds concurrently executing verifications (<=0 selects
	// GOMAXPROCS). Queue bounds requests waiting for a worker beyond
	// that (<=0 selects 64); a request arriving with the queue full is
	// rejected with 429 immediately — backpressure, not buffering.
	Workers int
	Queue   int
	// DefaultTimeout applies when a request names none; MaxTimeout caps
	// what a request may ask for. Zero select 60s and 10m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes caps a request body (<=0 selects 1 MiB).
	MaxBodyBytes int64
	// Exec is copied into every execution, which sets only its Timeout
	// (from the request's deadline) and Obs (the request's recorder).
	// Its engine knobs are verdict-neutral, so they stay out of the cache
	// key: a TMAI pre-pass's unbounded SAFE proofs land in the cache's
	// unbounded tier and answer every later K. Each admission slot runs
	// its searches on Exec.Workers search workers, so Workers times
	// Exec.Workers CPUs are busy at saturation.
	Exec cache.ExecConfig
	// Obs, when non-nil, is mirrored onto /metrics alongside the
	// server's own instruments; per-request recorders mirror their
	// engine counters into it.
	Obs *obs.Recorder
	// Log receives structured request logs, one line per completed
	// request carrying the run ID (nil discards them).
	Log *slog.Logger
	// LedgerSize bounds the in-memory run ledger behind /v1/runs (<=0
	// selects 256).
	LedgerSize int
	// RunLog, when non-nil, receives one JSON line per completed run
	// and per flight-recorder dump — the persistent audit trail.
	RunLog io.Writer
	// SlowRunThreshold arms the flight recorder: a request still in
	// flight past this duration has its live span tree and progress
	// snapshot dumped (once) into its ledger entry, the audit log and
	// the request log. Zero disables it.
	SlowRunThreshold time.Duration
	// SampleInterval is the search-telemetry sampling cadence of every
	// request (<=0 selects 500ms): each run's sampler feeds the SSE
	// event stream live and lands a ravbmc.search/v1 series in its
	// ledger entry.
	SampleInterval time.Duration
}

// Server handles the verification API. Construct with New, expose
// with Handler, stop with Drain (graceful) and Close (hard).
type Server struct {
	cfg   Config
	obs   *obs.Recorder
	start time.Time

	// admit holds one token per admissible request (workers + queue);
	// work holds one token per executing request.
	admit chan struct{}
	work  chan struct{}

	// base is cancelled by Close: the hard stop that tears down every
	// in-flight engine run.
	base   context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	ledger *Ledger
	log    *slog.Logger

	// watches maps in-flight run IDs to their live samplers; the SSE
	// handler subscribes through it, /metrics aggregates over it.
	watchMu sync.Mutex
	watches map[string]*obs.Sampler

	reqs, rejected, failed *obs.Counter
	slowDumps              *obs.Counter
	gQueued, gActive       *obs.Gauge
	// hRequest and hQueueWait are standalone (recorder-independent)
	// histograms so their /metrics families exist on every server.
	hRequest, hQueueWait *obs.Histogram

	// batchSem bounds concurrent /v1/batch items, one per worker.
	batchSem                            chan struct{}
	batches, batchItems, batchItemFails *obs.Counter
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		obs:        cfg.Obs,
		start:      time.Now(),
		admit:      make(chan struct{}, cfg.Workers+cfg.Queue),
		work:       make(chan struct{}, cfg.Workers),
		base:       base,
		cancel:     cancel,
		ledger:     NewLedger(cfg.LedgerSize, cfg.RunLog),
		log:        log,
		watches:    map[string]*obs.Sampler{},
		reqs:       cfg.Obs.Counter("serve.requests"),
		rejected:   cfg.Obs.Counter("serve.rejected"),
		failed:     cfg.Obs.Counter("serve.errors"),
		slowDumps:  cfg.Obs.Counter("serve.slow_dumps"),
		gQueued:    cfg.Obs.Gauge("serve.queued"),
		gActive:    cfg.Obs.Gauge("serve.active"),
		hRequest:   obs.NewHistogram("serve.request_seconds", obs.DurationBuckets),
		hQueueWait: obs.NewHistogram("serve.queue_wait_seconds", obs.DurationBuckets),

		batchSem:       make(chan struct{}, cfg.Workers),
		batches:        cfg.Obs.Counter("serve.batches"),
		batchItems:     cfg.Obs.Counter("serve.batch_items"),
		batchItemFails: cfg.Obs.Counter("serve.batch_item_failures"),
	}
	return s
}

// Handler returns the API mux:
//
//	POST /v1/verify    — one verification at the request's bounds
//	POST /v1/mink      — smallest K in [K, MaxK] with an UNSAFE verdict
//	POST /v1/batch     — a whole corpus in one call (SSE or JSON reply)
//	GET  /v1/runs      — recent run-ledger entries, newest first
//	GET  /v1/runs/{id} — one run in full detail (span tree included)
//	GET  /v1/runs/{id}/events — SSE search-telemetry stream (live or replay)
//	GET  /healthz      — liveness (always 200 while the process runs)
//	GET  /readyz       — readiness (503 while draining)
//	GET  /v1/version   — toolchain version
//	GET  /metrics      — Prometheus text metrics (HELP/TYPE, histograms)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, r *http.Request) {
		s.handleVerify(w, r, false)
	})
	mux.HandleFunc("POST /v1/mink", func(w http.ResponseWriter, r *http.Request) {
		s.handleVerify(w, r, true)
	})
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/runs", s.handleRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRunDetail)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Ledger exposes the run ledger (tests and embedding callers).
func (s *Server) Ledger() *Ledger { return s.ledger }

// Drain stops admitting verification work (healthz flips to draining,
// verify returns 503) and waits for in-flight requests to finish or
// ctx to expire, whichever first. It does not cancel running work —
// pair with Close for a hard stop after the grace period.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close hard-stops the server: every in-flight engine run's context is
// cancelled. Safe after (or instead of) Drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	s.inflight.Wait()
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// handleReadyz serves GET /readyz: readiness, distinct from /healthz
// liveness. A draining node is alive (healthz 200) but not ready
// (readyz 503) — load balancers key off this.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", drainRetryAfter)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "draining": true,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "draining": false})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// admitRequest performs the two-stage admission: an admission token
// and then a worker slot (waiting counts as queued). With wait false a
// full queue rejects immediately (errBusy → 429, backpressure not
// buffering); with wait true the caller blocks for a token too — batch
// items, whose backpressure is the batch taking longer. The returned
// release function gives both back.
func (s *Server) admitRequest(ctx context.Context, wait bool) (release func(), err error) {
	// select picks at random among ready cases: without this check a
	// request whose deadline has already passed would sometimes be
	// admitted anyway, and run only to time out at once.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if wait {
		select {
		case s.admit <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	} else {
		select {
		case s.admit <- struct{}{}:
		default:
			return nil, errBusy
		}
	}
	s.gQueued.Set(int64(len(s.admit) - len(s.work)))
	select {
	case s.work <- struct{}{}:
	case <-ctx.Done():
		<-s.admit
		s.gQueued.Set(int64(len(s.admit) - len(s.work)))
		return nil, ctx.Err()
	}
	s.gActive.Set(int64(len(s.work)))
	s.gQueued.Set(int64(len(s.admit) - len(s.work)))
	return func() {
		<-s.work
		<-s.admit
		s.gActive.Set(int64(len(s.work)))
		s.gQueued.Set(int64(len(s.admit) - len(s.work)))
	}, nil
}

var errBusy = errors.New("serve: queue full")

// endpointName maps the mink flag onto the ledger's endpoint label.
func endpointName(mink bool) string {
	if mink {
		return "mink"
	}
	return "verify"
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request, mink bool) {
	s.reqs.Inc()

	// Every request gets a run ID and a private tracing recorder whose
	// counters mirror into the process-wide one: the span tree is this
	// request's alone, /metrics keeps aggregating.
	rc := s.newRun(endpointName(mink), "")

	if s.Draining() {
		writeRunResult(w, rc.fail(http.StatusServiceUnavailable, drainRetryAfter, "server is draining"))
		return
	}

	var req VerifyRequest
	span := rc.rec.StartPhase("decode")
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		err = req.validate()
	}
	var prog *lang.Program
	if err == nil {
		prog, err = req.program()
	}
	span.End()
	if err != nil {
		status := http.StatusUnprocessableEntity
		if prog == nil && req.Mode == "" {
			status = http.StatusBadRequest
		}
		writeRunResult(w, rc.fail(status, "", "%v", err))
		return
	}
	rc.setRequest(req, prog)
	// Bind the caller's alias as soon as the request is readable: a
	// client that minted a ref can open the SSE stream now, before the
	// verify response delivers the run ID.
	s.ledger.Alias(req.ClientRef, rc.id)

	// The request context ends when the client disconnects; the server
	// hard-stop (Close) ends it too. The compute deadline applies on
	// top.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.base, cancel)
	defer stop()
	deadline := s.deadline(req)
	ctx, cancelDeadline := context.WithDeadline(ctx, deadline)
	defer cancelDeadline()

	writeRunResult(w, s.execute(ctx, rc, req, prog, mink, deadline, false))
}

// cacheDisposition names how the outcome was obtained, for the ledger
// and request log.
func cacheDisposition(out cache.Outcome) string {
	switch {
	case out.Subsumed:
		return "subsumed"
	case out.Cached:
		return "hit"
	case out.Collapsed:
		return "collapsed"
	default:
		return "miss"
	}
}

// dumpSlowRun is the flight recorder: invoked once per run by the
// slow-run timer while the request is still in flight.
func (s *Server) dumpSlowRun(runID string, rec *obs.Recorder, thr time.Duration) {
	snap := rec.Snapshot()
	dump := &SlowDump{
		AfterSeconds: thr.Seconds(),
		Phase:        snap.Phase,
		Counters:     snap.Counters,
		Spans:        rec.Spans(),
	}
	if !s.ledger.SetSlowDump(runID, dump) {
		return
	}
	s.slowDumps.Inc()
	s.ledger.auditLine("slow_run", runID)
	s.log.Warn("slow run: flight recorder dump",
		"run_id", runID, "after_s", thr.Seconds(), "phase", snap.Phase,
		"spans", obs.CountSpans(dump.Spans))
}

// defaultMaxK bounds /v1/mink when the request names no MaxK; the
// litmus result (paper Sec. 7) makes small bounds the interesting
// range, so 8 is generous.
const defaultMaxK = 8

// runMinK is the cache-aware minimal-K search: try each bound from
// req.K to req.MaxK, answering each probe from the cache — an UNSAFE
// cached at a smaller bound or a SAFE cached at a larger one short-
// circuits whole prefixes of the search. Returns the first UNSAFE
// outcome with its K, the final SAFE outcome with minK = -1, or the
// first non-conclusive outcome as-is.
func (s *Server) runMinK(ctx context.Context, req VerifyRequest, prog *lang.Program, deadline time.Time, xc cache.ExecConfig) (cache.Outcome, *int, error) {
	maxK := req.MaxK
	if maxK == 0 {
		maxK = defaultMaxK
	}
	if maxK < req.K {
		return cache.Outcome{}, nil, fmt.Errorf("max_k %d below starting k %d", maxK, req.K)
	}
	var out cache.Outcome
	for k := req.K; k <= maxK; k++ {
		cr := req.cacheRequest(prog)
		cr.K = k
		xc.Timeout = time.Until(deadline)
		var err error
		out, err = s.cfg.Cache.Verify(ctx, cr, xc)
		if err != nil {
			return cache.Outcome{}, nil, err
		}
		if out.Verdict == cache.VerdictUnsafe {
			return out, &k, nil
		}
		if out.Verdict != cache.VerdictSafe {
			// Inconclusive or disagreement: report it at this bound
			// rather than pretending larger bounds would be sound.
			return out, nil, nil
		}
	}
	minK := -1
	return out, &minK, nil
}
