package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"ravbmc/internal/cache"
	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/litmus"
	"ravbmc/internal/obs"
)

// progSrc renders a program as parseable source: display names like
// "MP-rev" are not identifiers, so the name is dropped.
func progSrc(p *lang.Program) string {
	q := p.Clone()
	q.Name = ""
	return q.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Cache == nil {
		c, err := cache.New(cache.Config{Version: "v-test"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		cfg.Cache = c
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return s, NewClient(ts.URL)
}

// TestServeParityLitmus is the end-to-end parity check: verdicts
// through the HTTP API must equal direct core.Run / oracle verdicts,
// and the second pass must be answered from the cache.
func TestServeParityLitmus(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 2})
	tests := litmus.Classic()
	for pass := 0; pass < 2; pass++ {
		for _, tc := range tests {
			want := cache.VerdictSafe
			if litmus.Oracle(tc) {
				want = cache.VerdictUnsafe
			}
			resp, err := client.Verify(context.Background(), VerifyRequest{
				Program: progSrc(tc.Prog), Mode: cache.ModeVBMC, K: 5,
			})
			if err != nil {
				t.Fatalf("%s pass %d: %v", tc.Name, pass, err)
			}
			if resp.Verdict != want {
				t.Errorf("%s pass %d: verdict %s, want %s (%.1f s, %d states)",
					tc.Name, pass, resp.Verdict, want, resp.ElapsedSeconds, resp.States)
			}
			if pass == 1 && !resp.Cached {
				t.Errorf("%s: second pass not served from cache", tc.Name)
			}
			if resp.Verdict == cache.VerdictUnsafe && resp.Witness == "" {
				t.Errorf("%s: UNSAFE without a witness document", tc.Name)
			}
			if resp.Version == "" {
				t.Errorf("%s: response missing version", tc.Name)
			}
		}
	}
}

func TestServeMinK(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 2})
	// Store buffering (sb) is the classic shape needing K>=1 to fail.
	var sb *litmus.Test
	for i, tc := range litmus.Classic() {
		if tc.HasExpectation && tc.Unsafe {
			sb = &litmus.Classic()[i]
			break
		}
	}
	if sb == nil {
		t.Fatal("no expected-unsafe classic test")
	}
	resp, err := client.MinK(context.Background(), VerifyRequest{
		Program: progSrc(sb.Prog), Mode: cache.ModeVBMC, MaxK: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.MinK == nil || *resp.MinK < 0 {
		t.Fatalf("mink on unsafe %s returned %+v", sb.Name, resp)
	}
	// The reported minimum must actually be minimal: UNSAFE at MinK,
	// SAFE at MinK-1 (when MinK > 0), per direct runs.
	res, err := core.Run(sb.Prog.Clone(), core.Options{K: *resp.MinK})
	if err != nil || res.Verdict != core.Unsafe {
		t.Errorf("direct run at MinK=%d: verdict %v err %v", *resp.MinK, res.Verdict, err)
	}
	if *resp.MinK > 0 {
		res, err := core.Run(sb.Prog.Clone(), core.Options{K: *resp.MinK - 1})
		if err != nil || res.Verdict != core.Safe {
			t.Errorf("direct run at MinK-1=%d: verdict %v err %v", *resp.MinK-1, res.Verdict, err)
		}
	}

	// A safe program reports min_k = -1.
	var safe *litmus.Test
	for i, tc := range litmus.Classic() {
		if tc.HasExpectation && !tc.Unsafe {
			safe = &litmus.Classic()[i]
			break
		}
	}
	resp, err = client.MinK(context.Background(), VerifyRequest{
		Program: progSrc(safe.Prog), Mode: cache.ModeVBMC, MaxK: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.MinK == nil || *resp.MinK != -1 || resp.Verdict != cache.VerdictSafe {
		t.Errorf("mink on safe %s returned %+v", safe.Name, resp)
	}
}

func TestServeBenchByNameAndValidation(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	resp, err := client.Verify(context.Background(), VerifyRequest{
		Bench: "peterson", Mode: cache.ModeVBMC, K: 1, Unroll: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict == "" {
		t.Error("bench request returned no verdict")
	}
	for _, bad := range []VerifyRequest{
		{Mode: cache.ModeVBMC},                           // no program
		{Program: "program p var x", Mode: "warp"},       // bad mode
		{Program: "not a program", Mode: cache.ModeVBMC}, // parse error
		{Bench: "no_such_bench", Mode: cache.ModeVBMC},   // unknown bench
		{Bench: "peterson", Program: "x", Mode: "vbmc"},  // both sources
		{Bench: "peterson", Mode: cache.ModeVBMC, K: -1}, // bad bound
	} {
		if _, err := client.Verify(context.Background(), bad); err == nil {
			t.Errorf("request %+v accepted", bad)
		}
	}
}

// TestServeBackpressure fills every worker and queue slot with slow
// requests and requires the next one to bounce with 429 immediately.
func TestServeBackpressure(t *testing.T) {
	c, err := cache.New(cache.Config{Version: "v-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s := New(Config{Cache: c, Workers: 1, Queue: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { s.Close(); ts.Close() })

	// Distinct slow requests so singleflight cannot collapse them: the
	// fenced peterson_4(3) at L=1 runs for minutes at every K >= 2, and
	// different K yield different cache keys.
	body := func(i int) string {
		b, _ := json.Marshal(VerifyRequest{Bench: "peterson_4(3)", Mode: cache.ModeVBMC, K: 2 + i, Unroll: 1, TimeoutSeconds: 60})
		return string(b)
	}
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(body(i)))
			done <- struct{}{}
		}(i)
	}
	// Wait for both to occupy the worker + queue slots.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(s.admit) == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(s.admit) != 2 {
		t.Fatalf("slots not occupied: admit=%d", len(s.admit))
	}
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(body(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow request got HTTP %d, want 429", resp.StatusCode)
	}
	s.Close() // cancel the slow runs rather than waiting them out
	<-done
	<-done
}

// TestServeDrainNoLeaks starts work, drains mid-flight with a hard
// close, and requires every handler goroutine to finish — the
// graceful-drain contract the SIGTERM path relies on.
func TestServeDrainNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := cache.New(cache.Config{Version: "v-test"})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Cache: c, Workers: 2, Queue: 4})
	ts := httptest.NewServer(s.Handler())

	done := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			b, _ := json.Marshal(VerifyRequest{Bench: "peterson_4(3)", Mode: cache.ModeVBMC, K: 2 + i, Unroll: 1, TimeoutSeconds: 60})
			resp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(string(b)))
			if err == nil {
				resp.Body.Close()
				done <- resp.StatusCode
			} else {
				done <- -1
			}
		}(i)
	}
	// Let the requests reach the workers, then drain with a short grace
	// and hard-close the stragglers.
	time.Sleep(300 * time.Millisecond)
	drainCtx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	s.Drain(drainCtx)
	cancel()
	s.Close()
	for i := 0; i < 4; i++ {
		<-done // every request got *some* response; none hung
	}
	if !s.Draining() {
		t.Error("server not draining after Drain")
	}
	ts.Close()
	c.Close()

	// Goroutines must settle back to the baseline (allow slack for the
	// runtime's own pool).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Errorf("goroutines leaked after drain: before=%d after=%d\n%s",
		before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestServeCancelMidRunReleasesSlot cancels an HTTP request mid-
// exploration and requires the worker slot back promptly — the
// Options.Ctx audit regression test: a disconnected client must not
// pin a worker.
func TestServeCancelMidRunReleasesSlot(t *testing.T) {
	c, err := cache.New(cache.Config{Version: "v-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s := New(Config{Cache: c, Workers: 1, Queue: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { s.Close(); ts.Close() })

	// A slow vbmc run holds the single worker.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		b, _ := json.Marshal(VerifyRequest{Bench: "peterson_4(3)", Mode: cache.ModeVBMC, K: 2, Unroll: 1, TimeoutSeconds: 120})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify", strings.NewReader(string(b)))
		req.Header.Set("Content-Type", "application/json")
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(s.work) == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if len(s.work) != 1 {
		t.Fatal("slow request never reached a worker")
	}
	cancel() // client disconnects mid-exploration
	if err := <-errc; err == nil {
		t.Error("cancelled client call returned no error")
	}
	// The engine must notice the cancelled context and release the slot
	// far sooner than its 120s budget.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && len(s.work) != 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := len(s.work); got != 0 {
		t.Fatalf("worker slot still held %v after client disconnect", got)
	}
	// And the freed slot must serve new work.
	resp, err := NewClient(ts.URL).Verify(context.Background(), VerifyRequest{
		Program: "program ok\nvar x\nproc p0\n  x = 1\nend\n", Mode: cache.ModeRA,
	})
	if err != nil {
		t.Fatalf("request after cancel: %v", err)
	}
	if resp.Verdict != cache.VerdictSafe {
		t.Errorf("verdict after cancel = %s", resp.Verdict)
	}
}

// TestAdmitRefusesExpiredContext: a request whose deadline has already
// passed is never admitted, even with free slots — select alone would
// admit it about half the time.
func TestAdmitRefusesExpiredContext(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for i := 0; i < 64; i++ {
		for _, wait := range []bool{false, true} {
			release, err := s.admitRequest(ctx, wait)
			if err == nil {
				release()
				t.Fatalf("attempt %d (wait=%v): expired request admitted", i, wait)
			}
		}
	}
}

func TestServeEndpointsAndMetrics(t *testing.T) {
	rec := obs.New()
	s, client := newTestServer(t, Config{Workers: 1, Obs: rec})
	base := strings.TrimRight(client.base, "/")

	if _, err := client.Verify(context.Background(), VerifyRequest{
		Program: "program ok\nvar x\nproc p0\n  x = 1\nend\n", Mode: cache.ModeVBMC, K: 1,
	}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"ok":true`) {
		t.Errorf("healthz: %d %s", code, body)
	}
	if code, body := get("/v1/version"); code != 200 || !strings.Contains(body, "version") {
		t.Errorf("version: %d %s", code, body)
	}
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("metrics: HTTP %d", code)
	}
	for _, want := range []string{
		"ravbmc_cache_hits_total", "ravbmc_cache_misses_total 1",
		"ravbmc_cache_evictions_total", "ravbmc_cache_inflight_collapsed_total",
		"ravbmc_serve_requests_total 1", "ravbmc_serve_workers 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "ravbmc_obs_") {
		t.Errorf("metrics missing obs mirror:\n%s", body)
	}
	if s.Draining() {
		t.Error("fresh server reports draining")
	}
}
