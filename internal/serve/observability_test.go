package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ravbmc/internal/cache"
	"ravbmc/internal/obs"
)

// metricFamily is one parsed exposition family for the lint test.
type metricFamily struct {
	name    string
	typ     string
	help    bool
	samples []string // sample metric names (label part stripped)
}

// parseExposition splits /metrics output into families and fails the
// test on any structural violation: samples before their family
// declaration, TYPE before HELP, duplicate families.
func parseExposition(t *testing.T, body string) map[string]*metricFamily {
	t.Helper()
	fams := map[string]*metricFamily{}
	var cur *metricFamily
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if fams[name] != nil {
				t.Fatalf("line %d: duplicate family %q", ln+1, name)
			}
			cur = &metricFamily{name: name, help: true}
			fams[name] = cur
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if cur == nil || cur.name != fields[0] {
				t.Fatalf("line %d: TYPE %s not preceded by its HELP", ln+1, fields[0])
			}
			cur.typ = fields[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		default:
			name, _, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("line %d: malformed sample %q", ln+1, line)
			}
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			if cur == nil || !strings.HasPrefix(name, cur.name) {
				t.Fatalf("line %d: sample %s outside its family block", ln+1, name)
			}
			cur.samples = append(cur.samples, name)
		}
	}
	return fams
}

// TestMetricsConformance is the promlint-style gate on /metrics: every
// family has HELP and TYPE in order, counter names end in _total,
// histograms carry the full _bucket/_sum/_count complement with
// monotone cumulative buckets, and the required latency families are
// present.
func TestMetricsConformance(t *testing.T) {
	rec := obs.New()
	_, client := newTestServer(t, Config{Workers: 1, Obs: rec})
	if _, err := client.Verify(context.Background(), VerifyRequest{
		Program: "program ok\nvar x\nproc p0\n  x = 1\nend\n", Mode: cache.ModeVBMC, K: 1,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(strings.TrimRight(client.base, "/") + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}

	fams := parseExposition(t, body)
	nameRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	for name, f := range fams {
		if !nameRE.MatchString(name) {
			t.Errorf("family %q: invalid metric name", name)
		}
		if !strings.HasPrefix(name, "ravbmc_") {
			t.Errorf("family %q: missing ravbmc_ namespace", name)
		}
		if f.typ == "" {
			t.Errorf("family %q: no TYPE line", name)
		}
		switch f.typ {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %q does not end in _total", name)
			}
			if len(f.samples) != 1 || f.samples[0] != name {
				t.Errorf("counter %q samples = %v", name, f.samples)
			}
		case "gauge":
			if len(f.samples) != 1 || f.samples[0] != name {
				t.Errorf("gauge %q samples = %v", name, f.samples)
			}
		case "histogram":
			var buckets, sums, counts int
			for _, sn := range f.samples {
				switch sn {
				case name + "_bucket":
					buckets++
				case name + "_sum":
					sums++
				case name + "_count":
					counts++
				default:
					t.Errorf("histogram %q: stray sample %q", name, sn)
				}
			}
			if buckets < 2 || sums != 1 || counts != 1 {
				t.Errorf("histogram %q: buckets=%d sums=%d counts=%d", name, buckets, sums, counts)
			}
		default:
			t.Errorf("family %q: unexpected type %q", name, f.typ)
		}
	}

	for _, want := range []string{
		"ravbmc_serve_request_seconds", "ravbmc_serve_queue_wait_seconds",
		"ravbmc_cache_lookup_seconds", "ravbmc_serve_slow_dumps_total",
		"ravbmc_serve_ledger_runs", "ravbmc_serve_ledger_entries",
		"ravbmc_serve_ledger_evictions_total",
		"ravbmc_search_active_runs", "ravbmc_search_states",
		"ravbmc_search_transitions", "ravbmc_search_frontier_depth",
		"ravbmc_search_dedup_probes", "ravbmc_search_dedup_hits",
		"ravbmc_search_visited_bytes", "ravbmc_search_states_per_sec",
	} {
		if fams[want] == nil {
			t.Errorf("metrics missing family %q", want)
		}
	}

	// Histogram buckets must be cumulative (monotone non-decreasing,
	// ending at _count) with a closing +Inf bucket.
	for _, fam := range []string{"ravbmc_serve_request_seconds", "ravbmc_cache_lookup_seconds"} {
		var prev int64 = -1
		var last string
		var count int64 = -1
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, fam+"_bucket{le=") {
				v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
				if err != nil {
					t.Fatalf("%s: bad bucket line %q", fam, line)
				}
				if v < prev {
					t.Errorf("%s: non-monotone buckets (%d after %d)", fam, v, prev)
				}
				prev, last = v, line
			}
			if strings.HasPrefix(line, fam+"_count ") {
				count, _ = strconv.ParseInt(strings.Fields(line)[1], 10, 64)
			}
		}
		if !strings.Contains(last, `le="+Inf"`) {
			t.Errorf("%s: last bucket is %q, want +Inf", fam, last)
		}
		if prev != count {
			t.Errorf("%s: +Inf bucket %d != count %d", fam, prev, count)
		}
	}
	// A real request ran, so its latency must have been observed.
	if !strings.Contains(body, "ravbmc_serve_request_seconds_count 1") {
		t.Errorf("request latency not observed:\n%s", body)
	}

	// The family order must be stable scrape to scrape.
	resp2, err := http.Get(strings.TrimRight(client.base, "/") + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw2, _ := io.ReadAll(resp2.Body)
	order := func(b string) []string {
		var names []string
		for _, line := range strings.Split(b, "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				names = append(names, strings.Fields(line)[2-1])
			}
		}
		return names
	}
	o1, o2 := order(body), order(string(raw2))
	if len(o1) != len(o2) {
		t.Fatalf("family count changed between scrapes: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Errorf("family order unstable at %d: %s vs %s", i, o1[i], o2[i])
		}
	}
}

// TestLedgerBoundsConcurrent hammers the ledger from many goroutines
// and requires the ring to stay within capacity with unique IDs and
// newest-first ordering.
func TestLedgerBoundsConcurrent(t *testing.T) {
	const capacity, workers, per = 8, 8, 50
	l := NewLedger(capacity, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := l.Add(&RunRecord{Start: time.Now(), Endpoint: "verify", Status: "running"})
				l.Update(id, func(r *RunRecord) { r.Status = "done" })
				l.Get(id)
				l.Recent(4)
			}
		}()
	}
	wg.Wait()
	if got := l.Len(); got != capacity {
		t.Errorf("len = %d, want %d", got, capacity)
	}
	recent := l.Recent(0)
	if len(recent) != capacity {
		t.Fatalf("recent = %d records, want %d", len(recent), capacity)
	}
	seen := map[string]bool{}
	for i, r := range recent {
		if seen[r.ID] {
			t.Errorf("duplicate ID %s in recent", r.ID)
		}
		seen[r.ID] = true
		if i > 0 {
			var a, b int
			fmt.Sscanf(recent[i-1].ID[len(recent[i-1].ID)-6:], "%d", &a)
			fmt.Sscanf(r.ID[len(r.ID)-6:], "%d", &b)
			if a < b {
				t.Errorf("recent not newest-first: %s before %s", recent[i-1].ID, r.ID)
			}
		}
		if r.Spans != nil || r.SlowDump != nil {
			t.Errorf("summary view leaked spans/dump for %s", r.ID)
		}
	}
	// Updating an evicted ID reports absence instead of resurrecting it.
	if l.Update("r-gone-000001", func(r *RunRecord) {}) {
		t.Error("update of unknown ID reported success")
	}
}

// TestSlowDumpExactlyOnce races many SetSlowDump calls for one run;
// exactly one must win.
func TestSlowDumpExactlyOnce(t *testing.T) {
	l := NewLedger(4, nil)
	id := l.Add(&RunRecord{Status: "running"})
	var wins int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if l.SetSlowDump(id, &SlowDump{AfterSeconds: float64(i)}) {
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if wins != 1 {
		t.Errorf("SetSlowDump wins = %d, want exactly 1", wins)
	}
	if rec, _ := l.Get(id); rec.SlowDump == nil {
		t.Error("winning dump not installed")
	}
	if l.SetSlowDump("r-unknown-000009", &SlowDump{}) {
		t.Error("dump for unknown ID reported success")
	}
}

// TestRunsEndpointEviction runs more requests than the ledger holds:
// the summary stays bounded and an evicted run ID 404s while a live
// one still resolves.
func TestRunsEndpointEviction(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1, LedgerSize: 2})
	base := strings.TrimRight(client.base, "/")
	var ids []string
	for i := 0; i < 3; i++ {
		resp, err := client.Verify(context.Background(), VerifyRequest{
			Program: fmt.Sprintf("program ok\nvar x\nproc p0\n  x = %d\nend\n", i+1),
			Mode:    cache.ModeRA,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.RunID == "" {
			t.Fatal("response carries no run_id")
		}
		ids = append(ids, resp.RunID)
	}

	get := func(path string) (int, []byte) {
		r, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return r.StatusCode, b
	}

	code, body := get("/v1/runs")
	if code != 200 {
		t.Fatalf("runs: HTTP %d", code)
	}
	var list RunsResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 2 {
		t.Fatalf("runs = %d records, want 2 (ledger size)", len(list.Runs))
	}
	if list.Runs[0].ID != ids[2] || list.Runs[1].ID != ids[1] {
		t.Errorf("runs order = %s, %s; want %s, %s", list.Runs[0].ID, list.Runs[1].ID, ids[2], ids[1])
	}
	for _, r := range list.Runs {
		if r.Status != "done" || r.Verdict == "" || len(r.Spans) != 0 {
			t.Errorf("summary record = %+v", r)
		}
	}

	if code, _ := get("/v1/runs/" + ids[0]); code != http.StatusNotFound {
		t.Errorf("evicted run: HTTP %d, want 404", code)
	}
	code, body = get("/v1/runs/" + ids[2])
	if code != 200 {
		t.Fatalf("live run: HTTP %d", code)
	}
	var rec RunRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != ids[2] || len(rec.Spans) == 0 {
		t.Errorf("detail record lacks spans: %+v", rec)
	}
	if code, _ := get("/v1/runs?n=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad n: HTTP %d, want 400", code)
	}
}

// TestRunCorrelation is the acceptance check for the observability
// chain: one request yields one run ID that appears in the response,
// the slog output, the audit log and the ledger's span tree — and the
// ledger's phase timings sum to the request's own latency.
func TestRunCorrelation(t *testing.T) {
	var logBuf, auditBuf syncBuffer
	s, client := newTestServer(t, Config{
		Workers: 1,
		Log:     slog.New(slog.NewTextHandler(&logBuf, nil)),
		RunLog:  &auditBuf,
	})
	resp, err := client.Verify(context.Background(), VerifyRequest{
		Bench: "peterson", Mode: cache.ModeVBMC, K: 2, Unroll: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.RunID
	if id == "" {
		t.Fatal("no run_id in response")
	}

	rec, ok := s.Ledger().Get(id)
	if !ok {
		t.Fatalf("run %s not in ledger", id)
	}
	if rec.Status != "done" || rec.Verdict != resp.Verdict || rec.Mode != cache.ModeVBMC {
		t.Errorf("ledger record = %+v", rec)
	}
	if rec.Program == "" || rec.ProgramSHA == "" {
		t.Errorf("record lacks program identity: %+v", rec)
	}
	if rec.Cache != "miss" {
		t.Errorf("first run disposition = %q, want miss", rec.Cache)
	}

	// The span tree must exist, be rooted at "request", and contain the
	// engine span nested under the cache span.
	if len(rec.Spans) != 1 || rec.Spans[0].Name != "request" {
		t.Fatalf("span roots = %+v", rec.Spans)
	}
	if rec.Spans[0].Attrs["run_id"] != id {
		t.Errorf("root span run_id attr = %q, want %q", rec.Spans[0].Attrs["run_id"], id)
	}
	if obs.SpanSeconds(rec.Spans, "engine") <= 0 {
		t.Error("no engine span recorded")
	}

	// Phase sum vs total: queue wait + cache lookup + engine + replay
	// must account for the request latency to within 5% plus a small
	// absolute slack for decode/encode on sub-millisecond runs.
	sum := rec.QueueWaitSeconds + rec.CacheLookupSeconds + rec.EngineSeconds + rec.ReplaySeconds
	slack := rec.TotalSeconds*0.05 + 0.010
	if diff := rec.TotalSeconds - sum; diff < 0 || diff > slack {
		t.Errorf("phase sum %.6fs vs total %.6fs (slack %.6fs)", sum, rec.TotalSeconds, slack)
	}

	if !strings.Contains(logBuf.String(), "run_id="+id) {
		t.Errorf("slog output lacks run_id:\n%s", logBuf.String())
	}
	if !strings.Contains(auditBuf.String(), `"id":"`+id+`"`) {
		t.Errorf("audit log lacks run id:\n%s", auditBuf.String())
	}

	// A second identical request must record a cache hit disposition.
	resp2, err := client.Verify(context.Background(), VerifyRequest{
		Bench: "peterson", Mode: cache.ModeVBMC, K: 2, Unroll: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec2, ok := s.Ledger().Get(resp2.RunID)
	if !ok {
		t.Fatal("second run not in ledger")
	}
	if rec2.Cache != "hit" {
		t.Errorf("second run disposition = %q, want hit", rec2.Cache)
	}
}

// TestFlightRecorderEndToEnd arms a tiny slow-run threshold, starts a
// long verification and requires the dump to land in the ledger while
// the run is still in flight — then cancels the run.
func TestFlightRecorderEndToEnd(t *testing.T) {
	c, err := cache.New(cache.Config{Version: "v-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var logBuf syncBuffer
	s := New(Config{
		Cache: c, Workers: 1,
		Log:              slog.New(slog.NewTextHandler(&logBuf, nil)),
		SlowRunThreshold: 50 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { s.Close(); ts.Close() })

	done := make(chan struct{})
	go func() {
		defer close(done)
		b, _ := json.Marshal(VerifyRequest{Bench: "peterson_4(3)", Mode: cache.ModeVBMC, K: 2, Unroll: 1, TimeoutSeconds: 120})
		resp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(string(b)))
		if err == nil {
			resp.Body.Close()
		}
	}()

	// The run (a SAFE proof, over a minute on two cores) lasts far past
	// the 50ms threshold; the dump must appear shortly after it.
	deadline := time.Now().Add(10 * time.Second)
	var dumped *RunRecord
	for time.Now().Before(deadline) && dumped == nil {
		for _, r := range s.Ledger().Recent(0) {
			if rec, ok := s.Ledger().Get(r.ID); ok && rec.SlowDump != nil {
				dumped = &rec
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if dumped == nil {
		t.Fatal("flight recorder never fired")
	}
	if dumped.Status != "running" {
		t.Errorf("dump taken after completion: status %q", dumped.Status)
	}
	d := dumped.SlowDump
	if d.AfterSeconds != 0.05 {
		t.Errorf("dump threshold = %v", d.AfterSeconds)
	}
	if len(d.Spans) == 0 || !d.Spans[0].Open {
		t.Errorf("dump spans = %+v, want open request span", d.Spans)
	}
	if !strings.Contains(logBuf.String(), "slow run") {
		t.Errorf("no slow-run log line:\n%s", logBuf.String())
	}

	s.Close() // cancel the slow run rather than waiting it out
	<-done
}

// syncBuffer is a mutex-guarded bytes.Buffer for handlers that log
// from request goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestEventsReplayAfterCompletion: a completed run's SSE stream
// replays the stored series and ends with a done frame whose final
// state count matches the verify response — the acceptance check for
// the ravbmc.search/v1 ledger series.
func TestEventsReplayAfterCompletion(t *testing.T) {
	s, client := newTestServer(t, Config{Workers: 1, SampleInterval: time.Millisecond})
	resp, err := client.Verify(context.Background(), VerifyRequest{
		Bench: "peterson", Mode: cache.ModeVBMC, K: 2, Unroll: 2, ClientRef: "replay-ref-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.States == 0 {
		t.Fatalf("verify reported no states: %+v", resp.Outcome)
	}

	stream := func(id string) (searches int, last obs.SearchPoint, done doneEvent, dones int) {
		t.Helper()
		err := client.StreamEvents(context.Background(), id, func(event string, data []byte) error {
			switch event {
			case "search":
				searches++
				if err := json.Unmarshal(data, &last); err != nil {
					t.Fatalf("bad search frame %q: %v", data, err)
				}
			case "done":
				dones++
				if err := json.Unmarshal(data, &done); err != nil {
					t.Fatalf("bad done frame %q: %v", data, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("stream %s: %v", id, err)
		}
		return
	}

	searches, last, done, dones := stream(resp.RunID)
	if searches < 1 {
		t.Fatal("replay delivered no search frames")
	}
	if dones != 1 || done.Status != "done" || done.RunID != resp.RunID {
		t.Errorf("terminal frame = %+v (%d done frames)", done, dones)
	}
	if done.States != resp.States {
		t.Errorf("done frame states = %d, response said %d", done.States, resp.States)
	}
	if last.States != int64(resp.States) {
		t.Errorf("final replayed sample states = %d, engine reported %d", last.States, resp.States)
	}

	// The client_ref alias resolves to the same stream.
	if n, _, d, _ := stream("replay-ref-1"); n < 1 || d.RunID != resp.RunID {
		t.Errorf("alias stream: %d search frames, done = %+v", n, d)
	}

	// The ledger entry itself carries the sealed series.
	rec, ok := s.Ledger().Get(resp.RunID)
	if !ok {
		t.Fatal("run missing from ledger")
	}
	if rec.Search == nil || rec.Search.Schema != obs.SearchSchema || len(rec.Search.Samples) == 0 {
		t.Fatalf("ledger series = %+v", rec.Search)
	}
	if got := rec.Search.Samples[len(rec.Search.Samples)-1].States; got != int64(resp.States) {
		t.Errorf("ledger final sample states = %d, want %d", got, resp.States)
	}
	// Summaries must not ship the bulky series.
	for _, sum := range s.Ledger().Recent(0) {
		if sum.Search != nil {
			t.Errorf("summary view leaked the search series for %s", sum.ID)
		}
	}
}

// TestEventsEvictedRunNotFound: once the ledger ring evicts a run, its
// event stream 404s instead of hanging or replaying stale data.
func TestEventsEvictedRunNotFound(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1, LedgerSize: 2, SampleInterval: time.Millisecond})
	var ids []string
	for i := 0; i < 3; i++ {
		resp, err := client.Verify(context.Background(), VerifyRequest{
			Program: fmt.Sprintf("program ok\nvar x\nproc p0\n  x = %d\nend\n", i+1),
			Mode:    cache.ModeRA, ClientRef: fmt.Sprintf("evict-ref-%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.RunID)
	}
	nop := func(string, []byte) error { return nil }
	if err := client.StreamEvents(context.Background(), ids[0], nop); err != ErrRunNotFound {
		t.Errorf("evicted run stream error = %v, want ErrRunNotFound", err)
	}
	// The evicted run's alias is cleaned up with it.
	if err := client.StreamEvents(context.Background(), "evict-ref-0", nop); err != ErrRunNotFound {
		t.Errorf("evicted alias stream error = %v, want ErrRunNotFound", err)
	}
	if err := client.StreamEvents(context.Background(), "r-never-existed", nop); err != ErrRunNotFound {
		t.Errorf("unknown run stream error = %v, want ErrRunNotFound", err)
	}
	// Live runs still stream.
	if err := client.StreamEvents(context.Background(), ids[2], nop); err != nil {
		t.Errorf("live run stream error = %v", err)
	}
	// A malformed client_ref is rejected at validation time.
	if _, err := client.Verify(context.Background(), VerifyRequest{
		Program: "program ok\nvar x\nproc p0\n  x = 1\nend\n",
		Mode:    cache.ModeRA, ClientRef: "bad ref!",
	}); err == nil {
		t.Error("malformed client_ref accepted")
	}
}

// TestEventsLiveStreamAndDisconnect: an in-flight run streams live
// samples, and a client that disconnects mid-stream frees its
// subscription without disturbing the engine.
func TestEventsLiveStreamAndDisconnect(t *testing.T) {
	c, err := cache.New(cache.Config{Version: "v-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s := New(Config{Cache: c, Workers: 1, SampleInterval: 2 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { s.Close(); ts.Close() })
	client := NewClient(ts.URL)

	// A run that lasts minutes, so it is mid-flight for the whole test;
	// Close cancels it at cleanup.
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		b, _ := json.Marshal(VerifyRequest{Bench: "peterson_4(3)", Mode: cache.ModeVBMC, K: 2, Unroll: 1, TimeoutSeconds: 120})
		resp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(string(b)))
		if err == nil {
			resp.Body.Close()
		}
	}()

	// Wait for the run to register its sampler.
	var runID string
	var smp *obs.Sampler
	deadline := time.Now().Add(10 * time.Second)
	for smp == nil && time.Now().Before(deadline) {
		s.watchMu.Lock()
		for id, sm := range s.watches {
			runID, smp = id, sm
		}
		s.watchMu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	if smp == nil {
		t.Fatal("run never registered a sampler")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gotSample := make(chan struct{})
	streamDone := make(chan error, 1)
	go func() {
		var once sync.Once
		streamDone <- client.StreamEvents(ctx, runID, func(event string, data []byte) error {
			if event == "search" {
				once.Do(func() { close(gotSample) })
			}
			return nil
		})
	}()
	select {
	case <-gotSample:
	case <-time.After(10 * time.Second):
		t.Fatal("no live search frame arrived")
	}

	// Disconnect: the handler must notice and unsubscribe.
	cancel()
	select {
	case <-streamDone:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end on client disconnect")
	}
	deadline = time.Now().Add(5 * time.Second)
	for smp.Subscribers() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := smp.Subscribers(); got != 0 {
		t.Errorf("subscription leaked after disconnect: %d still attached", got)
	}

	// The engine kept running through all of it.
	if rec, ok := s.Ledger().Get(runID); !ok || rec.Status != "running" {
		t.Errorf("run state after disconnect = %+v", rec)
	}
	s.Close() // cancel the long run
	<-posted
}
