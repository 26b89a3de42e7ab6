package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ravbmc/internal/cache"
)

// TestReadyzDrainSplit: /readyz flips to 503 when the drain begins;
// /healthz stays 200 throughout (liveness vs readiness).
func TestReadyzDrainSplit(t *testing.T) {
	s, client := newTestServer(t, Config{Workers: 1})
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(client.base + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz before drain: %d, want 200", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp := get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("/readyz 503 carries no Retry-After")
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while draining: %d, want 200", resp.StatusCode)
	}
}

// cannedVerify answers any POST with a minimal valid VerifyResponse.
func cannedVerify(w http.ResponseWriter, _ *http.Request) {
	json.NewEncoder(w).Encode(VerifyResponse{
		Outcome: cache.Outcome{Verdict: cache.VerdictSafe},
		RunID:   "r-canned-000001", Version: "v-test",
	})
}

// TestClientFailoverDeadEndpoint: with a list, an unreachable first
// endpoint fails over to the second.
func TestClientFailoverDeadEndpoint(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(cannedVerify))
	defer live.Close()
	c := NewClient("http://127.0.0.1:1," + live.URL)
	resp, err := c.Verify(context.Background(), VerifyRequest{Mode: cache.ModeVBMC})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != cache.VerdictSafe {
		t.Errorf("verdict = %q, want SAFE", resp.Verdict)
	}
}

// TestClientRetries503SingleEndpoint: a lone draining endpoint is
// retried after its Retry-After instead of failing outright.
func TestClientRetries503SingleEndpoint(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "server is draining"})
			return
		}
		cannedVerify(w, r)
	}))
	defer ts.Close()
	resp, err := NewClient(ts.URL).Verify(context.Background(), VerifyRequest{Mode: cache.ModeVBMC})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != cache.VerdictSafe {
		t.Errorf("verdict = %q, want SAFE", resp.Verdict)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("endpoint saw %d calls, want 2 (503 then success)", n)
	}
}

// TestClientFailsOver503WithPeers: with several endpoints, a draining
// one is abandoned immediately for the next.
func TestClientFailsOver503WithPeers(t *testing.T) {
	var drainingCalls atomic.Int64
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		drainingCalls.Add(1)
		w.Header().Set("Retry-After", "30") // would stall a non-failover client
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer draining.Close()
	live := httptest.NewServer(http.HandlerFunc(cannedVerify))
	defer live.Close()

	start := time.Now()
	resp, err := NewClient(draining.URL+","+live.URL).Verify(context.Background(), VerifyRequest{Mode: cache.ModeVBMC})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != cache.VerdictSafe {
		t.Errorf("verdict = %q, want SAFE", resp.Verdict)
	}
	if drainingCalls.Load() == 0 {
		t.Error("draining endpoint never tried")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("failover took %s; Retry-After was not bypassed", elapsed)
	}
}
