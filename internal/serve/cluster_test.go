package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ravbmc/internal/cache"
	"ravbmc/internal/cluster"
	"ravbmc/internal/litmus"
)

// clusterNode is one in-process vbmcd node of a test cluster: its own
// cache, cluster view and HTTP listener on a real loopback port.
type clusterNode struct {
	id   string
	url  string
	s    *Server
	cl   *cluster.Cluster
	kill func() // closes the node's HTTP server (simulated death)
}

// newTestClusterNodes builds n nodes sharing one static peer list. The
// prober is started only when probe > 0, so most tests drive peer state
// deterministically with MarkDown/MarkDraining.
func newTestClusterNodes(t *testing.T, n int, probe time.Duration) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i+1), URL: "http://" + ln.Addr().String()}
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		c, err := cache.New(cache.Config{Version: "v-test"})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{
			Self: peers[i].ID, Peers: peers,
			Probe: cluster.ProbeConfig{Interval: probe},
		})
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Cache: c, Workers: 2, Cluster: cl})
		srv := &http.Server{Handler: s.Handler()}
		go srv.Serve(lns[i])
		if probe > 0 {
			cl.Start()
		}
		var killed atomic.Bool
		kill := func() {
			if killed.CompareAndSwap(false, true) {
				srv.Close()
			}
		}
		nodes[i] = &clusterNode{id: peers[i].ID, url: peers[i].URL, s: s, cl: cl, kill: kill}
		t.Cleanup(func() {
			cl.Stop()
			kill()
			s.Close()
			c.Close()
		})
	}
	return nodes
}

// requestOwnedBy scans the litmus corpus for a request whose cache key
// the given node owns, as computed by from's ring (every ring agrees).
// unsafeOnly restricts the scan to oracle-UNSAFE programs, for tests
// that must observe a witness document.
func requestOwnedBy(t *testing.T, from *clusterNode, owner string, unsafeOnly bool) VerifyRequest {
	t.Helper()
	for _, tc := range litmus.Classic() {
		if unsafeOnly && !litmus.Oracle(tc) {
			continue
		}
		for k := 3; k <= 6; k++ {
			req := VerifyRequest{Program: progSrc(tc.Prog), Mode: cache.ModeVBMC, K: k}
			prog, err := req.program()
			if err != nil {
				t.Fatal(err)
			}
			got, _ := from.cl.Owner(from.s.cfg.Cache.Key(req.cacheRequest(prog)))
			if got == owner {
				return req
			}
		}
	}
	t.Fatalf("no litmus request owned by %s", owner)
	return VerifyRequest{}
}

// TestClusterForwardToOwner: a request whose key another node owns is
// forwarded there; the response and both ledgers carry the owner's ID.
func TestClusterForwardToOwner(t *testing.T) {
	nodes := newTestClusterNodes(t, 3, 0)
	n1 := nodes[0]
	req := requestOwnedBy(t, n1, "n2", false)

	resp, err := NewClient(n1.url).Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Node != "n2" {
		t.Errorf("response node = %q, want n2", resp.Node)
	}
	if st := n1.cl.Stats(); st.Forwards == 0 {
		t.Errorf("n1 forwards = 0, want > 0")
	}
	// n1's ledger: a record forwarded to n2, disposition "forwarded".
	var fwd *RunRecord
	for _, rr := range n1.s.ledger.Recent(0) {
		if rr.Cache == "forwarded" {
			rr := rr
			fwd = &rr
		}
	}
	if fwd == nil {
		t.Fatal("n1 ledger has no forwarded record")
	}
	if fwd.Node != "n2" {
		t.Errorf("forwarded record node = %q, want n2", fwd.Node)
	}
	// n2's ledger holds the run named in the response, served locally.
	rr, ok := nodes[1].s.ledger.Get(resp.RunID)
	if !ok {
		t.Fatalf("n2 ledger does not know run %s", resp.RunID)
	}
	if rr.Node != "n2" || rr.Status != "done" {
		t.Errorf("n2 record = node %q status %q, want n2/done", rr.Node, rr.Status)
	}
}

// TestClusterRoutingParity: verdicts through a 3-node cluster equal the
// oracle, whichever node owns each key. A corpus slice keeps the run
// short — full-corpus byte-parity against a solo daemon is
// scripts/cluster_smoke.sh's job.
func TestClusterRoutingParity(t *testing.T) {
	nodes := newTestClusterNodes(t, 3, 0)
	client := NewClient(nodes[0].url)
	tests := litmus.Classic()
	if len(tests) > 10 {
		tests = tests[:10]
	}
	for _, tc := range tests {
		want := cache.VerdictSafe
		if litmus.Oracle(tc) {
			want = cache.VerdictUnsafe
		}
		resp, err := client.Verify(context.Background(), VerifyRequest{
			Program: progSrc(tc.Prog), Mode: cache.ModeVBMC, K: 5,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		if resp.Verdict != want {
			t.Errorf("%s: verdict %s, want %s (%.1f s, %d states)",
				tc.Name, resp.Verdict, want, resp.ElapsedSeconds, resp.States)
		}
	}
	var forwards int64
	for _, n := range nodes {
		forwards += n.cl.Stats().Forwards
	}
	if forwards == 0 {
		t.Error("no request was forwarded across the whole corpus")
	}
}

// TestPeerCacheFill: with the owner draining (so requests are not
// forwarded), a local miss is answered from the owner's cache, and the
// peer-filled result is memoized locally.
func TestPeerCacheFill(t *testing.T) {
	nodes := newTestClusterNodes(t, 2, 0)
	n1, n2 := nodes[0], nodes[1]
	req := requestOwnedBy(t, n1, "n2", true)

	// Warm the owner, then stop n1 from forwarding to it.
	warm, err := NewClient(n2.url).Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	n1.cl.MarkDraining("n2")

	resp, err := NewClient(n1.url).Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Node != "n1" {
		t.Errorf("response node = %q, want n1 (local fallback)", resp.Node)
	}
	// The filled outcome is the owner's, witness document included —
	// an UNSAFE fill without its witness bytes would be a silent loss.
	if resp.Verdict != warm.Verdict || resp.Witness != warm.Witness {
		t.Errorf("peer-filled outcome differs from the owner's: verdict %s/%s, witness %d/%d bytes",
			resp.Verdict, warm.Verdict, len(resp.Witness), len(warm.Witness))
	}
	rr, ok := n1.s.ledger.Get(resp.RunID)
	if !ok {
		t.Fatalf("n1 ledger does not know run %s", resp.RunID)
	}
	if rr.Cache != "peer" {
		t.Errorf("cache disposition = %q, want peer", rr.Cache)
	}
	if st := n1.cl.Stats(); st.PeerFillHits != 1 {
		t.Errorf("n1 peer fill hits = %d, want 1", st.PeerFillHits)
	}
	if st := n2.cl.Stats(); st.PeerFillServed != 1 {
		t.Errorf("n2 peer fills served = %d, want 1", st.PeerFillServed)
	}

	// The filled outcome was stored locally: a repeat is a plain hit.
	resp2, err := NewClient(n1.url).Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Error("second request after a peer fill not served from the local cache")
	}
	if resp.Verdict != resp2.Verdict {
		t.Errorf("verdict changed across fill/hit: %s vs %s", resp.Verdict, resp2.Verdict)
	}
}

// TestPeerCacheFillMiss: a cold owner cache reports a miss and the
// request is computed locally — the fill path never fabricates answers.
func TestPeerCacheFillMiss(t *testing.T) {
	nodes := newTestClusterNodes(t, 2, 0)
	n1 := nodes[0]
	req := requestOwnedBy(t, n1, "n2", false)
	n1.cl.MarkDraining("n2")

	resp, err := NewClient(n1.url).Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	rr, _ := n1.s.ledger.Get(resp.RunID)
	if rr.Cache == "peer" {
		t.Error("cold owner cache reported as a peer fill")
	}
	if st := n1.cl.Stats(); st.PeerFillMisses != 1 {
		t.Errorf("n1 peer fill misses = %d, want 1", st.PeerFillMisses)
	}
}

// TestBatchPartialFailure: one item with an already-expired deadline
// fails; the remaining items complete, the aggregate marks the batch
// failed, and every item owns a ledger entry stamped with the batch ID.
func TestBatchPartialFailure(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	tests := litmus.Classic()
	items := []VerifyRequest{
		{Program: progSrc(tests[0].Prog), Mode: cache.ModeVBMC, K: 4},
		{Program: progSrc(tests[1].Prog), Mode: cache.ModeVBMC, K: 4},
		// An effectively-zero compute deadline: expired before admission.
		{Program: progSrc(tests[2].Prog), Mode: cache.ModeVBMC, K: 4, TimeoutSeconds: 1e-9},
		{Program: progSrc(tests[3].Prog), Mode: cache.ModeVBMC, K: 4},
	}
	resp := postBatch(t, s, BatchRequest{Items: items})

	if resp.OK {
		t.Error("aggregate OK despite a failed item")
	}
	if resp.Total != len(items) {
		t.Fatalf("total = %d, want %d", resp.Total, len(items))
	}
	if resp.Failed != 1 || resp.Succeeded != len(items)-1 {
		t.Errorf("failed/succeeded = %d/%d, want 1/%d", resp.Failed, resp.Succeeded, len(items)-1)
	}
	for _, it := range resp.Items {
		if it.Index == 2 {
			if it.Status == http.StatusOK {
				t.Error("expired item reported OK")
			}
			continue
		}
		if it.Status != http.StatusOK {
			t.Errorf("item %d status = %d, want 200 (%s)", it.Index, it.Status, it.Error)
		}
	}
	// Every item minted its own ledger entry carrying the batch ID.
	var inBatch int
	for _, rr := range s.ledger.Recent(0) {
		if rr.Batch == resp.BatchID {
			inBatch++
		}
	}
	if inBatch != len(items) {
		t.Errorf("%d ledger records carry batch %s, want %d", inBatch, resp.BatchID, len(items))
	}
}

// TestBatchPeerDeathMidSweep: a peer that dies without warning is
// marked down on the first failed forward and its items complete
// locally — the sweep still succeeds.
func TestBatchPeerDeathMidSweep(t *testing.T) {
	nodes := newTestClusterNodes(t, 2, 0)
	n1, n2 := nodes[0], nodes[1]
	owned := requestOwnedBy(t, n1, "n2", false)
	n2.kill()

	tests := litmus.Classic()
	items := []VerifyRequest{
		owned,
		{Program: progSrc(tests[0].Prog), Mode: cache.ModeVBMC, K: 4},
		{Program: progSrc(tests[1].Prog), Mode: cache.ModeVBMC, K: 4},
	}
	resp := postBatch(t, n1.s, BatchRequest{Items: items})
	if !resp.OK {
		t.Errorf("batch not OK after peer death: %d failed", resp.Failed)
		for _, it := range resp.Items {
			if it.Status != http.StatusOK {
				t.Logf("item %d: status %d: %s", it.Index, it.Status, it.Error)
			}
		}
	}
	if st := n1.cl.Stats(); st.ForwardFallbacks == 0 && st.Forwards == 0 {
		t.Error("no forward was attempted or fallen back from")
	}
	if n1.cl.State("n2") != cluster.StateDown {
		t.Errorf("n2 state = %v, want Down after a failed forward", n1.cl.State("n2"))
	}
}

// postBatch POSTs /v1/batch through the real handler stack.
func postBatch(t *testing.T, s *Server, breq BatchRequest) BatchResponse {
	t.Helper()
	payload, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(string(payload)))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch HTTP %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBatchStreaming: stream=true yields one "item" frame per item and
// a terminal "batch" frame whose aggregate matches the item frames.
func TestBatchStreaming(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tests := litmus.Classic()
	breq := BatchRequest{Stream: true, Items: []VerifyRequest{
		{Program: progSrc(tests[0].Prog), Mode: cache.ModeVBMC, K: 4},
		{Program: progSrc(tests[1].Prog), Mode: cache.ModeVBMC, K: 4},
	}}
	payload, _ := json.Marshal(breq)
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}
	var items int
	var agg *BatchResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "item":
				items++
			case "batch":
				agg = new(BatchResponse)
				if err := json.Unmarshal([]byte(line[len("data: "):]), agg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if items != len(breq.Items) {
		t.Errorf("item frames = %d, want %d", items, len(breq.Items))
	}
	if agg == nil {
		t.Fatal("no terminal batch frame")
	}
	if !agg.OK || agg.Total != len(breq.Items) || len(agg.Items) != len(breq.Items) {
		t.Errorf("aggregate = ok %v total %d items %d", agg.OK, agg.Total, len(agg.Items))
	}
}

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

// TestForwardedRequestNotReforwarded: a request carrying the forwarded
// header is served where it lands, even by a non-owner — the one-hop
// guarantee that makes routing loop-free.
func TestForwardedRequestNotReforwarded(t *testing.T) {
	nodes := newTestClusterNodes(t, 2, 0)
	n1 := nodes[0]
	req := requestOwnedBy(t, n1, "n2", false)
	payload, _ := json.Marshal(req)
	hreq, _ := http.NewRequest(http.MethodPost, n1.url+"/v1/verify", strings.NewReader(string(payload)))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Ravbmc-Forwarded-From", "n2")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if vr.Node != "n1" {
		t.Errorf("forwarded request served by %q, want n1 (no re-forward)", vr.Node)
	}
	if st := n1.cl.Stats(); st.Forwards != 0 {
		t.Errorf("n1 re-forwarded a forwarded request (%d forwards)", st.Forwards)
	}
}

// TestForwardCallerGivesUpOwnerStaysUp: a forward cut short by the
// caller's own context (its deadline, or a client disconnect) says
// nothing about the owner, which must stay Up; a forward to an owner
// that refuses connections still marks it Down.
func TestForwardCallerGivesUpOwnerStaysUp(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer slow.Close()
	defer close(release)
	cl, err := cluster.New(cluster.Config{Self: "n1", Peers: []cluster.Peer{
		{ID: "n1", URL: "http://127.0.0.1:1"}, {ID: "n2", URL: slow.URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Config{Version: "v-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := New(Config{Cache: c, Workers: 1, Cluster: cl})
	defer s.Close()
	req := VerifyRequest{Bench: "dekker", Mode: cache.ModeVBMC, K: 2, Unroll: 2}

	deadlineCtx, cancelDeadline := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancelDeadline()
	if _, _, err := s.forward(deadlineCtx, "n2", "/v1/verify", req); err == nil {
		t.Fatal("forward to a stalled owner returned before the caller's deadline")
	}
	if st := cl.State("n2"); st != cluster.StateUp {
		t.Errorf("after the caller's deadline: owner state %v, want up", st)
	}

	disconnectCtx, disconnect := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, disconnect)
	if _, _, err := s.forward(disconnectCtx, "n2", "/v1/verify", req); err == nil {
		t.Fatal("forward to a stalled owner returned before the caller disconnected")
	}
	if st := cl.State("n2"); st != cluster.StateUp {
		t.Errorf("after a caller disconnect: owner state %v, want up", st)
	}

	// A dead owner (connection refused) with the caller still waiting
	// is still demoted at once.
	dead, err := cluster.New(cluster.Config{Self: "n1", Peers: []cluster.Peer{
		{ID: "n1", URL: "http://127.0.0.1:1"}, {ID: "n2", URL: "http://127.0.0.1:1"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Cache: c, Workers: 1, Cluster: dead})
	defer s2.Close()
	if _, _, err := s2.forward(context.Background(), "n2", "/v1/verify", req); err == nil {
		t.Fatal("forward to a refused port succeeded")
	}
	if st := dead.State("n2"); st != cluster.StateDown {
		t.Errorf("after a refused connection: owner state %v, want down", st)
	}
}

// TestProberRecoversKilledPeer: end-to-end state machine — a killed
// peer goes Down within a few probe rounds; restarting it on the same
// address brings it back Up.
func TestProberRecoversKilledPeer(t *testing.T) {
	nodes := newTestClusterNodes(t, 2, 50*time.Millisecond)
	n1, n2 := nodes[0], nodes[1]
	waitState := func(want cluster.PeerState) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if n1.cl.State("n2") == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("n2 never reached %v (now %v)", want, n1.cl.State("n2"))
	}
	waitState(cluster.StateUp)
	n2.kill()
	waitState(cluster.StateDown)

	// Rebind the same address with a fresh healthy handler: the next
	// good probe promotes the peer without any manual reset.
	addr := strings.TrimPrefix(n2.url, "http://")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv := &http.Server{Handler: n2.s.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	waitState(cluster.StateUp)
}
