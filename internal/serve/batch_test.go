package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ravbmc/internal/cache"
	"ravbmc/internal/litmus"
)

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
