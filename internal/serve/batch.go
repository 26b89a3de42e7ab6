package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"ravbmc/internal/lang"
)

// BatchRequest is the body of POST /v1/batch: a whole corpus verified
// in one call. Each item is a complete VerifyRequest, run concurrently
// up to the worker count.
type BatchRequest struct {
	Items []VerifyRequest `json:"items"`
	// MinK runs every item through the minimal-K search (/v1/mink
	// semantics) instead of a single verification.
	MinK bool `json:"mink,omitempty"`
	// Stream selects SSE: one "item" frame per completed item (in
	// completion order), then one terminal "batch" frame carrying the
	// same aggregate a non-streaming call returns.
	Stream bool `json:"stream,omitempty"`
}

// BatchItemResult is one item's outcome. Witnesses are represented by
// their SHA-256, so two sweeps of the same corpus produce byte-identical
// rows (timing fields excepted).
type BatchItemResult struct {
	Index   int    `json:"index"`
	Program string `json:"program,omitempty"`
	RunID   string `json:"run_id,omitempty"`
	Status  int    `json:"status"`
	Verdict string `json:"verdict,omitempty"`
	MinK    *int   `json:"min_k,omitempty"`
	States  int    `json:"states,omitempty"`
	// WitnessSHA is the SHA-256 (hex) of the witness JSONL document, set
	// for UNSAFE verdicts; fetch the full witness via a direct
	// /v1/verify of the same item.
	WitnessSHA     string  `json:"witness_sha256,omitempty"`
	Error          string  `json:"error,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// BatchResponse is the batch aggregate. Items are ordered by index
// regardless of completion order.
type BatchResponse struct {
	BatchID string `json:"batch_id"`
	Total   int    `json:"total"`
	// OK is true iff every item succeeded; a single failed item (engine
	// error, timeout, rejection) marks the whole batch.
	OK        bool              `json:"ok"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
	Verdicts  map[string]int    `json:"verdicts,omitempty"`
	Items     []BatchItemResult `json:"items"`
	// ElapsedSeconds is the batch's wall time on the server.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// maxBatchItems bounds one batch; the full litmus corpus is two orders
// of magnitude smaller.
const maxBatchItems = 1024

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.batches.Inc()
	if s.Draining() {
		w.Header().Set("Retry-After", drainRetryAfter)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var breq BatchRequest
	// A batch is many requests in one body; scale the single-request cap
	// rather than inventing a second knob.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16*s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(breq.Items) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no items")
		return
	}
	if len(breq.Items) > maxBatchItems {
		writeError(w, http.StatusUnprocessableEntity,
			"batch has %d items; the cap is %d", len(breq.Items), maxBatchItems)
		return
	}
	batchID := s.ledger.NewBatchID()
	s.log.Info("batch start", "batch_id", batchID, "items", len(breq.Items), "mink", breq.MinK)

	// The batch lives until the client disconnects or the server
	// hard-stops; items carry their own compute deadlines.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.base, cancel)
	defer stop()

	// Streaming setup before the fan-out: headers must be written before
	// the first item completes.
	var emit func(BatchItemResult)
	var fl http.Flusher
	streaming := breq.Stream
	if streaming {
		var ok bool
		if fl, ok = w.(http.Flusher); !ok {
			streaming = false
		} else {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
			w.Header().Set("X-Accel-Buffering", "no")
			w.WriteHeader(http.StatusOK)
			var mu sync.Mutex
			emit = func(res BatchItemResult) {
				mu.Lock()
				defer mu.Unlock()
				sseWrite(w, fl, "item", res)
			}
		}
	}

	// Fan out under the batch semaphore, one slot per worker, so a wide
	// batch never fills the admission queue that direct requests share.
	// Items queue through blocking admission, so a batch wider than the
	// worker pool exerts backpressure by waiting, never by tripping its
	// own items into 429s.
	results := make([]BatchItemResult, len(breq.Items))
	var wg sync.WaitGroup
	for i, item := range breq.Items {
		wg.Add(1)
		go func(i int, item VerifyRequest) {
			defer wg.Done()
			select {
			case s.batchSem <- struct{}{}:
			case <-ctx.Done():
				results[i] = BatchItemResult{
					Index: i, Status: http.StatusServiceUnavailable,
					Error: "batch cancelled: " + ctx.Err().Error(),
				}
				if emit != nil {
					emit(results[i])
				}
				return
			}
			defer func() { <-s.batchSem }()
			results[i] = s.runBatchItem(ctx, batchID, i, item, breq.MinK)
			if emit != nil {
				emit(results[i])
			}
		}(i, item)
	}
	wg.Wait()

	agg := BatchResponse{
		BatchID: batchID, Total: len(results),
		Verdicts: map[string]int{}, Items: results,
		ElapsedSeconds: time.Since(started).Seconds(),
	}
	for i := range results {
		s.batchItems.Inc()
		if results[i].Status == http.StatusOK {
			agg.Succeeded++
			if results[i].Verdict != "" {
				agg.Verdicts[results[i].Verdict]++
			}
		} else {
			agg.Failed++
			s.batchItemFails.Inc()
		}
	}
	agg.OK = agg.Failed == 0
	s.log.Info("batch done", "batch_id", batchID, "total", agg.Total,
		"failed", agg.Failed, "seconds", agg.ElapsedSeconds)
	if streaming {
		sseWrite(w, fl, "batch", agg)
		return
	}
	writeJSON(w, http.StatusOK, agg)
}

// runBatchItem runs one batch item through the same execution path as
// a direct request: its own run ID and ledger entry (stamped with the
// batch ID), with blocking admission.
func (s *Server) runBatchItem(ctx context.Context, batchID string, idx int, item VerifyRequest, mink bool) BatchItemResult {
	itemStart := time.Now()
	s.reqs.Inc()
	rc := s.newRun(endpointName(mink), batchID)
	res := BatchItemResult{Index: idx, RunID: rc.id}
	// Aliases are a per-connection convenience; inside a batch every
	// item is addressed by its minted run ID.
	item.ClientRef = ""
	err := item.validate()
	var prog *lang.Program
	if err == nil {
		prog, err = item.program()
	}
	if err != nil {
		fr := rc.fail(http.StatusUnprocessableEntity, "", "%v", err)
		res.Status, res.Error = fr.status, fr.errMsg
		res.ElapsedSeconds = time.Since(itemStart).Seconds()
		return res
	}
	rc.setRequest(item, prog)
	res.Program = prog.Name

	deadline := s.deadline(item)
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()

	rr := s.execute(ctx, rc, item, prog, mink, deadline, true)
	res.Status = rr.status
	res.Error = rr.errMsg
	if rr.status == http.StatusOK {
		res.Verdict = rr.resp.Verdict
		res.MinK = rr.resp.MinK
		res.States = rr.resp.States
		if len(rr.resp.WitnessJSONL) > 0 {
			sum := sha256.Sum256(rr.resp.WitnessJSONL)
			res.WitnessSHA = hex.EncodeToString(sum[:])
		}
	}
	res.ElapsedSeconds = time.Since(itemStart).Seconds()
	return res
}
