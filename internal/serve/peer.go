package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"ravbmc/internal/cache"
	"ravbmc/internal/cluster"
	"ravbmc/internal/lang"
)

// forwardedHeader marks a request already routed once by a peer.
// Static identical membership means every node computes the same owner,
// so a forwarded request is by construction at its owner (or at a node
// that must serve it locally) — receivers never re-forward, and the
// cluster can never route in circles.
const forwardedHeader = "X-Ravbmc-Forwarded-From"

// forwardAttempts bounds how many times a forward re-tries the owner's
// 429 backpressure before giving up and running locally.
const forwardAttempts = 3

// peerFillTimeout bounds the owner-cache detour before a cold compute:
// a fill probe is worth about a second of patience, not the request's
// whole deadline — past that, computing locally is the better spend.
const peerFillTimeout = 2 * time.Second

// nodeID returns this node's cluster ID ("" when running solo).
func (s *Server) nodeID() string {
	if s.cfg.Cluster == nil {
		return ""
	}
	return s.cfg.Cluster.Self()
}

// forwardTarget decides routing: the owner's ID when this request
// should be forwarded, ok=false when it runs locally — because there is
// no cluster, this node owns the key, the request was already forwarded
// once, or the owner is not Up (draining and down owners shed their
// load onto whoever holds the request).
func (s *Server) forwardTarget(req VerifyRequest, prog *lang.Program, forwarded bool) (string, bool) {
	cl := s.cfg.Cluster
	if cl == nil || forwarded {
		return "", false
	}
	owner, self := cl.Owner(s.cfg.Cache.Key(req.cacheRequest(prog)))
	if self {
		return "", false
	}
	if cl.State(owner) != cluster.StateUp {
		cl.CountForwardFallback()
		return "", false
	}
	return owner, true
}

// retryAfterDuration resolves a Retry-After header (delta-seconds form)
// against a fallback backoff.
func retryAfterDuration(header string, fallback time.Duration) time.Duration {
	if secs, err := strconv.Atoi(header); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return fallback
}

// errPeerUnavailable reports that the owner answered but cannot take
// the work right now (draining, or busy past our retry patience) — the
// caller should run locally.
type peerUnavailableError struct{ status int }

func (e *peerUnavailableError) Error() string {
	return "peer unavailable (HTTP " + strconv.Itoa(e.status) + ")"
}

// markDownUnlessCancelled demotes the owner after a failed peer call,
// unless the call failed because its own context ended (the caller's
// deadline, a client disconnect, the fill budget): giving up on a slow
// owner says nothing about its health.
func markDownUnlessCancelled(ctx context.Context, cl *cluster.Cluster, owner string) {
	if ctx.Err() == nil {
		cl.MarkDown(owner)
	}
}

// forward posts the request to the owner node, honouring its
// backpressure: 429 is retried with backoff (Retry-After respected, a
// few attempts), 503 marks the owner draining and returns an error so
// the caller falls back to local execution, connection failures mark it
// down ditto (unless ctx itself ended first). Any other status is the
// owner's authoritative answer.
func (s *Server) forward(ctx context.Context, owner, path string, req VerifyRequest) (status int, body []byte, err error) {
	cl := s.cfg.Cluster
	// The alias binds on the node the client spoke to; the owner minting
	// its own would steal the ref to a record the client can't predict.
	req.ClientRef = ""
	payload, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	url := cl.PeerURL(owner) + path
	for attempt := 0; ; attempt++ {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
		if err != nil {
			return 0, nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set(forwardedHeader, cl.Self())
		resp, err := s.peerHTTP.Do(hreq)
		if err != nil {
			markDownUnlessCancelled(ctx, cl, owner)
			return 0, nil, err
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		resp.Body.Close()
		if rerr != nil {
			markDownUnlessCancelled(ctx, cl, owner)
			return 0, nil, rerr
		}
		switch {
		case resp.StatusCode == http.StatusServiceUnavailable:
			cl.MarkDraining(owner)
			return 0, nil, &peerUnavailableError{status: resp.StatusCode}
		case resp.StatusCode == http.StatusTooManyRequests && attempt+1 < forwardAttempts:
			cl.CountForwardRetry()
			wait := retryAfterDuration(resp.Header.Get("Retry-After"),
				time.Duration(attempt+1)*200*time.Millisecond)
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return 0, nil, ctx.Err()
			}
		case resp.StatusCode == http.StatusTooManyRequests:
			// Busy past our patience: this node's own queue is as good.
			return 0, nil, &peerUnavailableError{status: resp.StatusCode}
		default:
			return resp.StatusCode, body, nil
		}
	}
}

// forwardRun forwards the request to its owner and seals this node's
// ledger record from the owner's reply. ok=false means the owner could
// not take it — fall back to runLocal. body is the owner's raw reply,
// for handlers that relay it byte-for-byte.
func (s *Server) forwardRun(ctx context.Context, rc *runCtx, owner, path string, req VerifyRequest) (res runResult, body []byte, ok bool) {
	cl := s.cfg.Cluster
	cl.CountForward()
	span := rc.rec.StartPhase("forward")
	span.SetAttr("owner", owner)
	status, body, err := s.forward(ctx, owner, path, req)
	span.End()
	if err != nil {
		cl.CountForwardFallback()
		s.log.Warn("forward failed; running locally",
			"run_id", rc.id, "owner", owner, "err", err)
		return runResult{}, nil, false
	}
	s.ledger.Update(rc.id, func(rr *RunRecord) { rr.Node = owner })
	res = runResult{status: status}
	if status == http.StatusOK {
		var vr VerifyResponse
		if jerr := json.Unmarshal(body, &vr); jerr == nil {
			vr.WitnessJSONL = []byte(vr.Witness)
			res.resp = vr
		}
	} else {
		var er ErrorResponse
		json.Unmarshal(body, &er)
		res.errMsg = er.Error
	}
	rc.finish(status, res.resp.Verdict, "forwarded", res.resp.States, res.errMsg)
	return res, body, true
}

// verifyFill is the cluster-aware Cache.Verify: on a local miss whose
// key another node owns, that owner's cache is consulted before the
// engines run — warm results replicate across the cluster instead of
// recomputing. The probe happens inside the cache's singleflight, so
// concurrent identical misses cost one fill round-trip, and a cacheable
// peer outcome is memoized locally like any computed one. filled
// reports that the answer came from the owner's cache.
func (s *Server) verifyFill(ctx context.Context, cr cache.Request, xc cache.ExecConfig) (out cache.Outcome, filled bool, err error) {
	cl := s.cfg.Cluster
	if cl == nil {
		out, err = s.cfg.Cache.Verify(ctx, cr, xc)
		return out, false, err
	}
	out, err = s.cfg.Cache.Do(ctx, cr, func(ctx context.Context, r cache.Request) (cache.Outcome, error) {
		d := s.cfg.Cache.Key(r)
		// Draining owners still answer cache reads — their memory stays
		// warm until the process exits — so only Down is skipped.
		if owner, self := cl.Owner(d); !self && cl.State(owner) != cluster.StateDown {
			if got, ok := s.peerCacheGet(ctx, owner, d); ok {
				filled = true
				return got, nil
			}
		}
		return cache.Execute(ctx, r, xc)
	})
	return out, filled, err
}

// peerOutcome is the /v1/cache/{key} wire form: a cache.Outcome plus
// its witness document, which Outcome itself deliberately never
// marshals (clients get witnesses via VerifyResponse.Witness). Without
// the explicit field a peer-filled UNSAFE would arrive witnessless.
type peerOutcome struct {
	cache.Outcome
	WitnessJSONL []byte `json:"witness_jsonl,omitempty"`
}

// peerCacheGet asks the owner's cache for the digest over the internal
// GET /v1/cache/{key} endpoint. Misses of every kind — 404, transport
// failure, undecodable body — report ok=false and the caller computes.
func (s *Server) peerCacheGet(ctx context.Context, owner string, d cache.Digest) (cache.Outcome, bool) {
	cl := s.cfg.Cluster
	ctx, cancel := context.WithTimeout(ctx, peerFillTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		cl.PeerURL(owner)+"/v1/cache/"+d.Hex(), nil)
	if err != nil {
		return cache.Outcome{}, false
	}
	resp, err := s.peerHTTP.Do(hreq)
	if err != nil {
		cl.CountFillMiss()
		markDownUnlessCancelled(ctx, cl, owner)
		return cache.Outcome{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		cl.CountFillMiss()
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return cache.Outcome{}, false
	}
	var po peerOutcome
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxResponseBytes)).Decode(&po); err != nil {
		cl.CountFillMiss()
		return cache.Outcome{}, false
	}
	out := po.Outcome
	out.WitnessJSONL = po.WitnessJSONL
	cl.CountFillHit()
	return out, true
}

// handleCacheGet serves GET /v1/cache/{key}: the peer cache-fill read.
// Deliberately exempt from the drain check — a draining node's cache is
// exactly what its peers need while they absorb its load.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	d, err := cache.ParseDigest(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed cache key: %v", err)
		return
	}
	out, ok := s.cfg.Cache.GetByDigest(d)
	if !ok {
		writeError(w, http.StatusNotFound, "no entry for key")
		return
	}
	if cl := s.cfg.Cluster; cl != nil {
		cl.CountFillServed()
	}
	writeJSON(w, http.StatusOK, peerOutcome{Outcome: out, WitnessJSONL: out.WitnessJSONL})
}

// handleReadyz serves GET /readyz: readiness, distinct from /healthz
// liveness. A draining node is alive (healthz 200) but not ready
// (readyz 503) — load balancers and the cluster prober key off this.
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
