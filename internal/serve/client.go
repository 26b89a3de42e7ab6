package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client speaks the vbmcd API; the zero value is unusable, construct
// with NewClient.
type Client struct {
	// base is the primary endpoint (GETs and streams go here); bases is
	// the full failover list, base first.
	base  string
	bases []string
	http  *http.Client
}

// NewClient targets one vbmcd base URL ("http://host:port") or a
// comma-separated list of them ("http://n1:8080,http://n2:8080"). With
// a list, verification POSTs fail over to the next endpoint when one
// is unreachable or draining — any endpoint can serve any request.
// GETs (version, event streams) use the first endpoint. The HTTP client
// carries no timeout of its own: the per-call context (and the server's
// compute deadline) governs.
func NewClient(base string) *Client {
	var bases []string
	for _, b := range strings.Split(base, ",") {
		if b = strings.TrimSpace(b); b != "" {
			bases = append(bases, strings.TrimRight(b, "/"))
		}
	}
	if len(bases) == 0 {
		bases = []string{""}
	}
	return &Client{base: bases[0], bases: bases, http: &http.Client{}}
}

// Verify runs POST /v1/verify.
func (c *Client) Verify(ctx context.Context, req VerifyRequest) (VerifyResponse, error) {
	return c.post(ctx, "/v1/verify", req)
}

// MinK runs POST /v1/mink.
func (c *Client) MinK(ctx context.Context, req VerifyRequest) (VerifyResponse, error) {
	return c.post(ctx, "/v1/mink", req)
}

// Version fetches the server's toolchain version.
func (c *Client) Version(ctx context.Context) (string, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/version", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var body struct {
		Version string `json:"version"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err != nil {
		return "", err
	}
	return body.Version, nil
}

// ErrRunNotFound reports that the server does not (or no longer) knows
// the run ID or client_ref handed to StreamEvents. Callers racing a
// just-submitted request's alias should retry briefly on it.
var ErrRunNotFound = errors.New("serve: run not found")

// StreamEvents consumes GET /v1/runs/{id}/events, invoking fn once per
// SSE frame with the event name ("search", "phase", "done") and its
// data payload. id may be a run ID or a client_ref alias. It returns
// nil when the stream ends (normally right after the "done" frame),
// ErrRunNotFound on a 404, ctx's error on cancellation, and fn's error
// if fn aborts the stream.
func (c *Client) StreamEvents(ctx context.Context, id string, fn func(event string, data []byte) error) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	hreq.Header.Set("Accept", "text/event-stream")
	resp, err := c.http.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return ErrRunNotFound
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var er ErrorResponse
		if json.Unmarshal(body, &er) == nil && er.Error != "" {
			return fmt.Errorf("server: %s (HTTP %d)", er.Error, resp.StatusCode)
		}
		return fmt.Errorf("server: HTTP %d", resp.StatusCode)
	}
	// Minimal SSE parse: accumulate event/data lines, dispatch on the
	// blank separator line. Comment and id fields are ignored.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" || len(data) > 0 {
				if err := fn(event, data); err != nil {
					return err
				}
			}
			event, data = "", nil
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = append(data, line[len("data: "):]...)
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return sc.Err()
}

// maxResponseBytes caps a reply; witnesses are the only large payload
// and stay far below this.
const maxResponseBytes = 64 << 20

// postAttempts bounds the retry loop: enough patience to ride out a
// drain grace period or a busy burst, finite so dead endpoints
// surface as an error rather than a hang.
const postAttempts = 6

func (c *Client) post(ctx context.Context, path string, req VerifyRequest) (VerifyResponse, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return VerifyResponse{}, err
	}
	// ep rotates through the endpoint list on failover; retries that
	// expect the same endpoint to recover (429 backoff) stay put.
	ep := 0
	var lastErr error
	for attempt := 0; attempt < postAttempts+len(c.bases); attempt++ {
		base := c.bases[ep%len(c.bases)]
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(payload))
		if err != nil {
			return VerifyResponse{}, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := c.http.Do(hreq)
		if err != nil {
			if ctx.Err() != nil {
				return VerifyResponse{}, ctx.Err()
			}
			// Unreachable: fail over when there is somewhere to go.
			lastErr = err
			if len(c.bases) > 1 {
				ep++
				continue
			}
			return VerifyResponse{}, err
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		resp.Body.Close()
		if err != nil {
			return VerifyResponse{}, err
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var vr VerifyResponse
			if err := json.Unmarshal(body, &vr); err != nil {
				return VerifyResponse{}, fmt.Errorf("decode response: %w", err)
			}
			vr.WitnessJSONL = []byte(vr.Witness)
			return vr, nil
		case resp.StatusCode == http.StatusTooManyRequests,
			resp.StatusCode == http.StatusServiceUnavailable:
			// 429 is backpressure, 503 is a draining (or restarting)
			// server; both are transient. With other endpoints to try, a
			// 503 fails over immediately — another endpoint can serve now;
			// otherwise wait out the server's Retry-After (fallback: a
			// growing backoff) and try again.
			lastErr = statusError(body, resp.StatusCode)
			if resp.StatusCode == http.StatusServiceUnavailable && len(c.bases) > 1 {
				ep++
				continue
			}
			wait := time.Duration(attempt+1) * 250 * time.Millisecond
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
				wait = time.Duration(secs) * time.Second
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return VerifyResponse{}, ctx.Err()
			}
		default:
			return VerifyResponse{}, statusError(body, resp.StatusCode)
		}
	}
	return VerifyResponse{}, fmt.Errorf("serve: request failed after %d attempts: %w", postAttempts+len(c.bases), lastErr)
}

// statusError shapes a non-2xx reply into an error, surfacing the
// server's own message when the body carries one.
func statusError(body []byte, status int) error {
	var er ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		return fmt.Errorf("server: %s (HTTP %d)", er.Error, status)
	}
	return fmt.Errorf("server: HTTP %d", status)
}
