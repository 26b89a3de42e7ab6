package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"ravbmc/internal/cache"
)

// FuzzVerifyRequest feeds arbitrary bytes to the request decoding the
// /v1/verify, /v1/mink and /v1/batch handlers do — a strict JSON decode
// into VerifyRequest or BatchRequest, then validate and program — and
// keys every request that survives through Cache.Do (normalization,
// canonical form, digests) with a stub run. Each input must end in an
// error or a request, never a panic. Seeds are in
// testdata/fuzz/FuzzVerifyRequest.
func FuzzVerifyRequest(f *testing.F) {
	c, err := cache.New(cache.Config{Version: "v-fuzz"})
	if err != nil {
		f.Fatal(err)
	}
	defer c.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req VerifyRequest
		if decodeStrict(body, &req) == nil {
			fuzzKey(t, c, req)
		}
		var breq BatchRequest
		if decodeStrict(body, &breq) == nil && len(breq.Items) <= maxBatchItems {
			for _, item := range breq.Items {
				fuzzKey(t, c, item)
			}
		}
	})
}

// decodeStrict decodes one JSON value as the handlers do.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// fuzzKey takes one decoded request as far as the handler would before
// running an engine.
func fuzzKey(t *testing.T, c *cache.Cache, req VerifyRequest) {
	if req.validate() != nil {
		return
	}
	prog, err := req.program()
	if err != nil {
		if prog != nil {
			t.Fatalf("program() returned both a program and %v", err)
		}
		return
	}
	if prog == nil {
		t.Fatal("program() returned neither a program nor an error")
	}
	ran := false
	out, err := c.Do(context.Background(), req.cacheRequest(prog), func(_ context.Context, r cache.Request) (cache.Outcome, error) {
		ran = true
		if r.Prog == nil || r.Mode != req.Mode {
			t.Fatalf("run got request %+v from %+v", r, req)
		}
		return cache.Outcome{Verdict: cache.VerdictInconclusive}, nil
	})
	if err != nil {
		t.Fatalf("valid request %+v: %v", req, err)
	}
	// Inconclusive outcomes are never stored, so every call must miss.
	if !ran || out.Cached {
		t.Fatalf("valid request %+v: answered without running (%+v)", req, out)
	}
}
