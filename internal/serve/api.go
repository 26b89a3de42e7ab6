// Package serve is the verification service: an HTTP/JSON front end
// over the content-addressed result cache (internal/cache) and the
// engine dispatcher, with bounded admission, per-request deadlines and
// graceful drain. cmd/vbmcd wraps it in a process; cmd/vbmc -remote
// speaks to it with the Client in this package.
package serve

import (
	"fmt"
	"strings"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/cache"
	"ravbmc/internal/lang"
	"ravbmc/internal/parser"
)

// VerifyRequest is the body of POST /v1/verify and /v1/mink. Exactly
// one of Program (concrete syntax) and Bench (internal/benchmarks
// name, e.g. "peterson" or "lamport_1(3)") selects the program.
type VerifyRequest struct {
	Program string `json:"program,omitempty"`
	Bench   string `json:"bench,omitempty"`
	// Mode is one of the cache.Modes() verification modes.
	Mode string `json:"mode"`
	// K is the view-switch bound (vbmc, rak, portfolio; /v1/mink uses
	// it as the starting bound, default 0).
	K int `json:"k,omitempty"`
	// MaxK is /v1/mink's largest bound to try (default 8).
	MaxK int `json:"max_k,omitempty"`
	// Unroll is the loop bound; required for programs with loops.
	Unroll int `json:"unroll,omitempty"`
	// MaxContexts, MaxStates and ExactDedup mirror cache.Request.
	MaxContexts int  `json:"max_contexts,omitempty"`
	MaxStates   int  `json:"max_states,omitempty"`
	ExactDedup  bool `json:"exact_dedup,omitempty"`
	// TimeoutSeconds is this request's compute deadline; 0 selects the
	// server default, and the server cap applies either way.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// ClientRef is an optional caller-chosen alias for this run (max 64
	// chars of [A-Za-z0-9._-]). The server binds it to the minted run ID
	// in the ledger, so the caller can GET /v1/runs/{client_ref}/events
	// and watch the run live before the verify response returns the ID.
	ClientRef string `json:"client_ref,omitempty"`
}

// VerifyResponse is the body of a successful verification reply.
type VerifyResponse struct {
	cache.Outcome
	// Witness is the ravbmc.witness/v1 JSONL document for UNSAFE
	// verdicts (empty otherwise).
	Witness string `json:"witness_jsonl,omitempty"`
	// MinK is set by /v1/mink: the smallest bound with an UNSAFE
	// verdict, or -1 when every bound up to MaxK was SAFE.
	MinK *int `json:"min_k,omitempty"`
	// RunID names this request's entry in the run ledger; the same ID
	// appears in the server's request log and exported span trees, so
	// `GET /v1/runs/{run_id}` retrieves the full timing breakdown.
	RunID string `json:"run_id"`
	// Version is the server's toolchain version (the one in the cache
	// key); ElapsedSeconds is this request's wall time in the handler.
	Version        string  `json:"version"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// program resolves the request's program, parsing source or resolving
// the benchmark name.
func (r *VerifyRequest) program() (*lang.Program, error) {
	switch {
	case r.Program != "" && r.Bench != "":
		return nil, fmt.Errorf("request has both program and bench; send one")
	case r.Program != "":
		p, err := parser.Parse(r.Program)
		if err != nil {
			return nil, fmt.Errorf("parse program: %w", err)
		}
		return p, nil
	case r.Bench != "":
		p, err := benchmarks.ByName(r.Bench)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	return nil, fmt.Errorf("request has neither program nor bench")
}

// validate checks the verdict-relevant fields common to both endpoints.
func (r *VerifyRequest) validate() error {
	if !cache.ValidMode(r.Mode) {
		return fmt.Errorf("unknown mode %q (valid: %s)", r.Mode, strings.Join(cache.Modes(), ", "))
	}
	if r.K < 0 || r.MaxK < 0 || r.Unroll < 0 || r.MaxContexts < 0 || r.MaxStates < 0 {
		return fmt.Errorf("bounds must be non-negative")
	}
	if r.TimeoutSeconds < 0 {
		return fmt.Errorf("timeout_seconds must be non-negative")
	}
	if err := validateClientRef(r.ClientRef); err != nil {
		return err
	}
	return nil
}

// validateClientRef bounds the caller-chosen run alias: it lands in
// URLs, logs and the ledger, so only a short, URL-safe charset passes.
func validateClientRef(ref string) error {
	if ref == "" {
		return nil
	}
	if len(ref) > 64 {
		return fmt.Errorf("client_ref exceeds 64 characters")
	}
	for _, c := range ref {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("client_ref may contain only letters, digits, '.', '_' and '-'")
		}
	}
	return nil
}

// cacheRequest converts to the cache's request form.
func (r *VerifyRequest) cacheRequest(prog *lang.Program) cache.Request {
	return cache.Request{
		Prog:        prog,
		Mode:        r.Mode,
		K:           r.K,
		Unroll:      r.Unroll,
		MaxContexts: r.MaxContexts,
		MaxStates:   r.MaxStates,
		ExactDedup:  r.ExactDedup,
	}
}
