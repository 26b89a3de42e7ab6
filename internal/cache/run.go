package cache

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"ravbmc/internal/core"
	"ravbmc/internal/diff"
	"ravbmc/internal/lang"
	"ravbmc/internal/obs"
	"ravbmc/internal/ra"
	"ravbmc/internal/smc"
	"ravbmc/internal/trace"
)

// ExecConfig carries the resource parameters of one execution — the
// knobs that shape how a run spends time, never what it decides, and
// that therefore stay out of the cache key.
type ExecConfig struct {
	// Timeout caps the run's wall clock (0 = none); the surrounding
	// context's deadline applies as well.
	Timeout time.Duration
	// Jobs is the portfolio's pool width (<= 0 selects runtime.NumCPU);
	// the single-engine modes run serially inside their worker slot.
	Jobs int
	// SearchWorkers is the work-stealing pool width inside a single
	// search (core.Options.Workers / ra.Options.Workers): 0 and 1 run
	// one depth-first worker, n > 1 runs n workers, negative selects
	// runtime.NumCPU. Verdict-neutral, so it stays out of the
	// cache key like every other ExecConfig knob.
	SearchWorkers int
	// Reduce turns on source-DPOR in the vbmc mode's SC backend
	// (core.Options.Reduce). Verdict-neutral — only representative
	// interleavings are pruned — so it stays out of the cache key.
	Reduce bool
	// TMAI enables the thread-modular pre-pass in the vbmc mode
	// (core.Options.TMAI). Any verdict it produces is correct for the
	// requested K (an unbounded proof answers every bound), so it too
	// stays out of the key; an unbounded SAFE it proves is stored with
	// Outcome.Unbounded and subsumes every later K.
	TMAI bool
	// Obs, when non-nil, instruments the run.
	Obs *obs.Recorder
}

// Verify answers the request through the cache, executing the engines
// on a miss: the memoizing entry point the daemon, the tables harness
// and the thin client share. On the nil cache it just executes.
func (c *Cache) Verify(ctx context.Context, req Request, x ExecConfig) (Outcome, error) {
	return c.Do(ctx, req, func(ctx context.Context, r Request) (Outcome, error) {
		return Execute(ctx, r, x)
	})
}

// Execute runs the engine the request's mode selects and converts its
// result to an Outcome. It does not consult any cache; use Verify for
// the memoized path. The program is cloned first: the engines label
// and unroll in place, and the caller's copy must stay pristine for
// key canonicalisation and reuse.
func Execute(ctx context.Context, req Request, x ExecConfig) (Outcome, error) {
	start := time.Now()
	span := x.Obs.StartPhase("engine")
	span.SetAttr("mode", req.Mode)
	span.SetAttrInt("k", int64(req.K))
	out, err := execute(ctx, req, x)
	span.End()
	out.Seconds = time.Since(start).Seconds()
	return out, err
}

func execute(ctx context.Context, req Request, x ExecConfig) (Outcome, error) {
	prog := req.Prog.Clone()
	switch req.Mode {
	case ModeVBMC:
		res, err := core.Run(prog, core.Options{
			K: req.K, Unroll: req.Unroll, MaxContexts: req.MaxContexts,
			MaxStates: req.MaxStates, Timeout: x.Timeout, Ctx: ctx,
			ExactDedup: req.ExactDedup, Workers: x.SearchWorkers,
			Reduce: x.Reduce, TMAI: x.TMAI, Obs: x.Obs,
		})
		if err != nil {
			return Outcome{}, err
		}
		out := Outcome{
			Verdict:          res.Verdict.String(),
			States:           res.States,
			Transitions:      int64(res.Transitions),
			TranslatedStmts:  res.TranslatedStmts,
			ContextBound:     res.ContextBound,
			WitnessValidated: res.WitnessValidated,
			Unbounded:        res.Unbounded,
		}
		if res.Verdict == core.Unsafe {
			engine, w := "replay", res.Witness
			if w == nil {
				engine, w = "sc", res.Trace
			}
			out.WitnessJSONL = encodeWitness(w, trace.Meta{
				Program: req.Prog.Name, Engine: engine, K: req.K,
				Validated: &res.WitnessValidated,
			})
			out.Detail = res.WitnessErr
		}
		return out, nil

	case ModeRAK, ModeRA:
		bound := -1
		if req.Mode == ModeRAK {
			bound = req.K
		}
		src := prog
		if lang.MaxLoopDepth(prog) > 0 {
			if req.Unroll <= 0 {
				return Outcome{}, fmt.Errorf("cache: program %q has loops; an unroll bound is required", req.Prog.Name)
			}
			src = lang.Unroll(prog, req.Unroll)
		}
		if err := src.ValidateRA(); err != nil {
			return Outcome{}, err
		}
		cp, err := lang.Compile(src)
		if err != nil {
			return Outcome{}, err
		}
		// Stamp the run's bounds into the live search telemetry (core.Run
		// does the same for VBMC, smc.Check for the stateless modes).
		unrollProbe := int64(-1)
		if req.Unroll > 0 {
			unrollProbe = int64(req.Unroll)
		}
		x.Obs.Search().SetProbe(int64(bound), unrollProbe)
		opts := ra.Options{
			ViewBound: bound, StopOnViolation: true, MaxStates: req.MaxStates,
			ExactDedup: req.ExactDedup, Workers: x.SearchWorkers, Ctx: ctx, Obs: x.Obs,
		}
		if x.Timeout > 0 {
			opts.Deadline = time.Now().Add(x.Timeout)
		}
		res := ra.NewSystem(cp).Explore(opts)
		out := Outcome{States: res.States, Transitions: int64(res.Transitions)}
		switch {
		case res.Violation:
			out.Verdict = VerdictUnsafe
			out.WitnessValidated = true // the RA explorer executes the semantics directly
			out.WitnessJSONL = encodeWitness(res.Trace, trace.Meta{
				Program: req.Prog.Name, Engine: "ra", K: bound,
				Validated: &out.WitnessValidated,
			})
		case res.Exhausted:
			out.Verdict = VerdictSafe
		default:
			out.Verdict = VerdictInconclusive
		}
		return out, nil

	case ModeTracer, ModeCDSC, ModeRCMC:
		alg := map[string]smc.Algorithm{
			ModeTracer: smc.AlgorithmTracer, ModeCDSC: smc.AlgorithmCDS, ModeRCMC: smc.AlgorithmRCMC,
		}[req.Mode]
		res, err := smc.Check(prog, smc.Options{
			Algorithm: alg, Unroll: req.Unroll,
			MaxTransitions: int64(req.MaxStates), // the stateless budget dimension
			Timeout:        x.Timeout, Ctx: ctx, Obs: x.Obs,
		})
		if err != nil {
			return Outcome{}, err
		}
		out := Outcome{Transitions: res.Transitions}
		switch {
		case res.Violation:
			out.Verdict = VerdictUnsafe
			out.WitnessValidated = true // stateless checkers execute RA directly
			out.WitnessJSONL = encodeWitness(res.Trace, trace.Meta{
				Program: req.Prog.Name, Engine: "smc",
				Validated: &out.WitnessValidated,
			})
		case res.Exhausted:
			out.Verdict = VerdictSafe
		default:
			out.Verdict = VerdictInconclusive
		}
		return out, nil

	case ModePortfolio:
		rep := diff.Run(prog, diff.Options{
			K: req.K, Unroll: req.Unroll, Timeout: x.Timeout,
			Jobs: x.Jobs, MaxStates: req.MaxStates, Ctx: ctx,
		})
		out := Outcome{Detail: rep.Render()}
		switch {
		case !rep.Agree():
			out.Verdict = VerdictDisagree
		case rep.Verdict() == diff.Unsafe:
			out.Verdict = VerdictUnsafe
			out.WitnessValidated = true // portfolio UNSAFE is validated by construction
		case rep.Verdict() == diff.Safe:
			out.Verdict = VerdictSafe
		default:
			out.Verdict = VerdictInconclusive
		}
		return out, nil
	}
	return Outcome{}, fmt.Errorf("cache: unknown mode %q", req.Mode)
}

// encodeWitness renders a witness trace as ravbmc.witness/v1 JSONL; a
// nil trace encodes to nil.
func encodeWitness(t *trace.Trace, meta trace.Meta) []byte {
	if t == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := t.WriteJSONL(&buf, meta); err != nil {
		// The JSONL encoder writes to a bytes.Buffer; it cannot fail.
		return nil
	}
	return buf.Bytes()
}
