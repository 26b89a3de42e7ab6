package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ravbmc/internal/lang"
	"ravbmc/internal/obs"
	"ravbmc/internal/replay"
	"ravbmc/internal/sc"
	"ravbmc/internal/sched"
	"ravbmc/internal/tmai"
	"ravbmc/internal/trace"
)

// Verdict is the outcome of a VBMC run.
type Verdict int

// Verdicts. Safe means: no assertion fails in any execution with at
// most K view switches and at most L loop iterations — an
// under-approximate guarantee, exactly as in the paper (Sec. 6). Unsafe
// comes with a witness trace.
const (
	Safe Verdict = iota
	Unsafe
	// Inconclusive is reported when the search hit a state cap before
	// covering the bounded space.
	Inconclusive
)

// String returns SAFE/UNSAFE/INCONCLUSIVE as the tool prints it.
func (v Verdict) String() string {
	switch v {
	case Safe:
		return "SAFE"
	case Unsafe:
		return "UNSAFE"
	case Inconclusive:
		return "INCONCLUSIVE"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Options configures a VBMC run.
type Options struct {
	// K is the view-switch budget.
	K int
	// Unroll is the loop unrolling bound L. It is required (positive)
	// when the program has loops, mirroring the CBMC requirement that
	// all loops be bounded.
	Unroll int
	// MaxContexts overrides the SC backend's context bound: 0 selects
	// the paper's K+n (n = number of processes), a negative value runs
	// the backend without a context bound (still sound and complete for
	// the K-bounded problem, used by the ablation benchmarks).
	MaxContexts int
	// MaxStates caps the backend search; 0 means unlimited.
	MaxStates int
	// Timeout caps wall-clock time (0 = none). The paper's evaluation
	// uses 3600 s.
	Timeout time.Duration
	// Ctx cancels the whole run early (nil = never): the backend
	// searches poll it on a stride, so a parallel harness stops a
	// losing run within one granule. Composes with Timeout. A cancelled
	// run reports Inconclusive with TimedOut=true.
	Ctx context.Context
	// NoProbes disables the under-approximate probe ladder (the cheap
	// forced-tracked / small-stamp-window pass run before the full
	// translation); used by the ablation benchmarks.
	NoProbes bool
	// ExactDedup makes the SC backend's visited set retain full state
	// keys instead of 64-bit fingerprints (see sc.Options.ExactDedup and
	// internal/fp); for collision-paranoid runs and parity testing.
	ExactDedup bool
	// Workers is the work-stealing pool width of every SC backend
	// search: 0 and 1 both run one depth-first worker, n > 1 runs n
	// workers, negative selects runtime.NumCPU. Reduced searches always
	// run on one worker. The verdict is identical at every width (see
	// internal/partest); only wall clock changes.
	Workers int
	// StealSeed seeds the backend pools' steal-order randomization;
	// exposed for the differential fuzz harness.
	StealSeed int64
	// Reduce turns on the SC backend's source-DPOR partial-order
	// reduction (sc.Options.Reduce): only representative interleavings
	// of commuting independent steps are explored. The backend forces
	// an unbounded context bound when reducing (bounded contexts do not
	// commute), so the iterative context-deepening ladder is skipped;
	// verdicts are unchanged, state counts shrink. Falls back to the
	// unreduced search on programs where the reduction does not apply.
	Reduce bool
	// TMAI runs the thread-modular abstract-interpretation pre-pass
	// (internal/tmai) before any bounded search: if it proves the
	// program safe, the Result is Safe with Unbounded=true — a proof
	// for every K and L, not just the requested bounds. The pre-pass
	// handles loops by widening, so it runs before the unroll
	// requirement check. On Unknown the bounded pipeline proceeds
	// normally.
	TMAI bool
	// Obs, when non-nil, instruments the run: the driver records
	// per-phase spans (validate, unroll, per-probe translate / compile /
	// deepen / search, the full translate, and the final compile /
	// deepen / search), per-probe outcome counters ("core.probes_run",
	// "core.probe_hits", "core.probe_misses", gauge
	// "core.probe_hit_tier"), and the SC backend adds its own search
	// counters against the same recorder. The Result then carries
	// Obs.Report(). A nil recorder disables all of it at the cost of a
	// nil-check per instrument event.
	Obs *obs.Recorder
}

// Result reports a VBMC verdict with search statistics.
type Result struct {
	Verdict Verdict
	Trace   *trace.Trace
	// States and Transitions are backend search statistics.
	States, Transitions int
	// TranslatedStmts is the statement count of [[prog]]_K, recorded to
	// exhibit the polynomial size of the translation.
	TranslatedStmts int
	// ContextBound is the bound the backend actually used (0 =
	// unbounded).
	ContextBound int
	// Witness is the source-level RA witness: the backend's trace of
	// [[prog]]_K lifted back to the source program and re-executed under
	// the RA operational semantics. Nil unless the verdict is Unsafe and
	// the replay validation succeeded.
	Witness *trace.Trace
	// WitnessValidated reports whether the lifted witness replayed
	// successfully against internal/ra, reaching the claimed violation.
	// Always false for Safe/Inconclusive verdicts.
	WitnessValidated bool
	// WitnessErr carries the lift or replay failure when an Unsafe
	// verdict's witness could not be validated.
	WitnessErr string
	// TimedOut is true when the Timeout cut the backend search short
	// (the verdict is then Inconclusive).
	TimedOut bool
	// Unbounded reports that a Safe verdict holds for every view-switch
	// budget K and unroll bound L — the thread-modular abstract-
	// interpretation pre-pass proved the program outright, so the
	// under-approximate SAFE@K caveat does not apply. Always false for
	// Unsafe/Inconclusive verdicts.
	Unbounded bool
	// Report is the structured observability report (per-phase wall
	// times, engine counters, derived rates); nil unless Options.Obs
	// was set.
	Report *obs.Report
}

// Run checks the program under RA with at most K view switches by
// translating it to SC and model-checking the translation: the paper's
// VBMC pipeline with the explicit-state backend substituted for
// Lazy CSeq + CBMC.
//
// Because the backend is an explicit-state search rather than a SAT
// solver, the driver layers two goal-directed devices on top of the
// paper's reduction, neither of which changes the decided problem:
//
//   - an under-approximate probe: the translation restricted to tracked
//     writes with stamps at most 2 above the view is checked first (its
//     guesses are a subset of the full translation's, so a bug it finds
//     is genuine);
//   - iterative context deepening: within each pass, small context
//     bounds are searched before the full K+n bound.
func Run(prog *lang.Program, opts Options) (Result, error) {
	rec := opts.Obs
	span := rec.StartPhase("validate")
	err := prog.ValidateRA()
	span.End()
	if err != nil {
		return Result{}, err
	}
	// Thread-modular pre-pass: runs before the unroll requirement check
	// because the abstract interpretation handles loops by widening — a
	// loopy program can be proved safe with no L at all.
	if opts.TMAI {
		span = rec.StartPhase("tmai")
		ar := tmai.Analyze(prog, tmai.Options{})
		span.End()
		if ar.Verdict == tmai.Safe {
			rec.Counter("core.tmai_proofs").Inc()
			out := Result{Verdict: Safe, Unbounded: true}
			if rec != nil {
				rep := rec.Report()
				rep.Verdict = out.Verdict.String()
				rep.K = opts.K
				rep.L = opts.Unroll
				out.Report = rep
			}
			return out, nil
		}
		rec.Counter("core.tmai_unknown").Inc()
	}
	src := prog
	if lang.MaxLoopDepth(prog) > 0 {
		if opts.Unroll <= 0 {
			return Result{}, fmt.Errorf("core: program %q has loops; an unroll bound L is required", prog.Name)
		}
		span = rec.StartPhase("unroll")
		src = lang.Unroll(prog, opts.Unroll)
		span.End()
	}
	// Label every statement so the translated blocks are named after
	// their source statements; witness lifting resolves event labels back
	// through exactly these names.
	src = lang.EnsureLabels(src)
	bound := opts.MaxContexts
	if bound == 0 {
		bound = opts.K + len(prog.Procs)
	}
	if bound < 0 {
		bound = 0 // backend: unbounded
	}
	deadline := time.Time{}
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	// Stamp the run's bounds into the live search telemetry, so watchers
	// see which K/L probe is being searched (L stays -1 for loop-free
	// programs, where no unrolling applies).
	unrollProbe := int64(-1)
	if opts.Unroll > 0 {
		unrollProbe = int64(opts.Unroll)
	}
	rec.Search().SetProbe(int64(opts.K), unrollProbe)
	out := Result{ContextBound: bound}
	// finish validates the witness of an Unsafe result and stamps the
	// observability report onto it. Lifting maps the backend's trace of
	// [[src]]_K to source-level actions; replay re-executes them under
	// the RA operational semantics and must reach the claimed violation.
	finish := func(out Result) Result {
		if out.Verdict == Unsafe && out.Trace != nil {
			span := rec.StartPhase("lift")
			acts, lerr := Lift(src, out.Trace)
			span.End()
			if lerr != nil {
				out.WitnessErr = lerr.Error()
			} else {
				span = rec.StartPhase("replay")
				w, rerr := replay.Run(src, acts, replay.Options{Obs: rec})
				span.End()
				if rerr != nil {
					out.WitnessErr = rerr.Error()
				} else {
					out.Witness = w
					out.WitnessValidated = true
				}
			}
		}
		if rec != nil {
			rep := rec.Report()
			rep.Verdict = out.Verdict.String()
			rep.K = opts.K
			rep.L = opts.Unroll
			if out.Verdict == Unsafe {
				v := out.WitnessValidated
				rep.WitnessValidated = &v
			}
			out.Report = rep
		}
		return out
	}

	if !opts.NoProbes {
		tiers := []struct {
			v         variant
			maxStates int
			slice     time.Duration
		}{
			// Window 1 is a cheap lottery ticket: it catches bugs whose
			// modification orders follow the merge order, and costs
			// little when it does not.
			{variant{stampWindow: 1, forceTracked: true}, 150_000, opts.Timeout / 8},
			{variant{stampWindow: 2, forceTracked: true}, 600_000, opts.Timeout / 3},
		}
		for i, tier := range tiers {
			phase := fmt.Sprintf("probe%d", i+1)
			rec.Counter("core.probes_run").Inc()
			span = rec.StartPhase(phase + ".translate")
			probeProg, err := translateVariant(src, opts.K, tier.v)
			span.End()
			if err != nil {
				return Result{}, err
			}
			probeOpts := sc.Options{MaxContexts: bound, MaxStates: tier.maxStates, Ctx: opts.Ctx, ExactDedup: opts.ExactDedup, Reduce: opts.Reduce, Workers: opts.Workers, StealSeed: opts.StealSeed, Obs: rec}
			if opts.MaxStates > 0 && opts.MaxStates < probeOpts.MaxStates {
				probeOpts.MaxStates = opts.MaxStates
			}
			if opts.Timeout > 0 {
				probeOpts.Deadline = time.Now().Add(tier.slice)
			}
			probeStart := time.Now()
			res := checkDeepening(probeProg, bound, probeOpts, rec, phase)
			probeSecs := time.Since(probeStart).Seconds()
			rec.Histogram("core.probe_seconds", obs.DurationBuckets).Observe(probeSecs)
			if probeSecs > 0 && res.States > 0 {
				rec.Histogram("core.probe_states_per_sec", obs.RateBuckets).
					Observe(float64(res.States) / probeSecs)
			}
			out.States += res.States
			out.Transitions += res.Transitions
			if res.Violation {
				rec.Counter("core.probe_hits").Inc()
				rec.Gauge("core.probe_hit_tier").Set(int64(i + 1))
				out.Verdict = Unsafe
				out.Trace = res.Trace
				span = rec.StartPhase("translate")
				translated, terr := Translate(src, opts.K)
				span.End()
				if terr == nil {
					out.TranslatedStmts = translated.CountStmts()
					rec.Gauge("translate.stmts").Set(int64(out.TranslatedStmts))
				}
				return finish(out), nil
			}
			rec.Counter("core.probe_misses").Inc()
		}
	}

	span = rec.StartPhase("translate")
	translated, err := Translate(src, opts.K)
	span.End()
	if err != nil {
		return Result{}, err
	}
	out.TranslatedStmts = translated.CountStmts()
	rec.Gauge("translate.stmts").Set(int64(out.TranslatedStmts))
	scOpts := sc.Options{MaxContexts: bound, MaxStates: opts.MaxStates, Deadline: deadline, Ctx: opts.Ctx, ExactDedup: opts.ExactDedup, Reduce: opts.Reduce, Workers: opts.Workers, StealSeed: opts.StealSeed, Obs: rec}
	finalStart := time.Now()
	res := checkDeepening(translated, bound, scOpts, rec, "final")
	finalSecs := time.Since(finalStart).Seconds()
	rec.Histogram("core.final_search_seconds", obs.DurationBuckets).Observe(finalSecs)
	if finalSecs > 0 && res.States > 0 {
		rec.Histogram("core.final_states_per_sec", obs.RateBuckets).
			Observe(float64(res.States) / finalSecs)
	}
	out.States += res.States
	out.Transitions += res.Transitions
	out.TimedOut = res.TimedOut
	switch {
	case res.Violation:
		out.Verdict = Unsafe
		out.Trace = res.Trace
	case res.Exhausted:
		out.Verdict = Safe
	default:
		out.Verdict = Inconclusive
	}
	return finish(out), nil
}

// ladderCap is the per-round state budget of the restart ladder: no
// single scheduling bias may starve the others, and the final uncapped
// full-bound run still decides SAFE exactly.
const ladderCap = 150_000

// checkDeepening compiles the translated program and model-checks it
// with iterative context deepening: counterexamples typically need very
// few contexts, and the k-context state space is far smaller than the
// full one, so small bounds are searched first; the final full-bound
// run still decides SAFE exactly. A rung that exhausts its context
// bound without a violation (neither capped nor timed out) skips the
// other process order at that bound: the visited node set does not
// depend on the order (DESIGN.md §3c), so the twin cannot find
// anything. Phase timings are recorded against rec under the given
// phase prefix (phase+".compile", one phase+".deepen" span per ladder
// round, phase+".search" for the final full-bound run).
func checkDeepening(translated *lang.Program, bound int, scOpts sc.Options, rec *obs.Recorder, phase string) sc.Result {
	span := rec.StartPhase(phase + ".compile")
	cp, err := lang.Compile(translated)
	span.End()
	if err != nil {
		// The translation always emits well-formed programs; a failure
		// here is a bug in the translator itself.
		panic(fmt.Sprintf("core: compiling translation: %v", err))
	}
	sys := sc.NewSystem(cp)
	// Publish how many ladder rounds this call will run (the deepening
	// pairs plus the final full-bound search) into the cumulative
	// "core.deepen_total" gauge: progress of "core.deepen_rounds" against
	// it drives the -watch ETA heuristic.
	planned := int64(1)
	if bound > 2 && !scOpts.Reduce {
		planned += 2 * int64(bound-2)
	}
	gTotal := rec.Gauge("core.deepen_total")
	gTotal.Set(gTotal.Value() + planned)
	var res sc.Result
	var totalStates, totalTransitions int
	// Restart ladder: each round pairs a small context bound (2 up to
	// one below the full bound) with one of the two process orders —
	// bugs located in different threads are reached by differently
	// biased searches, cf. the position sensitivity of RCMC in the
	// paper's Tables 3 and 4. Each round carries the ladderCap state
	// budget so that no single bias can starve the others; the final
	// uncapped full-bound run decides SAFE exactly.
	budget := ladderCap
	if scOpts.MaxStates > 0 && budget > scOpts.MaxStates {
		budget = scOpts.MaxStates
	}
	// The restart ladder pairs small context bounds with process-order
	// biases; under the reduction the backend forces unbounded contexts,
	// so every ladder rung would re-run the same full search — skip
	// straight to the final run instead.
	for cb := 2; !scOpts.Reduce && bound > 0 && cb < bound; cb++ {
		for _, rev := range []bool{false, true} {
			rec.Counter("core.deepen_rounds").Inc()
			round := scOpts
			round.MaxContexts = cb
			round.ReverseProcs = rev
			round.MaxStates = budget
			span := rec.StartPhase(phase + ".deepen")
			res = sys.Check(round)
			span.End()
			totalStates += res.States
			totalTransitions += res.Transitions
			if res.Violation || res.TimedOut {
				res.States, res.Transitions = totalStates, totalTransitions
				return res
			}
			if res.Exhausted && !rev {
				// The reversed order would re-cover the same node set;
				// take its round off the plan so that deepen_rounds
				// still reaches deepen_total.
				gTotal.Set(gTotal.Value() - 1)
				break
			}
		}
	}
	if !res.Violation && !res.TimedOut {
		// The final full-bound run is the ladder's last rung: counting it
		// in deepen_rounds lets the round counter reach deepen_total.
		rec.Counter("core.deepen_rounds").Inc()
		span := rec.StartPhase(phase + ".search")
		res = sys.Check(scOpts)
		span.End()
		totalStates += res.States
		totalTransitions += res.Transitions
	}
	res.States, res.Transitions = totalStates, totalTransitions
	return res
}

// FindMinK runs VBMC with K = 0, 1, ..., maxK and returns the first
// UNSAFE result together with the K that exposed the bug — the paper's
// iterative usage ("this subset can be increased iteratively, by
// increasing K, to find bugs in real world programs"). If every bound
// up to maxK is SAFE, the result of the final run is returned with
// k == maxK; opts.K is ignored. The per-run Timeout applies to each
// bound separately. When opts.Obs is set, phase timings and counters
// accumulate across the whole K sweep and the returned Result's Report
// reflects the totals.
func FindMinK(prog *lang.Program, maxK int, opts Options) (int, Result, error) {
	var last Result
	for k := 0; k <= maxK; k++ {
		opts.K = k
		res, err := Run(prog, opts)
		if err != nil {
			return k, Result{}, err
		}
		opts.Obs.Gauge("core.mink_last_k").Set(int64(k))
		if res.Verdict == Unsafe {
			return k, res, nil
		}
		last = res
		// A cancelled sweep context stops the ladder here rather than
		// burning one aborted run per remaining bound.
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return k, last, nil
		}
	}
	return maxK, last, nil
}

// FindMinKParallel is FindMinK's speculative mode: it probes several K
// values concurrently on a sched pool of the given width and cancels
// losers as soon as they cannot improve the answer. K-bounded
// reachability is monotone in K (every behaviour with at most k view
// switches also has at most k+1), so the minimal bug bound is the
// smallest K whose run reports Unsafe — once some K is Unsafe, every
// larger bound is cancelled, while all smaller bounds run to completion
// to keep the answer minimal. The returned (k, Result) therefore equals
// the serial FindMinK's, at a fraction of the wall clock when cores are
// available. jobs == 1 falls back to the serial sweep, jobs <= 0
// selects runtime.NumCPU; ctx cancels the whole search (nil = never).
func FindMinKParallel(ctx context.Context, prog *lang.Program, maxK int, opts Options, jobs int) (int, Result, error) {
	if jobs == 1 {
		if opts.Ctx == nil {
			opts.Ctx = ctx
		}
		return FindMinK(prog, maxK, opts)
	}
	var (
		mu      sync.Mutex
		cancels = make([]context.CancelFunc, maxK+1)
		cutoff  = maxK + 1 // smallest K known Unsafe; larger bounds are moot
	)
	specJobs := make([]sched.Job, maxK+1)
	for k := 0; k <= maxK; k++ {
		k := k
		specJobs[k] = sched.Job{
			Name: fmt.Sprintf("K=%d", k),
			Run: func(jctx context.Context) (any, error) {
				kctx, kcancel := context.WithCancel(jctx)
				defer kcancel()
				mu.Lock()
				if k > cutoff {
					mu.Unlock()
					return Result{Verdict: Inconclusive, TimedOut: true}, nil
				}
				cancels[k] = kcancel
				mu.Unlock()
				o := opts
				o.K = k
				o.Ctx = kctx
				return Run(prog, o)
			},
		}
	}
	onResult := func(r sched.Result) bool {
		if r.Err != nil || r.Skipped {
			return false
		}
		res := r.Value.(Result)
		opts.Obs.Gauge("core.mink_last_k").Set(int64(r.Index))
		if res.Verdict != Unsafe {
			return false
		}
		mu.Lock()
		if r.Index < cutoff {
			cutoff = r.Index
		}
		for j := r.Index + 1; j <= maxK; j++ {
			if cancels[j] != nil {
				cancels[j]()
				cancels[j] = nil
			}
		}
		mu.Unlock()
		return false
	}
	results := sched.New(jobs).Run(ctx, specJobs, onResult)
	// Scan ascending, exactly as the serial sweep would have decided:
	// the first error or Unsafe bound is the answer. Bounds above an
	// Unsafe one were cancelled and are never reached by the scan.
	var last Result
	for k, r := range results {
		if r.Skipped {
			// Group cancelled from outside: report the bound as
			// inconclusive, like a serial sweep whose context died here.
			return k, Result{Verdict: Inconclusive, TimedOut: true, ContextBound: last.ContextBound}, nil
		}
		if r.Err != nil {
			return k, Result{}, r.Err
		}
		res := r.Value.(Result)
		if res.Verdict == Unsafe {
			return k, res, nil
		}
		last = res
	}
	return maxK, last, nil
}
