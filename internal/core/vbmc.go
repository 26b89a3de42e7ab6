package core

import (
	"context"
	"flag"
	"fmt"
	"strconv"
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

// Engine holds the knobs that change how the engines search, never
// what they decide: the verdict is the same at every setting (see
// internal/partest), so no cache key includes them. It is declared once
// here and passed whole through cache.ExecConfig and serve.Config.
type Engine struct {
	// Workers is the work-stealing pool width of every backend search:
	// 0 and 1 both run one depth-first worker, n > 1 runs n workers,
	// negative selects runtime.NumCPU. Reduced searches always run on
	// one worker. Only wall clock changes with the width.
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
}

// RegisterFlags registers -reduce, -tmai and the search-pool width
// flag, named workersFlag, on fs, each writing into e.
func (e *Engine) RegisterFlags(fs *flag.FlagSet, workersFlag string) {
	fs.IntVar(&e.Workers, workersFlag, 0, "work-stealing workers inside each backend search (0 and 1 = one depth-first worker, negative = all CPUs; -reduce searches always use one); the verdict is identical at any width")
	fs.BoolVar(&e.Reduce, "reduce", false, "source-DPOR reduction in the SC backend: explore only representative interleavings (verdict-neutral; forces an unbounded context bound, falls back to the full search where inapplicable)")
	fs.BoolVar(&e.TMAI, "tmai", false, "thread-modular pre-pass: if the abstraction proves the program, report SAFE (unbounded, for every K) without searching")
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
	// MaxStates caps the backend search; 0 means unlimited. A resumed
	// ladder's rungs share one cap, as one fresh search would; since
	// its rungs above the first visit each configuration only once, it
	// can exhaust under a cap that a fresh full-bound search would hit.
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
	// Engine holds the verdict-neutral search knobs.
	Engine
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
//   - under-approximate probes: translations restricted to tracked
//     writes with stamps at most 1 or 2 above the view are searched
//     first (their guesses are a subset of the full translation's, so a
//     bug they find is genuine);
//   - iterative context deepening without restarts: small context
//     bounds are searched before the full K+n bound, each translation
//     continuing its search from one bound to the next (see schedule).
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

	sch := newSchedule(src, opts, bound, deadline)
	res, hit, err := sch.run()
	if err != nil {
		return Result{}, err
	}
	out.States, out.Transitions = sch.states, sch.transitions
	final := sch.tiers[len(sch.tiers)-1]
	if hit != final {
		// A probe found the bug: the full translation is still built,
		// for its size.
		rec.Counter("core.probe_hits").Inc()
		rec.Gauge("core.probe_hit_tier").Set(int64(hit.num))
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
	out.TranslatedStmts = final.prog.CountStmts()
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

// ladderCap is the per-rung state budget of the ladder: no single
// scheduling bias may starve the others, and the final uncapped
// full-bound run still decides SAFE exactly.
const ladderCap = 150_000

// probeTiers are the under-approximate translations searched before
// [[P]]_K: their guesses are a subset of the full translation's, so a
// bug they find is genuine. Window 1 is a cheap lottery ticket: it
// catches bugs whose modification orders follow the merge order, and
// costs little when it does not. share is the tier's fraction 1/share
// of Timeout, a budget over all of its rungs.
var probeTiers = []struct {
	v         variant
	maxStates int
	share     time.Duration
}{
	{variant{stampWindow: 1, forceTracked: true}, 150_000, 8},
	{variant{stampWindow: 2, forceTracked: true}, 600_000, 3},
}

// tier is one translation the schedule searches: a probe tier or the
// final [[P]]_K. It is translated and compiled on first use.
type tier struct {
	phase     string // span prefix: "probe1", "probe2" or "final"
	num       int    // probe tier number; 0 for the final translation
	v         variant
	maxStates int           // cap on the tier's full-bound search; 0 = none
	slice     time.Duration // wall-clock budget over its rungs; 0 = none
	used      time.Duration
	prog      *lang.Program // nil until first use
	sp        *space
	twin      bool // prints like an earlier probe: all its rungs are shared
	dead      bool // its slice ran out: its other rungs are skipped
	states    int
}

// space is one distinct translated program and its search. Tiers whose
// translations print identically share a space, so it is searched once.
type space struct {
	prog    *lang.Program
	printed string // prog's text, printed on first comparison
	sys     *sc.System
	// srch is the resumable search of the ladder; nil when the schedule
	// cannot resume (reduced or context-unbounded searches) and once a
	// full-bound search has run. Once one of its rungs is capped or
	// times out it stays spent, and the rungs above its bound run fresh.
	srch    *sc.Searcher
	states  int  // states srch has visited
	covered int  // the largest ladder bound a rung exhausted
	full    bool // a full-bound search of this space exhausted
}

// schedule is VBMC's flat probe schedule: the context bound is the
// outer loop and the probe tier the inner one, so the cheapest rung of
// every tier runs before any tier deepens; both probes' full-bound runs
// follow the ladder, and the final translation's ladder and its
// full-bound decider come last. Each space deepens its one Searcher
// across its rungs instead of restarting. A rung that exhausts its
// bound skips the other process order (the visited node set does not
// depend on the order, DESIGN.md §3c); a capped rung runs the reversed
// order afresh.
type schedule struct {
	src      *lang.Program
	opts     Options
	rec      *obs.Recorder
	bound    int
	deadline time.Time
	ladder   bool // rungs at bounds 2..bound-1 exist
	tiers    []*tier
	spaces   []*space

	states, transitions int
	rounds              *obs.Counter
	total               *obs.Gauge
}

func newSchedule(src *lang.Program, opts Options, bound int, deadline time.Time) *schedule {
	s := &schedule{src: src, opts: opts, rec: opts.Obs, bound: bound, deadline: deadline,
		ladder: !opts.Reduce && bound > 2}
	if !opts.NoProbes {
		for i, pt := range probeTiers {
			t := &tier{phase: fmt.Sprintf("probe%d", i+1), num: i + 1, v: pt.v, maxStates: pt.maxStates}
			if opts.MaxStates > 0 && opts.MaxStates < t.maxStates {
				t.maxStates = opts.MaxStates
			}
			if opts.Timeout > 0 {
				t.slice = opts.Timeout / pt.share
			}
			s.tiers = append(s.tiers, t)
		}
	}
	s.tiers = append(s.tiers, &tier{phase: "final", maxStates: opts.MaxStates})
	// Publish how many rungs the whole schedule may run into the
	// cumulative "core.deepen_total" gauge: two process orders per
	// ladder bound and one full-bound search per tier. Every rung
	// skipped or shared is taken off again, so "core.deepen_rounds"
	// reaches the total on a SAFE run; the -watch ETA reads the two.
	perTier := 1
	if s.ladder {
		perTier += 2 * (bound - 2)
	}
	s.rounds = s.rec.Counter("core.deepen_rounds")
	s.total = s.rec.Gauge("core.deepen_total")
	s.total.Set(s.total.Value() + int64(perTier*len(s.tiers)))
	return s
}

// run walks the schedule until a rung finds a violation or the final
// decider returns. It reports the deciding result and its tier.
func (s *schedule) run() (sc.Result, *tier, error) {
	probes, final := s.tiers[:len(s.tiers)-1], s.tiers[len(s.tiers)-1]
	step := func(t *tier, cb int) (sc.Result, bool, error) {
		res, err := s.rung(t, cb)
		return res, err != nil || res.Violation, err
	}
	for cb := 2; s.ladder && cb < s.bound; cb++ {
		for _, t := range probes {
			if res, stop, err := step(t, cb); stop {
				return res, s.endProbes(t), err
			}
		}
	}
	for _, t := range probes {
		if res, stop, err := step(t, s.bound); stop {
			return res, s.endProbes(t), err
		}
	}
	s.endProbes(final)
	for cb := 2; s.ladder && cb < s.bound; cb++ {
		if res, stop, err := step(final, cb); stop {
			return res, final, err
		}
	}
	res, err := s.rung(final, s.bound)
	if secs := final.used.Seconds(); secs > 0 {
		s.rec.Histogram("core.final_search_seconds", obs.DurationBuckets).Observe(secs)
		if final.states > 0 {
			s.rec.Histogram("core.final_states_per_sec", obs.RateBuckets).Observe(float64(final.states) / secs)
		}
	}
	return res, final, err
}

// endProbes closes the probe phase, won by tier hit (the final tier
// when no probe hit): every other probe that ran counts as a miss.
func (s *schedule) endProbes(hit *tier) *tier {
	for _, t := range s.tiers[:len(s.tiers)-1] {
		if t.prog == nil {
			continue
		}
		secs := t.used.Seconds()
		s.rec.Histogram("core.probe_seconds", obs.DurationBuckets).Observe(secs)
		if secs > 0 && t.states > 0 {
			s.rec.Histogram("core.probe_states_per_sec", obs.RateBuckets).Observe(float64(t.states) / secs)
		}
		if t != hit {
			s.rec.Counter("core.probe_misses").Inc()
		}
	}
	return hit
}

// prepare translates and compiles t on first use. A translation that
// prints like an earlier tier's reuses that tier's space.
func (s *schedule) prepare(t *tier) error {
	if t.prog != nil {
		return nil
	}
	name := t.phase + ".translate"
	if t.num == 0 {
		name = "translate"
	} else {
		s.rec.Counter("core.probes_run").Inc()
	}
	span := s.rec.StartPhase(name)
	prog, err := translateVariant(s.src, s.opts.K, t.v)
	span.End()
	if err != nil {
		return err
	}
	t.prog = prog
	if t.num == 0 {
		s.rec.Gauge("translate.stmts").Set(int64(prog.CountStmts()))
		if !s.deadline.IsZero() {
			// The final ladder may spend at most half of what is left,
			// so its capped rungs cannot starve the SAFE decider.
			t.slice = time.Until(s.deadline) / 2
		}
	}
	if len(s.spaces) > 0 {
		text := prog.String()
		for _, sp := range s.spaces {
			if sp.text() == text {
				t.sp, t.twin = sp, t.num > 0
				return nil
			}
		}
	}
	span = s.rec.StartPhase(t.phase + ".compile")
	cp, err := lang.Compile(prog)
	span.End()
	if err != nil {
		// The translation always emits well-formed programs; a failure
		// here is a bug in the translator itself.
		panic(fmt.Sprintf("core: compiling translation: %v", err))
	}
	t.sp = &space{prog: prog, sys: sc.NewSystem(cp)}
	if !s.opts.Reduce && s.bound > 0 {
		t.sp.srch = t.sp.sys.NewSearcher(s.scOptions(s.bound))
	}
	s.spaces = append(s.spaces, t.sp)
	return nil
}

// text returns the space's program as printed. It is printed only when
// a later tier's translation is compared with it, so a run that its
// first tier settles prints nothing.
func (sp *space) text() string {
	if sp.printed == "" {
		sp.printed = sp.prog.String()
	}
	return sp.printed
}

func (s *schedule) scOptions(cb int) sc.Options {
	return sc.Options{MaxContexts: cb, Ctx: s.opts.Ctx, ExactDedup: s.opts.ExactDedup, Reduce: s.opts.Reduce,
		Workers: s.opts.Workers, StealSeed: s.opts.StealSeed, Obs: s.rec}
}

// rung runs tier t at context bound cb — a ladder rung below the full
// bound, the tier's full-bound search at it — in the forward process
// order, and in the reversed order too when the forward rung was
// capped. A rung whose bound the tier's space has already covered is
// shared and not run again; so is every rung of a probe twin. The
// final tier's full-bound search is the only SAFE decider: it reports
// Exhausted only when every level up to the full bound was exhausted
// with no cap.
func (s *schedule) rung(t *tier, cb int) (res sc.Result, err error) {
	full := cb == s.bound
	planned, ran := 2, 0
	if full {
		planned = 1
	}
	defer func() { s.total.Set(s.total.Value() - int64(planned-ran)) }()
	if err := s.prepare(t); err != nil {
		return sc.Result{}, err
	}
	decider := full && t.num == 0
	sp := t.sp
	switch {
	case full && sp.full:
		return sc.Result{Exhausted: true}, nil
	case t.twin || t.dead && !decider:
		return sc.Result{}, nil
	case !full && sp.covered >= cb:
		return sc.Result{}, nil
	}
	for _, rev := range []bool{false, true} {
		res = s.search(t, cb, rev)
		ran++
		if full {
			// Nothing deepens past the full bound: free its visited set.
			sp.srch = nil
		}
		switch {
		case res.Violation:
			return res, nil
		case res.Exhausted && full:
			sp.full = true
			return res, nil
		case res.Exhausted:
			sp.covered = cb
			return res, nil
		case res.TimedOut:
			t.dead = true
			return res, nil
		case full:
			return res, nil
		}
	}
	return res, nil
}

// search runs one rung and records it: deepening the space's Searcher
// when its chain is intact and the order is forward, a fresh sc.Check
// otherwise.
func (s *schedule) search(t *tier, cb int, rev bool) sc.Result {
	full := cb == s.bound
	o := s.scOptions(cb)
	o.ReverseProcs = rev
	if !s.deadline.IsZero() {
		o.Deadline = s.deadline
		if t.slice > 0 && !(full && t.num == 0) {
			if d := time.Now().Add(t.slice - t.used); d.Before(o.Deadline) {
				o.Deadline = d
			}
		}
	}
	sp := t.sp
	resumed := !rev && sp.srch != nil && sp.srch.Resumable()
	o.MaxStates = t.maxStates
	if resumed && o.MaxStates > 0 {
		// The cap bounds the whole chain, as it would one fresh search.
		o.MaxStates = max(o.MaxStates-sp.states, 1)
	}
	if !full && (o.MaxStates == 0 || o.MaxStates > ladderCap) {
		o.MaxStates = ladderCap
	}
	name := t.phase + ".deepen"
	if full {
		name = t.phase + ".search"
	}
	s.rounds.Inc()
	span := s.rec.StartPhase(name)
	start := time.Now()
	// A searcher's first Deepen starts at the initial closure: only a
	// later one resumes.
	resumedFrom := -1
	var res sc.Result
	if resumed {
		resumedFrom = sp.srch.Bound()
		res = sp.srch.Deepen(o)
		sp.states += res.States
	} else {
		res = sp.sys.Check(o)
	}
	t.used += time.Since(start)
	t.states += res.States
	s.states += res.States
	s.transitions += res.Transitions
	order := "forward"
	if rev {
		order = "reversed"
	}
	span.SetAttr("tier", t.phase)
	span.SetAttrInt("context_bound", int64(cb))
	span.SetAttr("order", order)
	span.SetAttr("resumed", strconv.FormatBool(resumedFrom > 0))
	span.SetAttrInt("states", int64(res.States))
	span.SetAttr("outcome", rungOutcome(res))
	span.End()
	return res
}

// rungOutcome names how a rung ended, for its span.
func rungOutcome(res sc.Result) string {
	switch {
	case res.Violation:
		return "hit"
	case res.Exhausted:
		return "exhausted"
	case res.TimedOut:
		return "timed_out"
	}
	return "capped"
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
