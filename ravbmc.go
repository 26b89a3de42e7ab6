// Package ravbmc is a verification toolkit for concurrent programs
// running under the release-acquire (RA) semantics, reproducing the
// system of "Verification of Programs under the Release-Acquire
// Semantics" (Abdulla, Arora, Atig, Krishna; PLDI 2019).
//
// It provides:
//
//   - a small concurrent programming language (the paper's Fig. 1
//     syntax) with a parser, validator and loop unroller;
//   - an executable RA operational semantics with an exhaustive,
//     optionally view-bounded explorer (the litmus oracle);
//   - the paper's primary contribution: the view-bounded code-to-code
//     translation [[.]]_K from RA to SC, plus a context-bounded
//     explicit-state SC model checker as the backend — together the
//     VBMC pipeline;
//   - stateless-model-checking baselines in the style of Tracer,
//     CDSChecker and RCMC;
//   - the paper's benchmark programs (mutual-exclusion protocols in all
//     fencing/bug variants), a litmus-test corpus, the Theorem 4.1 PCP
//     reduction, and a lossy-channel-system package for Theorem 4.3;
//   - a declarative (axiomatic) second implementation of both RA and SC
//     for differential validation, and an observational-robustness
//     checker.
//
// # Quick start
//
//	prog, err := ravbmc.Parse(src)          // or benchmarks.ByName("peterson_0")
//	res, err := ravbmc.VBMC(prog, ravbmc.VBMCOptions{K: 2, Unroll: 2})
//	fmt.Println(res.Verdict)                 // SAFE / UNSAFE
//	if res.Trace != nil { fmt.Print(res.Trace) }
//
// The subsystem packages under internal/ carry the implementation; this
// package re-exports the surface a downstream user needs.
package ravbmc

import (
	"ravbmc/internal/axiom"
	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/obs"
	"ravbmc/internal/parser"
	"ravbmc/internal/ra"
	"ravbmc/internal/robust"
	"ravbmc/internal/smc"
	"ravbmc/internal/tmai"
	"ravbmc/internal/trace"
)

// Core program types.
type (
	// Program is a concurrent program AST (paper Fig. 1 syntax).
	Program = lang.Program
	// Proc is one process of a program.
	Proc = lang.Proc
	// Value is the data domain of registers and shared variables.
	Value = lang.Value
	// Trace is a counterexample execution.
	Trace = trace.Trace
)

// VBMC pipeline types.
type (
	// VBMCOptions configures a VBMC run: the view bound K, the loop
	// unrolling bound, optional backend limits, the embedded
	// VBMCEngine, and an optional observability recorder.
	VBMCOptions = core.Options
	// VBMCEngine holds the verdict-neutral search knobs: pool width,
	// steal seed, source-DPOR reduction and the TMAI pre-pass.
	VBMCEngine = core.Engine
	// VBMCResult carries the verdict, witness trace and statistics; when
	// the run was instrumented it also carries a Report.
	VBMCResult = core.Result
	// Verdict is SAFE, UNSAFE or INCONCLUSIVE.
	Verdict = core.Verdict
)

// Observability types (internal/obs). Pass a Recorder via
// VBMCOptions.Obs (or the engine Options' Obs fields) to collect phase
// timings and search counters; read them back as a Report or live via
// Snapshot.
type (
	// Recorder collects counters, gauges and phase timings for one run.
	Recorder = obs.Recorder
	// Report is the structured, JSON-marshalable run summary.
	Report = obs.Report
	// ObsSnapshot is a point-in-time view of a live run.
	ObsSnapshot = obs.Snapshot
	// ObsSink observes phase events as they happen.
	ObsSink = obs.Sink
)

// NewRecorder returns an empty observability recorder. A nil *Recorder
// is the disabled default: every instrument call on it is a no-op
// nil-check, so engines can be left permanently instrumented.
func NewRecorder() *Recorder { return obs.New() }

// Verdicts.
const (
	Safe         = core.Safe
	Unsafe       = core.Unsafe
	Inconclusive = core.Inconclusive
)

// RA exploration types.
type (
	// ExploreOptions configures the exhaustive RA explorer.
	ExploreOptions = ra.Options
	// ExploreResult is the outcome of an RA exploration.
	ExploreResult = ra.Result
)

// SMC baseline types.
type (
	// SMCOptions selects and configures a stateless baseline.
	SMCOptions = smc.Options
	// SMCResult is the outcome of a baseline run.
	SMCResult = smc.Result
	// SMCAlgorithm identifies a baseline search strategy.
	SMCAlgorithm = smc.Algorithm
)

// Baseline algorithms (substitutes for the tools compared in the paper).
const (
	AlgorithmCDS    = smc.AlgorithmCDS
	AlgorithmTracer = smc.AlgorithmTracer
	AlgorithmRCMC   = smc.AlgorithmRCMC
	AlgorithmRandom = smc.AlgorithmRandom
)

// Parse parses a program in the concrete syntax (see internal/parser for
// the grammar) and validates it.
func Parse(src string) (*Program, error) { return parser.Parse(src) }

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(src string) *Program { return parser.MustParse(src) }

// VBMC checks the program under RA with at most K view switches by
// translating it to SC (the paper's [[.]]_K) and model-checking the
// translation with the context-bounded backend.
func VBMC(p *Program, opts VBMCOptions) (VBMCResult, error) { return core.Run(p, opts) }

// Translate applies the code-to-code translation [[.]]_K and returns the
// SC program, for inspection or use with other SC backends. The input
// must be loop-free (use Unroll first).
func Translate(p *Program, k int) (*Program, error) { return core.Translate(p, k) }

// ExploreRA runs the exhaustive RA explorer (the oracle): exact for
// loop-free programs, optionally bounded in view switches.
func ExploreRA(p *Program, opts ExploreOptions) (ExploreResult, error) {
	if err := p.ValidateRA(); err != nil {
		return ExploreResult{}, err
	}
	cp, err := lang.Compile(p)
	if err != nil {
		return ExploreResult{}, err
	}
	return ra.NewSystem(cp).Explore(opts), nil
}

// SMC runs one of the stateless-model-checking baselines on the program
// directly under RA.
func SMC(p *Program, opts SMCOptions) (SMCResult, error) { return smc.Check(p, opts) }

// Thread-modular abstract interpretation types (internal/tmai).
type (
	// TMAIOptions configures the thread-modular analysis.
	TMAIOptions = tmai.Options
	// TMAIResult carries the unbounded verdict: Safe holds for every
	// K/L/context budget; Unknown means only that the abstraction gave
	// up, never that a bug exists.
	TMAIResult = tmai.Result
)

// TMAI verdicts.
const (
	TMAISafe    = tmai.Safe
	TMAIUnknown = tmai.Unknown
)

// TMAI runs the thread-modular abstract interpretation: a sound
// over-approximation of RA whose SAFE verdicts hold unbounded — for
// every view bound K — at a cost polynomial in the program size. It
// never reports UNSAFE; pair it with VBMC for the refutation side.
func TMAI(p *Program, opts TMAIOptions) TMAIResult { return tmai.Analyze(p, opts) }

// Unroll rewrites every loop into at most bound unrolled iterations with
// a final unwinding assumption, as the bounded backends require.
func Unroll(p *Program, bound int) *Program { return lang.Unroll(p, bound) }

// AxiomaticOutcomes enumerates the RA-consistent outcomes of a loop-free
// program under the declarative presentation of the model (internal/axiom)
// — an oracle independent of the operational engine. render receives the
// per-process register files of each completed execution and its results
// are collected into a set.
func AxiomaticOutcomes(p *Program, render func(regs [][]Value) string) (map[string]bool, error) {
	cp, err := lang.Compile(p)
	if err != nil {
		return nil, err
	}
	e, err := axiom.NewEnumerator(cp, render)
	if err != nil {
		return nil, err
	}
	return e.Outcomes(), nil
}

// RobustnessResult reports whether a program's RA outcomes coincide with
// its SC outcomes, and the weak outcomes otherwise.
type RobustnessResult = robust.Result

// CheckRobustness decides observational robustness against RA for a
// loop-free program (or its unrolling): robust programs exhibit no weak
// behaviours and need no fences.
func CheckRobustness(p *Program, unroll int) (RobustnessResult, error) {
	return robust.Check(p, unroll)
}
