// Package partest is the pool-width differential test harness for the
// search engines (internal/ra, internal/sc) and the VBMC pipeline
// (internal/core). Every engine search runs on a work-stealing pool; the
// harness runs the same verification query on a one-worker pool (the
// depth-first reference) and at several wider pool widths and asserts
// the results agree: identical verdicts everywhere; in census mode, and
// between two one-worker runs in stop mode, additionally identical
// state counts, transition counts and byte-identical witnesses (the
// engines' order-independent dedup discipline and minimal-fingerprint
// witness tie-break make full census results schedule-invariant, and a
// one-worker pool pops in a fixed depth-first order — see DESIGN.md).
// On a mismatch the harness shrinks the program to a 1-minimal failing
// witness before reporting, so a parity bug arrives as a few-line
// program instead of a corpus index.
package partest

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/litmus"
	"ravbmc/internal/ra"
	"ravbmc/internal/sc"
	"ravbmc/internal/trace"
)

// Widths returns the pool widths compared against the one-worker
// reference: 1 (a second one-worker run, which must repeat the
// reference exactly), 2, 4, the CPU count, and the RAVBMC_TEST_JOBS
// override if set — deduplicated. CI
// sets RAVBMC_TEST_JOBS=8 so wide pools are exercised even on
// single-core runners.
func Widths() []int {
	ws := []int{1, 2, 4, runtime.NumCPU()}
	if s := os.Getenv("RAVBMC_TEST_JOBS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			ws = append(ws, n)
		}
	}
	seen := map[int]bool{}
	out := ws[:0]
	for _, w := range ws {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// Case is one corpus program under differential test.
type Case struct {
	Name string
	Prog *lang.Program
}

// Classics returns every classic litmus shape as a case.
func Classics() []Case {
	var cs []Case
	for _, t := range litmus.Classic() {
		cs = append(cs, Case{Name: "classic/" + t.Name, Prog: t.Prog})
	}
	return cs
}

// GeneratedSample returns n programs drawn without replacement from the
// systematically generated litmus corpora (two-thread 3-op and
// three-thread 2-op), using a seeded permutation so every run of the
// harness tests the same sample.
func GeneratedSample(seed int64, n int) []Case {
	all := litmus.Generated(3)
	all = append(all, litmus.GeneratedThreads(3, 2)...)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(all))
	if n > len(perm) {
		n = len(perm)
	}
	var cs []Case
	for _, i := range perm[:n] {
		cs = append(cs, Case{Name: "gen/" + all[i].Name, Prog: all[i].Prog})
	}
	return cs
}

// Benchmarks returns small instances of the paper's mutex benchmarks,
// loop-unrolled with L=2 so both engines face a finite space: big
// enough to have real frontiers worth stealing, small enough for a
// multi-width sweep in test time.
func Benchmarks(names ...string) []Case {
	if len(names) == 0 {
		names = []string{"peterson_0(2)", "peterson_4(2)", "dekker_0", "bakery_3(2)"}
	}
	var cs []Case
	for _, name := range names {
		p, err := benchmarks.ByName(name)
		if err != nil {
			panic(err) // a typo in the fixed list above, not a runtime condition
		}
		cs = append(cs, Case{Name: "bench/" + name, Prog: lang.Unroll(p, 2)})
	}
	return cs
}

// RADiff explores prog on a one-worker pool and on a workers-wide pool
// and returns a description of the first disagreement, or "" when the
// results match. In census mode (StopOnViolation=false), and in stop
// mode when workers is 1, everything is compared, witness bytes
// included; in stop mode on a wider pool only the verdict and witness
// presence are (which violation a stopped multi-worker search reports
// is schedule-dependent by design).
func RADiff(prog *lang.Program, opts ra.Options, workers int, seed int64) string {
	cp, err := lang.Compile(prog)
	if err != nil {
		return "" // a shrink candidate left the RA fragment; not a parity issue
	}
	sys := ra.NewSystem(cp)
	refOpts := opts
	refOpts.Workers = 1
	ref := sys.Explore(refOpts)
	gopts := opts
	gopts.Workers = workers
	gopts.StealSeed = seed
	got := sys.Explore(gopts)
	if ref.TimedOut || got.TimedOut {
		return fmt.Sprintf("timed out (width 1=%v wide=%v): parity unverifiable", ref.TimedOut, got.TimedOut)
	}
	if ref.Violation != got.Violation {
		return fmt.Sprintf("workers=%d seed=%d: Violation %v (width 1) vs %v", workers, seed, ref.Violation, got.Violation)
	}
	if ref.TargetReached != got.TargetReached {
		return fmt.Sprintf("workers=%d seed=%d: TargetReached %v vs %v", workers, seed, ref.TargetReached, got.TargetReached)
	}
	if ref.Violation && (ref.Trace == nil) != (got.Trace == nil) {
		return fmt.Sprintf("workers=%d seed=%d: witness presence %v vs %v", workers, seed, ref.Trace != nil, got.Trace != nil)
	}
	if opts.StopOnViolation && workers > 1 {
		return ""
	}
	if ref.PeakMessages != got.PeakMessages {
		return fmt.Sprintf("workers=%d seed=%d: PeakMessages %d vs %d", workers, seed, ref.PeakMessages, got.PeakMessages)
	}
	return diffCounts(workers, seed,
		counts{ref.States, ref.Transitions, ref.Violations, ref.Exhausted, ref.Trace},
		counts{got.States, got.Transitions, got.Violations, got.Exhausted, got.Trace})
}

// counts is the schedule-invariant part of a search result: counts,
// coverage and witness.
type counts struct {
	states, transitions, violations int
	exhausted                       bool
	trace                           *trace.Trace
}

// diffCounts compares the counts of a one-worker reference (a) and a
// workers-wide run (b), witness bytes included.
func diffCounts(workers int, seed int64, a, b counts) string {
	if a.states != b.states || a.transitions != b.transitions {
		return fmt.Sprintf("workers=%d seed=%d: states/transitions %d/%d (width 1) vs %d/%d",
			workers, seed, a.states, a.transitions, b.states, b.transitions)
	}
	if a.violations != b.violations {
		return fmt.Sprintf("workers=%d seed=%d: Violations %d vs %d", workers, seed, a.violations, b.violations)
	}
	if a.exhausted != b.exhausted {
		return fmt.Sprintf("workers=%d seed=%d: Exhausted %v vs %v", workers, seed, a.exhausted, b.exhausted)
	}
	at, bt := "<none>", "<none>"
	if a.trace != nil {
		at = a.trace.String()
	}
	if b.trace != nil {
		bt = b.trace.String()
	}
	if at != bt {
		return fmt.Sprintf("workers=%d seed=%d: witness differs\nwidth 1:\n%s\nwidth %d:\n%s", workers, seed, at, workers, bt)
	}
	return ""
}

// SCDiff is RADiff for the context-bounded SC checker. Census mode is
// sc.Options.CensusViolations.
func SCDiff(prog *lang.Program, opts sc.Options, workers int, seed int64) string {
	cp, err := lang.Compile(prog)
	if err != nil {
		return ""
	}
	sys := sc.NewSystem(cp)
	refOpts := opts
	refOpts.Workers = 1
	ref := sys.Check(refOpts)
	gopts := opts
	gopts.Workers = workers
	gopts.StealSeed = seed
	got := sys.Check(gopts)
	if ref.TimedOut || got.TimedOut {
		return fmt.Sprintf("timed out (width 1=%v wide=%v): parity unverifiable", ref.TimedOut, got.TimedOut)
	}
	if ref.Violation != got.Violation {
		return fmt.Sprintf("workers=%d seed=%d: Violation %v (width 1) vs %v", workers, seed, ref.Violation, got.Violation)
	}
	if ref.TargetReached != got.TargetReached {
		return fmt.Sprintf("workers=%d seed=%d: TargetReached %v vs %v", workers, seed, ref.TargetReached, got.TargetReached)
	}
	if ref.Violation && (ref.Trace == nil) != (got.Trace == nil) {
		return fmt.Sprintf("workers=%d seed=%d: witness presence %v vs %v", workers, seed, ref.Trace != nil, got.Trace != nil)
	}
	if !opts.CensusViolations && workers > 1 {
		return ""
	}
	return diffCounts(workers, seed,
		counts{ref.States, ref.Transitions, ref.Violations, ref.Exhausted, ref.Trace},
		counts{got.States, got.Transitions, got.Violations, got.Exhausted, got.Trace})
}

// CoreDiff runs the full VBMC pipeline with one-worker and with
// workers-wide inner searches and compares the verdict (core's restart ladder and
// probe tiers make intermediate counts inherently budget-dependent, so
// the contract at this layer is verdict equality plus a validated
// witness).
func CoreDiff(prog *lang.Program, opts core.Options, workers int, seed int64) string {
	refOpts := opts
	refOpts.Workers = 1
	ref, err := core.Run(prog, refOpts)
	if err != nil {
		return ""
	}
	gopts := opts
	gopts.Workers = workers
	gopts.StealSeed = seed
	got, perr := core.Run(prog, gopts)
	if perr != nil {
		return fmt.Sprintf("workers=%d: run failed: %v", workers, perr)
	}
	if ref.Verdict != got.Verdict {
		return fmt.Sprintf("workers=%d seed=%d: verdict %v (width 1) vs %v", workers, seed, ref.Verdict, got.Verdict)
	}
	if got.Verdict == core.Unsafe && !got.WitnessValidated {
		return fmt.Sprintf("workers=%d seed=%d: witness failed validation: %s", workers, seed, got.WitnessErr)
	}
	return ""
}

// SCReduceDiff checks the source-DPOR reduction against the unreduced
// search, both on one worker and both at an unbounded context bound
// (the reduction's own precondition). The contract mirrors the
// pool-width one: identical Violation and Exhausted, a witness whenever
// the search stops on one, and — since the reduced search explores a
// representative subset — a state count never above the unreduced run's.
func SCReduceDiff(prog *lang.Program, opts sc.Options) string {
	cp, err := lang.Compile(prog)
	if err != nil {
		return "" // a shrink candidate left the RA fragment; not a parity issue
	}
	sys := sc.NewSystem(cp)
	fopts := opts
	fopts.Reduce = false
	fopts.MaxContexts = 0
	fopts.Workers = 1
	full := sys.Check(fopts)
	ropts := opts
	ropts.Reduce = true
	ropts.MaxContexts = 0
	ropts.Workers = 1
	red := sys.Check(ropts)
	if full.TimedOut || red.TimedOut {
		return fmt.Sprintf("timed out (full=%v reduced=%v): parity unverifiable", full.TimedOut, red.TimedOut)
	}
	if red.Violation != full.Violation {
		return fmt.Sprintf("reduce: Violation %v (reduced) vs %v (unreduced)", red.Violation, full.Violation)
	}
	if red.Exhausted != full.Exhausted {
		return fmt.Sprintf("reduce: Exhausted %v (reduced) vs %v (unreduced)", red.Exhausted, full.Exhausted)
	}
	if red.Violation && red.Trace == nil {
		return "reduce: violation without a witness"
	}
	// State counts are comparable only when both searches ran to
	// completion: a stop-mode violation ends each exploration at an
	// order-dependent prefix, and the reduced order may legitimately
	// reach its first violation later.
	if red.Exhausted && full.Exhausted && red.States > full.States {
		return fmt.Sprintf("reduce: reduced search visited MORE states (%d) than unreduced (%d)", red.States, full.States)
	}
	return ""
}

// CoreReduceDiff runs the full VBMC pipeline with and without the
// reduction and compares verdicts; an UNSAFE from the reduced pipeline
// must still carry a replay-validated witness. (State counts are not
// compared at this layer: the unreduced pipeline climbs the context
// ladder, the reduced one runs a single unbounded search.)
func CoreReduceDiff(prog *lang.Program, opts core.Options) string {
	fopts := opts
	fopts.Reduce = false
	full, err := core.Run(prog, fopts)
	if err != nil {
		return ""
	}
	ropts := opts
	ropts.Reduce = true
	red, rerr := core.Run(prog, ropts)
	if rerr != nil {
		return fmt.Sprintf("reduce: reduced run failed: %v", rerr)
	}
	if red.Verdict != full.Verdict {
		return fmt.Sprintf("reduce: verdict %v (reduced) vs %v (unreduced)", red.Verdict, full.Verdict)
	}
	if red.Verdict == core.Unsafe && !red.WitnessValidated {
		return fmt.Sprintf("reduce: reduced witness failed validation: %s", red.WitnessErr)
	}
	return ""
}

// Diff is a single-program differential check: it returns the first
// mismatch across all pool widths, or "".
type Diff func(*lang.Program) string

// SCReduce builds a Diff running SCReduceDiff under opts.
func SCReduce(opts sc.Options) Diff {
	return func(p *lang.Program) (d string) {
		defer func() {
			if r := recover(); r != nil {
				d = fmt.Sprintf("panic: %v", r)
			}
		}()
		return SCReduceDiff(p, opts)
	}
}

// CoreReduce builds a Diff running CoreReduceDiff under opts.
func CoreReduce(opts core.Options) Diff {
	return func(p *lang.Program) (d string) {
		defer func() {
			if r := recover(); r != nil {
				d = fmt.Sprintf("panic: %v", r)
			}
		}()
		return CoreReduceDiff(p, opts)
	}
}

// RAAllWidths builds a Diff running RADiff at every width.
func RAAllWidths(opts ra.Options, seed int64) Diff {
	return func(p *lang.Program) (d string) {
		defer func() {
			if r := recover(); r != nil {
				d = fmt.Sprintf("panic: %v", r)
			}
		}()
		for _, w := range Widths() {
			if d := RADiff(p, opts, w, seed); d != "" {
				return d
			}
		}
		return ""
	}
}

// SCAllWidths builds a Diff running SCDiff at every width.
func SCAllWidths(opts sc.Options, seed int64) Diff {
	return func(p *lang.Program) (d string) {
		defer func() {
			if r := recover(); r != nil {
				d = fmt.Sprintf("panic: %v", r)
			}
		}()
		for _, w := range Widths() {
			if d := SCDiff(p, opts, w, seed); d != "" {
				return d
			}
		}
		return ""
	}
}

// Reporter receives harness failures; *testing.T satisfies it.
type Reporter interface {
	Helper()
	Errorf(format string, args ...any)
}

// Check runs diff on the case and, on a mismatch, shrinks the program
// to a 1-minimal failing witness before reporting — the parity bug
// arrives as a few-line program, not a corpus index.
func Check(t Reporter, c Case, diff Diff) {
	t.Helper()
	d := diff(c.Prog)
	if d == "" {
		return
	}
	min := lang.Shrink(c.Prog, func(q *lang.Program) bool { return diff(q) != "" })
	t.Errorf("%s: mismatch: %s\nminimal failing program:\n%s", c.Name, d, min)
}

// Soak drives one multi-worker exploration of prog while cancelling the
// context and expiring the deadline mid-run, for the -race soak: the
// assertions are only that the run returns within budget and reports
// TimedOut sanely; the race detector does the real checking.
func Soak(prog *lang.Program, opts ra.Options, workers int, cancelAfter, deadlineAfter time.Duration) (ra.Result, error) {
	cp, err := lang.Compile(prog)
	if err != nil {
		return ra.Result{}, err
	}
	sys := ra.NewSystem(cp)
	opts.Workers = workers
	if deadlineAfter > 0 {
		opts.Deadline = time.Now().Add(deadlineAfter)
	}
	if cancelAfter > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), cancelAfter)
		defer cancel()
		opts.Ctx = ctx
	}
	return sys.Explore(opts), nil
}
