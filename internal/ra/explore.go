package ra

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ravbmc/internal/fp"
	"ravbmc/internal/obs"
	"ravbmc/internal/sched"
	"ravbmc/internal/trace"
)

// Options configures exhaustive exploration.
type Options struct {
	// ViewBound limits the number of view switches per execution; a
	// negative bound means unbounded. With a bound, the explorer decides
	// exactly the K-bounded view-switching reachability problem of the
	// paper (Sec. 5).
	ViewBound int
	// MaxSteps bounds execution length (depth); 0 means a large default.
	// Needed for programs with loops.
	MaxSteps int
	// MaxStates aborts the search (Exhausted=false) after visiting this
	// many distinct states; 0 means unlimited.
	MaxStates int
	// TargetLabels maps process names to instruction labels; the target
	// is reached when every listed process is simultaneously at its
	// label. Used by the PCP reduction ("all processes reach term").
	TargetLabels map[string]string
	// StopOnViolation stops at the first failed assertion (the default
	// mode of all tools in the paper's evaluation). When false the
	// search continues past failing assertions: Result.Violation is
	// still set, Result.Violations counts every violating transition
	// encountered, Result.Trace witnesses the violation with the
	// minimal fingerprint (a deterministic tie-break independent of
	// search order, so censuses agree byte for byte at every pool
	// width), and Exhausted reports full coverage as usual — use this
	// mode to census a program's bugs rather than stop at the first.
	StopOnViolation bool
	// Workers is the width of the work-stealing pool the exploration
	// runs on, over a sharded visited set: 0 and 1 both mean one
	// depth-first worker (the differential harness's reference), n > 1
	// that many workers, and a negative value all CPUs.
	// Verdicts are identical at every width; in census mode
	// (StopOnViolation=false) state counts, transition counts and the
	// witness are identical too (see DESIGN.md on the parity
	// discipline). A one-worker search is deterministic in stop mode as
	// well. A stopped search (first violation or target) on a wider
	// pool returns a valid witness, but which one — and the partial
	// counts — depend on the schedule.
	Workers int
	// StealSeed seeds the work-stealing victim order of the pool. Any
	// value is fine (0 included); the partest fuzz mode varies it to
	// perturb steal schedules while asserting identical results. A
	// one-worker pool never steals, so it ignores the seed.
	StealSeed int64
	// ContextBound limits the number of contexts (maximal blocks of
	// steps by one process); 0 or negative means unbounded. Used to
	// check the paper's remark that the Theorem 4.1 reduction works
	// within 4-context executions. With a bound, the search keys states
	// exactly by (state, active process, contexts used).
	ContextBound int
	// ExactDedup makes the visited set retain full state keys instead
	// of 64-bit fingerprints. Fingerprinting is allocation-free and an
	// order of magnitude smaller per state, at a vanishing (birthday
	// bound) risk of conflating two states; exact mode is for
	// collision-paranoid runs and the fingerprint parity tests. See
	// internal/fp.
	ExactDedup bool
	// Deadline aborts the search when passed (checked periodically);
	// zero means none.
	Deadline time.Time
	// Ctx aborts the search when cancelled (nil = never); the parallel
	// harnesses cancel losing portfolio runs through it. Composes with
	// Deadline — whichever expires first stops the search with
	// TimedOut=true.
	Ctx context.Context
	// Obs, when non-nil, receives the exploration counters
	// ("ra.states", "ra.transitions", "ra.revisits", and the
	// read-choice branching instruments "ra.branch_points" /
	// "ra.branch_choices") and gauges ("ra.max_depth",
	// "ra.peak_messages").
	Obs *obs.Recorder
	// CaptureViews makes the emitted trace events carry per-step view
	// snapshots (see System.CaptureViews); enable it when the trace is
	// exported for offline inspection. The flag is scoped to this run:
	// it is threaded through successor generation without mutating the
	// System, which may be shared across concurrent explorations.
	CaptureViews bool
}

// Result is the outcome of an exploration.
type Result struct {
	// Violation is true if a failing assertion was found.
	Violation bool
	// Violations counts the violating transitions encountered; at most
	// 1 under StopOnViolation, the full census otherwise.
	Violations int
	// TargetReached is true if the TargetLabels configuration was found.
	TargetReached bool
	// Trace witnesses the violation or target, when found. With
	// StopOnViolation=false it witnesses the first violation seen.
	Trace *trace.Trace
	// States and Transitions count distinct visited states and explored
	// transitions.
	States, Transitions int
	// Exhausted is true if the state space was fully explored within the
	// given bounds (so "no violation" is conclusive for those bounds).
	// A search that stopped at a violation or target is not exhausted;
	// one that ran past violations (StopOnViolation=false) to full
	// coverage is.
	Exhausted bool
	// TimedOut is true when the Deadline or a cancelled Ctx cut the
	// search short.
	TimedOut bool
	// PeakMessages is the largest message pool seen.
	PeakMessages int
}

// Explore runs a depth-first search over the RA transition system with
// state dedup, on a work-stealing pool of Options.Workers workers.
// Under a view bound, states are keyed by (configuration, switches
// used) — see appendSwitchSuffix — so the reached node set is a
// property of the annotated state graph alone and every pool width
// agrees exactly. Each expansion pushes its children in reverse, so a
// one-worker pool pops them in scan order and its stopped searches are
// deterministic too. The frontier lives in the pool's heap-allocated
// deques, so deep MaxSteps runs (looping programs) cannot overflow the
// goroutine stack.
func (s *System) Explore(opts Options) Result {
	span := opts.Obs.StartPhase("ra.explore")
	span.SetAttrInt("view_bound", int64(opts.ViewBound))
	defer span.End()
	workers := resolveWorkers(opts.Workers)
	span.SetAttrInt("workers", int64(workers))
	return s.newExplorer(opts, workers).run()
}

// flushStride is how many expansions pass between telemetry flushes.
// The step counter (unlike the visited-state count, which stalls once
// dedup saturates) advances on every expansion. Cancellation needs no
// stride: the pool polls the context before every pop.
const flushStride = 1024

// errStopSearch is returned by a worker's expand to halt the whole pool
// on a terminal condition: first violation under StopOnViolation, the
// target configuration, or the MaxStates cap.
var errStopSearch = errors.New("ra: search stopped")

// testExpandHook, when non-nil, runs at the top of every expansion. The
// worker-panic regression test injects a crash here to prove a dying
// worker surfaces as a panic on the caller, not a hang.
var testExpandHook func(worker, depth int)

// resolveWorkers maps Options.Workers to a pool width: 0 and 1 select
// one worker, n > 1 exactly n workers, negative all CPUs.
func resolveWorkers(w int) int {
	if w < 0 {
		return runtime.NumCPU()
	}
	return max(w, 1)
}

// pathNode is one link of a frontier item's path to a state. Workers
// interleave unrelated subtrees, so each item carries an immutable
// parent chain, shared structurally between siblings.
type pathNode struct {
	parent *pathNode
	event  trace.Event
}

// toTrace materialises the chain root-first, appending extra events
// (the violating transition itself, which never becomes a frontier
// item). Safe on a nil chain (a violation right out of the root).
func (n *pathNode) toTrace(extra ...trace.Event) *trace.Trace {
	depth := 0
	for m := n; m != nil; m = m.parent {
		depth++
	}
	events := make([]trace.Event, depth+len(extra))
	i := depth
	for m := n; m != nil; m = m.parent {
		i--
		events[i] = m.event
	}
	copy(events[depth:], extra)
	return &trace.Trace{Events: events}
}

// pitem is one frontier item: a configuration plus the search
// coordinates it is entered with. last is the process that moved last
// (-1 initially) and contexts the number of scheduling blocks so far;
// both are only keyed under a context bound.
type pitem struct {
	cfg      *Config
	path     *pathNode
	depth    int
	last     int
	contexts int
	switches int
}

// explorer is the shared state of one exploration. Counters are atomics
// the workers update directly; the terminal artifacts (stop-mode trace,
// target flag, census minimum) go under stopMu.
type explorer struct {
	sys     *System
	opts    Options
	workers int
	visited *fp.ShardedSet
	capture bool // per-run view snapshotting

	states       atomic.Int64
	transitions  atomic.Int64
	violations   atomic.Int64
	revisits     atomic.Int64
	steps        atomic.Int64
	peakMessages atomic.Int64
	incomplete   atomic.Bool // MaxSteps or MaxStates cut a branch

	stopMu        sync.Mutex
	stopTrace     *trace.Trace
	targetReached bool
	// bestVFP is the smallest violation fingerprint of the census, the
	// schedule-independent witness tie-break; bestTrace is its path,
	// kept only by a one-worker pool, whose paths are fixed (a wider
	// pool regenerates it, see regenWitness). directed/stopAtVFP turn
	// the census into that regeneration run.
	bestVFP   uint64
	bestTrace *trace.Trace
	directed  bool
	stopAtVFP uint64

	// Per-worker reusable scratch: bufs keeps encode+probe
	// allocation-free per worker, and kids collects an expansion's
	// children before they are pushed in reverse.
	bufs [][]byte
	kids [][]pitem

	cStates, cTransitions, cRevisits *obs.Counter
	cBranchPoints, cBranchChoices    *obs.Counter
	gMaxDepth, gPeakMessages         *obs.Gauge

	stats   *obs.SearchStats // live telemetry; nil when Obs is nil
	flushMu sync.Mutex
	mark    flushMark // totals as of the last stats flush
}

// flushMark remembers the totals already pushed into the SearchStats
// block, so each flush adds only the delta since the previous one.
type flushMark struct {
	states, transitions, probes, hits, violations int
}

func (s *System) newExplorer(opts Options, workers int) *explorer {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 1 << 20
	}
	e := &explorer{
		sys:     s,
		opts:    opts,
		workers: workers,
		visited: fp.NewShardedSet(opts.ExactDedup, workers),
		capture: opts.CaptureViews || s.CaptureViews,
		bestVFP: ^uint64(0),
		bufs:    make([][]byte, workers),
		kids:    make([][]pitem, workers),
	}
	e.cStates = opts.Obs.Counter("ra.states")
	e.cTransitions = opts.Obs.Counter("ra.transitions")
	e.cRevisits = opts.Obs.Counter("ra.revisits")
	e.cBranchPoints = opts.Obs.Counter("ra.branch_points")
	e.cBranchChoices = opts.Obs.Counter("ra.branch_choices")
	e.gMaxDepth = opts.Obs.Gauge("ra.max_depth")
	e.gPeakMessages = opts.Obs.Gauge("ra.peak_messages")
	e.stats = opts.Obs.Search()
	return e
}

// run drives the pool from the initial configuration. The dedup
// discipline (expand) makes the explored node set schedule-invariant,
// so in census mode every width reproduces the same
// States/Transitions/Violations and witness. Stopped searches
// (violation under StopOnViolation, target) wider than one worker
// report whichever worker won, with a valid witness reconstructed from
// its path chain.
func (e *explorer) run() Result {
	// The final flush lands the run's totals in the stats block, so the
	// last telemetry sample matches the Result exactly.
	defer e.finalFlush()
	ctx := e.opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if !e.opts.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, e.opts.Deadline)
		defer cancel()
	}
	// An already-expired context aborts before the first state, so
	// callers handing out tiny time slices get them honoured.
	if ctx.Err() != nil {
		return Result{TimedOut: true}
	}

	root := []pitem{{cfg: e.sys.Init(), last: -1}}
	err := sched.NewSteal[pitem](e.workers, e.opts.StealSeed).Run(ctx, root, e.expand)
	var pe *sched.PanicError
	if errors.As(err, &pe) {
		// A worker panic is a broken invariant, not a verdict: re-raise
		// it on the caller.
		panic(pe)
	}

	// Every worker has joined: the shared state is read without locks.
	res := Result{
		States:        int(e.states.Load()),
		Transitions:   int(e.transitions.Load()),
		Violations:    int(e.violations.Load()),
		PeakMessages:  int(e.peakMessages.Load()),
		TargetReached: e.targetReached,
		Trace:         e.stopTrace,
	}
	res.Violation = res.Violations > 0
	if err != nil && !errors.Is(err, errStopSearch) {
		res.TimedOut = true
	}
	res.Exhausted = !e.incomplete.Load() && !res.TimedOut &&
		!res.TargetReached && !(res.Violation && e.opts.StopOnViolation)
	if res.Violation && !e.opts.StopOnViolation && !e.directed && !res.TargetReached && !res.TimedOut {
		res.Trace = e.bestTrace
		if e.workers > 1 {
			res.Trace = e.sys.regenWitness(e.opts, e.bestVFP)
		}
	}
	return res
}

// regenWitness reruns the census on a one-worker pool in directed mode,
// stopping at the violation whose fingerprint a wider census selected.
// The replay shares the dedup discipline, so it walks the same node set
// and must encounter the fingerprint; its path is the canonical witness
// the one-worker census records. Observability and budgets are
// stripped: the replay must neither double-count telemetry nor be cut
// short of the known violation.
func (s *System) regenWitness(opts Options, vfp uint64) *trace.Trace {
	opts.Obs = nil
	opts.Ctx = nil
	opts.Deadline = time.Time{}
	opts.MaxStates = 0
	e := s.newExplorer(opts, 1)
	e.directed, e.stopAtVFP = true, vfp
	return e.run().Trace
}

// expand visits one frontier item: dedup, counters, caps and target
// checks, then the scan over its transitions, whose accepted children
// are pushed in reverse scan order.
func (e *explorer) expand(ctx context.Context, w int, it pitem, push func(pitem), f sched.Frontier) error {
	if hook := testExpandHook; hook != nil {
		hook(w, it.depth)
	}
	if e.steps.Add(1)%flushStride == 0 {
		e.flush(f)
	}
	// Order-independent dedup: every active budget coordinate is folded
	// into the key, so whether a node is explored depends only on the
	// node — never on which path or worker reached it first. Every pool
	// width therefore expands the same node set (the parity discipline).
	buf := e.sys.AppendDedupKey(it.cfg, e.bufs[w][:0])
	if e.opts.ContextBound > 0 {
		buf = appendCtxSuffix(buf, it.last, it.contexts)
	}
	if e.opts.ViewBound >= 0 {
		buf = appendSwitchSuffix(buf, it.switches)
	}
	e.bufs[w] = buf
	h := fp.Hash64(buf)
	if !e.visited.VisitHash(h, buf) {
		e.revisits.Add(1)
		e.cRevisits.Inc()
		return nil
	}
	states := e.states.Add(1)
	e.cStates.Inc()
	e.gMaxDepth.SetMax(int64(it.depth))
	if n := int64(it.cfg.MsgCount()); n > e.peakMessages.Load() {
		storeMax(&e.peakMessages, n)
		e.gPeakMessages.SetMax(n)
	}
	if e.opts.MaxStates > 0 && states >= int64(e.opts.MaxStates) {
		e.incomplete.Store(true)
		return errStopSearch
	}
	if e.sys.targetAt(it.cfg, e.opts.TargetLabels) {
		e.stopMu.Lock()
		if !e.targetReached {
			e.targetReached = true
			e.stopTrace = it.path.toTrace()
		}
		e.stopMu.Unlock()
		return errStopSearch
	}
	if it.depth >= e.opts.MaxSteps {
		e.incomplete.Store(true)
		return nil
	}
	kids := e.kids[w][:0]
	ord := 0 // transition ordinal within this node, for MixOrdinal
	for proc := 0; proc < e.sys.NumProcs(); proc++ {
		nc := it.contexts
		if proc != it.last {
			nc++
			if e.opts.ContextBound > 0 && nc > e.opts.ContextBound {
				continue
			}
		}
		succs := e.sys.successors(it.cfg, proc, e.capture)
		// A process with several successors is at a read with several
		// coherent messages (or a nondet): a read-choice branch point.
		if len(succs) > 1 {
			e.cBranchPoints.Inc()
			e.cBranchChoices.Add(int64(len(succs)))
		}
		for _, succ := range succs {
			vord := ord
			ord++
			e.transitions.Add(1)
			e.cTransitions.Inc()
			if succ.Violation {
				if err := e.violation(fp.MixOrdinal(h, vord), it.path, succ.Event); err != nil {
					return err
				}
				continue
			}
			if succ.ViewSwitch && e.opts.ViewBound >= 0 && it.switches >= e.opts.ViewBound {
				continue
			}
			ns := it.switches
			if succ.ViewSwitch {
				ns++
			}
			kids = append(kids, pitem{
				cfg:      succ.Config,
				path:     &pathNode{parent: it.path, event: succ.Event},
				depth:    it.depth + 1,
				last:     proc,
				contexts: nc,
				switches: ns,
			})
		}
	}
	// Reverse, so the owner's LIFO pops the children in scan order.
	for i := len(kids) - 1; i >= 0; i-- {
		push(kids[i])
	}
	clear(kids)
	e.kids[w] = kids[:0]
	return nil
}

// violation records one violating transition with fingerprint vfp out
// of the state at path; a non-nil error stops the search.
func (e *explorer) violation(vfp uint64, path *pathNode, ev trace.Event) error {
	e.violations.Add(1)
	e.stopMu.Lock()
	defer e.stopMu.Unlock()
	switch {
	case e.directed:
		if vfp != e.stopAtVFP {
			return nil
		}
	case !e.opts.StopOnViolation:
		// Census witness: the minimal fingerprint wins, a tie-break any
		// worker can apply locally.
		if vfp < e.bestVFP {
			e.bestVFP = vfp
			if e.workers == 1 {
				e.bestTrace = path.toTrace(ev)
			}
		}
		return nil
	}
	if e.stopTrace == nil {
		e.stopTrace = path.toTrace(ev)
	}
	return errStopSearch
}

// flush pushes since-last-flush deltas into the live telemetry block,
// plus the pending frontier and visited-set occupancy. The mark lives
// under flushMu so concurrent flushes never double-count a delta:
// totals in the sampled series only ever grow.
func (e *explorer) flush(f sched.Frontier) {
	if e.stats == nil {
		return
	}
	e.flushMu.Lock()
	cur := flushMark{
		states:      int(e.states.Load()),
		transitions: int(e.transitions.Load()),
		probes:      int(e.steps.Load()),
		hits:        int(e.revisits.Load()),
		violations:  int(e.violations.Load()),
	}
	e.stats.Add(
		int64(cur.states-e.mark.states),
		int64(cur.transitions-e.mark.transitions),
		int64(cur.probes-e.mark.probes),
		int64(cur.hits-e.mark.hits),
		int64(cur.violations-e.mark.violations),
	)
	e.mark = cur
	e.flushMu.Unlock()
	if f != nil {
		e.stats.SetFrontier(f.Pending())
	}
	e.stats.SetVisited(int64(e.visited.Len()), e.visited.ApproxBytes())
}

// finalFlush lands the run's totals after the pool has drained, so the
// last telemetry sample matches the Result exactly.
func (e *explorer) finalFlush() {
	if e.stats == nil {
		return
	}
	e.flush(nil)
	e.stats.SetFrontier(0)
}

// storeMax raises a to v if v is larger (lock-free running maximum).
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// targetAt reports whether every process listed in targets is at its
// label in c.
func (s *System) targetAt(c *Config, targets map[string]string) bool {
	if len(targets) == 0 {
		return false
	}
	for name, label := range targets {
		pi := s.Prog.ProcIndex(name)
		if pi < 0 {
			return false
		}
		if s.Prog.Procs[pi].LabelAt(c.pcs[pi]) != label {
			return false
		}
	}
	return true
}

// ReachableOutcomes exhaustively enumerates, for loop-free programs, the
// set of final register valuations of terminated executions. It is the
// litmus-test oracle: the observable outcome of a litmus test is the
// final content of its observer registers. The map keys are produced by
// render(regs) where regs gives per-process register files.
//
// The visited set is keyed on the full configuration and memoizes the
// minimum depth at which a state was reached: a state re-reached with
// more remaining budget (smaller depth) is re-explored, so a deep first
// visit whose successors were cut by maxSteps can never mask outcomes
// still reachable along a shorter path. Being the oracle, it always
// retains exact keys — a fingerprint collision here would silently drop
// an outcome.
func (s *System) ReachableOutcomes(maxSteps int, render func(c *Config) string) map[string]bool {
	out := map[string]bool{}
	if maxSteps == 0 {
		maxSteps = 1 << 20
	}
	visited := fp.NewSet(true)
	var keyBuf []byte
	// expand visits one state at the given depth: dedup on (key, depth),
	// terminal-outcome detection, and successor collection.
	expand := func(c *Config, depth int) []*Config {
		keyBuf = c.AppendKey(keyBuf[:0])
		if !visited.Visit(keyBuf, depth) {
			return nil
		}
		allDone := true
		anyStep := false
		var kids []*Config
		for p := 0; p < s.NumProcs(); p++ {
			if !s.Prog.Procs[p].Terminated(c.pcs[p]) {
				allDone = false
			}
			if depth >= maxSteps {
				continue
			}
			for _, succ := range s.Successors(c, p) {
				if succ.Violation {
					continue
				}
				anyStep = true
				kids = append(kids, succ.Config)
			}
		}
		if allDone && !anyStep {
			out[render(c)] = true
		}
		return kids
	}
	type oframe struct {
		kids  []*Config
		idx   int
		depth int // depth of the kids
	}
	var stack []oframe
	if kids := expand(s.Init(), 0); len(kids) > 0 {
		stack = append(stack, oframe{kids: kids, depth: 1})
	}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx == len(f.kids) {
			stack = stack[:len(stack)-1]
			continue
		}
		c := f.kids[f.idx]
		f.idx++
		if kids := expand(c, f.depth); len(kids) > 0 {
			stack = append(stack, oframe{kids: kids, depth: f.depth + 1})
		}
	}
	return out
}
