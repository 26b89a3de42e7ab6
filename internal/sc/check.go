package sc

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ravbmc/internal/fp"
	"ravbmc/internal/lang"
	"ravbmc/internal/obs"
	"ravbmc/internal/sched"
	"ravbmc/internal/trace"
)

// Options configures the context-bounded checker.
type Options struct {
	// MaxContexts bounds the number of contexts (maximal blocks of steps
	// by one process); 0 or negative means unbounded. The paper's
	// reduction needs K+n contexts for a K-view-bounded RA run of an
	// n-process program.
	MaxContexts int
	// MaxStates aborts the search after visiting this many distinct
	// quiescent states (Exhausted=false); 0 means unlimited.
	MaxStates int
	// TargetLabels maps process names to labels; reached when all listed
	// processes are simultaneously at their labels.
	TargetLabels map[string]string
	// Deadline aborts the search when passed (checked periodically);
	// zero means none. An aborted search reports Exhausted=false and
	// TimedOut=true.
	Deadline time.Time
	// Ctx aborts the search when cancelled (nil = never): the parallel
	// harnesses (internal/sched callers) cancel losing portfolio runs
	// through it. A non-zero Deadline composes with it — whichever
	// expires first stops the search, with the same
	// Exhausted=false/TimedOut=true outcome.
	Ctx context.Context
	// ReverseProcs flips the process iteration order of the scheduler.
	// Searches biased towards different processes find bugs located in
	// different threads; the VBMC driver alternates both orders.
	ReverseProcs bool
	// ExactDedup makes the visited set retain full state keys instead of
	// 64-bit fingerprints. See ra.Options.ExactDedup and internal/fp.
	ExactDedup bool
	// CensusViolations makes the search continue past failing assertions
	// instead of stopping at the first (the zero value keeps the
	// stop-at-first behaviour): Result.Violations counts every violating
	// macro-step, Result.Trace witnesses the violation with the minimal
	// fingerprint (init-closure violations, scanned in their
	// deterministic order, take priority), and Exhausted reports full
	// coverage. Census results are schedule-invariant, which is what the
	// pool-width parity harness (internal/partest) asserts.
	CensusViolations bool
	// Reduce enables partial-order reduction: at each state only a
	// persistent set of processes is scheduled, pruned further by sleep
	// sets (see reduce.go and DESIGN.md). Reduction requires an acyclic
	// macro-step graph, so it silently falls back to the unreduced
	// search for programs with loops (run lang.Unroll first) or more
	// than 64 processes, and it is disabled under TargetLabels
	// (reduction preserves violations and final states, not arbitrary
	// intermediate global label combinations). Because commuting
	// independent steps changes context-switch counts, a reduced search
	// always runs with an unbounded context bound: MaxContexts is
	// forced to 0, which only ever adds behaviours, so SAFE+Exhausted
	// remains conclusive for any bound and UNSAFE witnesses are real.
	// A reduced search always runs on one worker, whatever Workers
	// says: its sleep-set bookkeeping depends on visit order, and a
	// one-worker pool fixes that order, so counts and witness are the
	// same at every Workers value.
	Reduce bool
	// Workers is the width of the work-stealing pool every search runs
	// on: 0 and 1 both mean one depth-first worker, n > 1 that many
	// workers, negative all CPUs. See ra.Options.Workers for the
	// determinism contract.
	Workers int
	// StealSeed seeds the pool's steal-order RNG; see
	// ra.Options.StealSeed.
	StealSeed int64
	// Obs, when non-nil, receives the search counters ("sc.states",
	// "sc.transitions", "sc.dedup_hits", "sc.dedup_misses",
	// "sc.macro_steps") and gauges ("sc.max_depth",
	// "sc.max_contexts_used"). Repeated Check calls against the same
	// recorder accumulate, so the VBMC restart ladder reports totals.
	Obs *obs.Recorder
}

// Result is the outcome of a bounded SC model-checking run.
type Result struct {
	Violation     bool
	TargetReached bool
	Trace         *trace.Trace
	States        int
	Transitions   int
	// Violations counts the violating macro-steps encountered: at most
	// 1 in the default stop-at-first mode, the full census under
	// CensusViolations.
	Violations int
	// Exhausted is true if every quiescent state reachable within the
	// context bound was covered, so "no violation" is conclusive for
	// that bound.
	Exhausted bool
	// TimedOut is true when the Deadline or a cancelled Ctx cut the
	// search short.
	TimedOut bool
}

// flushStride is how many expansions pass between telemetry flushes:
// flushing on every expansion is measurable, so it is sampled. The
// step counter (unlike the visited-state count) advances on every
// expansion including dedup hits. Cancellation needs no stride: the
// pool polls the context before every pop.
const flushStride = 1024

// errStopSearch halts the pool on a terminal condition: first violation
// (stop mode), the target configuration, or the MaxStates cap.
var errStopSearch = errors.New("sc: search stopped")

// testExpandHook mirrors ra's hook: the worker-panic regression test
// injects a crash at the top of an expansion.
var testExpandHook func(worker, depth int)

// resolveWorkers maps Options.Workers to a pool width: 0 and 1 select
// one worker, n > 1 exactly n workers, negative all CPUs.
func resolveWorkers(w int) int {
	if w < 0 {
		return runtime.NumCPU()
	}
	return max(w, 1)
}

// Check explores the SC transition system of the program at macro-step
// granularity under the context bound, on a work-stealing pool of
// Options.Workers workers. Each expansion pushes its children in
// reverse, so a one-worker pool pops them in scan order: a depth-first
// search whose states, counts and witnesses are fixed by the program
// and options alone. The frontier lives in the pool's heap-allocated
// deques, so restart-ladder rounds with deep macro-step paths cannot
// overflow the goroutine stack.
func (s *System) Check(opts Options) Result {
	span := opts.Obs.StartPhase("sc.check")
	span.SetAttrInt("max_contexts", int64(opts.MaxContexts))
	defer span.End()
	workers := resolveWorkers(opts.Workers)
	if opts.Reduce {
		if len(opts.TargetLabels) > 0 || !s.ReduceApplies() {
			opts.Reduce = false
		} else {
			opts.MaxContexts = 0
			workers = 1
		}
	}
	span.SetAttrInt("workers", int64(workers))
	return s.newChecker(opts, workers).run()
}

// scPathNode is one link of a frontier item's path to a state: the
// macro step of process proc that took its idx-th outcome (violating
// ones included). A root link has no parent and idx indexes the initial
// closure. Chains are immutable and shared structurally between
// siblings; replay turns one back into trace events.
type scPathNode struct {
	parent    *scPathNode
	proc, idx int32
}

// replay rebuilds the trace of the path ending at n by re-running its
// macro steps with event recording on: linear in the witness length,
// and the only place the SC engine builds trace events.
func (s *System) replay(n *scPathNode) *trace.Trace {
	var chain []*scPathNode
	for m := n; m != nil; m = m.parent {
		chain = append(chain, m)
	}
	oc := s.initClosure(s.Init(), recEvents)[chain[len(chain)-1].idx]
	events := append([]trace.Event{}, oc.log.events...)
	for i := len(chain) - 2; i >= 0; i-- {
		oc = s.macroStep(&oc.cfg, int(chain[i].proc), recEvents, nil)[chain[i].idx]
		events = append(events, oc.log.events...)
	}
	return &trace.Trace{Events: events}
}

// scItem is one frontier item: a configuration plus the search
// coordinates it is entered with.
type scItem struct {
	cfg      Config
	path     *scPathNode
	depth    int
	contexts int
	// sleep is the item's inherited sleep mask (reduced search only).
	sleep uint64
}

// checker is the shared state of one Check. Counters are atomics the
// workers update directly; the terminal artifacts (stop-mode path,
// target flag, census minimum) go under stopMu.
type checker struct {
	sys     *System
	opts    Options
	workers int
	visited *fp.ShardedSet

	states      atomic.Int64
	transitions atomic.Int64
	violations  atomic.Int64
	dedupHits   atomic.Int64
	steps       atomic.Int64
	incomplete  atomic.Bool

	stopMu        sync.Mutex
	stopPath      *scPathNode
	targetReached bool
	// bestVFP is the smallest violation fingerprint of the census, the
	// schedule-independent witness tie-break; bestPath is its path,
	// kept only by a one-worker pool, whose paths are fixed (a wider
	// pool regenerates it, see regenWitness). directed/stopAtVFP turn
	// the census into that regeneration run.
	bestVFP   uint64
	bestPath  *scPathNode
	directed  bool
	stopAtVFP uint64

	// Per-worker reusable scratch: the zero-alloc encode+probe
	// guarantee holds per worker; outs receives one macro step's
	// outcomes, and kids/links collect an expansion's children and
	// their path links before they are pushed in reverse.
	bufs   [][]byte
	orders [][]int
	outs   [][]outcome
	kids   [][]scItem
	links  [][]scPathNode

	// Reduced-search state (Options.Reduce, always one worker): the
	// visited maps store the first-visit sleep mask per state
	// (fingerprint or exact keyed), psQueue/execFoot are reusable
	// scratch. See reduce.go.
	rm         map[uint64]uint64
	rmEx       map[string]uint64
	rmKeyBytes int64
	psQueue    []int
	execFoot   locFoot

	cStates, cTransitions    *obs.Counter
	cDedupHits, cDedupMisses *obs.Counter
	cMacroSteps              *obs.Counter
	gMaxDepth, gMaxContexts  *obs.Gauge

	stats   *obs.SearchStats // live telemetry; nil when Obs is nil
	flushMu sync.Mutex
	mark    flushMark // totals as of the last stats flush
}

// flushMark remembers the totals already pushed into the SearchStats
// block, so each flush adds only the delta since the previous one.
type flushMark struct {
	states, transitions, probes, hits, violations int
}

func (s *System) newChecker(opts Options, workers int) *checker {
	c := &checker{
		sys:     s,
		opts:    opts,
		workers: workers,
		bestVFP: ^uint64(0),
		bufs:    make([][]byte, workers),
		orders:  make([][]int, workers),
		outs:    make([][]outcome, workers),
		kids:    make([][]scItem, workers),
		links:   make([][]scPathNode, workers),
	}
	switch {
	case !opts.Reduce:
		c.visited = fp.NewShardedSet(opts.ExactDedup, workers)
	case opts.ExactDedup:
		c.rmEx = make(map[string]uint64)
	default:
		c.rm = make(map[uint64]uint64)
	}
	c.cStates = opts.Obs.Counter("sc.states")
	c.cTransitions = opts.Obs.Counter("sc.transitions")
	c.cDedupHits = opts.Obs.Counter("sc.dedup_hits")
	c.cDedupMisses = opts.Obs.Counter("sc.dedup_misses")
	c.cMacroSteps = opts.Obs.Counter("sc.macro_steps")
	c.gMaxDepth = opts.Obs.Gauge("sc.max_depth")
	c.gMaxContexts = opts.Obs.Gauge("sc.max_contexts_used")
	c.stats = opts.Obs.Search()
	return c
}

// run scans the initial closure, then drives the pool from its
// non-violating states. The dedup discipline makes the explored node
// set schedule-invariant, so under CensusViolations every width
// reproduces the same States/Transitions/Violations and witness;
// stop-mode searches wider than one worker report whichever worker won.
func (c *checker) run() Result {
	// The final flush lands the run's totals in the stats block, so the
	// last telemetry sample matches the Result exactly. Stats accumulate
	// across restart-ladder rounds like the counters do.
	defer c.finalFlush()
	ctx := c.opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if !c.opts.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, c.opts.Deadline)
		defer cancel()
	}
	// A context that is already expired aborts before the first state:
	// restart-ladder rounds scheduled after an expired budget must not
	// search at all.
	if ctx.Err() != nil {
		return Result{TimedOut: true}
	}

	// The initial closure is scanned in its deterministic order before
	// any worker starts: its violations are counted (and, in stop mode,
	// terminal), and the first one is a schedule-invariant witness that
	// outranks any search violation under the census.
	var res Result
	var roots []scItem
	initWitness := false
	for i, oc := range c.sys.initClosure(c.sys.Init(), 0) {
		if oc.violation {
			res.Violation = true
			res.Violations++
			if res.Trace == nil {
				res.Trace = c.sys.replay(&scPathNode{idx: int32(i)})
				initWitness = true
			}
			if !c.opts.CensusViolations {
				return res
			}
			continue
		}
		roots = append(roots, scItem{cfg: oc.cfg, path: &scPathNode{idx: int32(i)}})
	}
	slices.Reverse(roots)

	err := sched.NewSteal[scItem](c.workers, c.opts.StealSeed).Run(ctx, roots, c.expand)
	var pe *sched.PanicError
	if errors.As(err, &pe) {
		// A worker panic is a broken invariant, not a verdict: re-raise
		// it on the caller.
		panic(pe)
	}

	// Every worker has joined: the shared state is read without locks.
	res.States = int(c.states.Load())
	res.Transitions = int(c.transitions.Load())
	res.Violations += int(c.violations.Load())
	res.Violation = res.Violations > 0
	res.TargetReached = c.targetReached
	if res.Trace == nil && c.stopPath != nil {
		res.Trace = c.sys.replay(c.stopPath)
	}
	if err != nil && !errors.Is(err, errStopSearch) {
		res.TimedOut = true
	}
	res.Exhausted = !c.incomplete.Load() && !res.TimedOut &&
		!res.TargetReached && !(res.Violation && !c.opts.CensusViolations)
	if c.opts.CensusViolations && !c.directed && c.violations.Load() > 0 &&
		!initWitness && !res.TargetReached && !res.TimedOut {
		if c.workers > 1 {
			res.Trace = c.sys.regenWitness(c.opts, c.bestVFP)
		} else {
			res.Trace = c.sys.replay(c.bestPath)
		}
	}
	return res
}

// regenWitness reruns the census on a one-worker pool in directed mode,
// stopping at the violation whose fingerprint a wider census selected;
// its path is the canonical witness the one-worker census records.
// Telemetry and budgets are stripped from the replay.
func (s *System) regenWitness(opts Options, vfp uint64) *trace.Trace {
	opts.Obs = nil
	opts.Ctx = nil
	opts.Deadline = time.Time{}
	opts.MaxStates = 0
	c := s.newChecker(opts, 1)
	c.directed, c.stopAtVFP = true, vfp
	return c.run().Trace
}

// expand visits one frontier item: dedup, counters, caps and target
// checks, then the scan over its macro-steps, whose children are pushed
// in reverse scan order.
func (c *checker) expand(ctx context.Context, w int, it scItem, push func(scItem), f sched.Frontier) error {
	if hook := testExpandHook; hook != nil {
		hook(w, it.depth)
	}
	if c.steps.Add(1)%flushStride == 0 {
		c.flush(f)
	}
	if c.opts.Reduce {
		return c.expandReduced(it, push)
	}
	// Order-independent dedup (mirroring ra): under a context bound the
	// contexts-used coordinate is folded into the key, so whether a node
	// is explored depends only on the node itself, never on discovery
	// order. DedupKey ends with the current-process value, so one more
	// appended value stays injective within a run.
	buf := c.sys.DedupKey(&it.cfg, c.bufs[w][:0])
	if c.opts.MaxContexts > 0 {
		buf = appendVal(buf, lang.Value(it.contexts))
	}
	c.bufs[w] = buf
	h := fp.Hash64(buf)
	if !c.visited.VisitHash(h, buf) {
		c.dedupHits.Add(1)
		c.cDedupHits.Inc()
		return nil
	}
	c.gMaxContexts.SetMax(int64(it.contexts))
	if err := c.enter(it); err != nil {
		return err
	}
	if c.sys.targetAt(&it.cfg, c.opts.TargetLabels) {
		c.stopMu.Lock()
		if !c.targetReached {
			c.targetReached = true
			c.stopPath = it.path
		}
		c.stopMu.Unlock()
		return errStopSearch
	}
	// Try the process holding the context first: near-serial schedules
	// are explored before heavily preempted ones, so counterexamples
	// that deviate from a serial run in few, late places (the typical
	// shape of mutual-exclusion bugs) are found early.
	cfg := &it.cfg
	kids, links := c.kids[w][:0], c.links[w][:0]
	ord := 0 // macro-step ordinal within this node, for MixOrdinal
	for _, p := range c.scanOrder(cfg, w) {
		if c.sys.status(cfg, p) != statusReady {
			continue
		}
		nc := it.contexts
		if cfg.cur != p {
			nc++
			if c.opts.MaxContexts > 0 && nc > c.opts.MaxContexts {
				continue
			}
		}
		c.cMacroSteps.Inc()
		outs := c.sys.macroStep(cfg, p, 0, c.outs[w][:0])
		for i, oc := range outs {
			vord := ord
			ord++
			c.transitions.Add(1)
			c.cTransitions.Inc()
			link := scPathNode{parent: it.path, proc: int32(p), idx: int32(i)}
			if oc.violation {
				if err := c.violation(fp.MixOrdinal(h, vord), link); err != nil {
					return err
				}
				continue
			}
			kids = append(kids, scItem{cfg: oc.cfg, depth: it.depth + 1, contexts: nc})
			links = append(links, link)
		}
		clear(outs)
		c.outs[w] = outs
	}
	c.kids[w], c.links[w] = pushReversed(kids, links, push)
	return nil
}

// enter counts a newly visited state and applies the MaxStates cap.
func (c *checker) enter(it scItem) error {
	states := c.states.Add(1)
	c.cStates.Inc()
	c.cDedupMisses.Inc()
	c.gMaxDepth.SetMax(int64(it.depth))
	if c.opts.MaxStates > 0 && states >= int64(c.opts.MaxStates) {
		c.incomplete.Store(true)
		return errStopSearch
	}
	return nil
}

// violation records the violating macro step ending path link; a
// non-nil error stops the search.
func (c *checker) violation(vfp uint64, link scPathNode) error {
	c.violations.Add(1)
	c.stopMu.Lock()
	defer c.stopMu.Unlock()
	switch {
	case c.directed:
		if vfp != c.stopAtVFP {
			return nil
		}
	case c.opts.CensusViolations:
		// Census witness: the minimal fingerprint wins, a tie-break any
		// worker can apply locally.
		if vfp < c.bestVFP {
			c.bestVFP = vfp
			if c.workers == 1 {
				c.bestPath = &link
			}
		}
		return nil
	}
	if c.stopPath == nil {
		c.stopPath = &link
	}
	return errStopSearch
}

// pushReversed gives the kids their path links, all backed by one
// allocation, and pushes them last to first, so the owner's LIFO pops
// them in scan order. It returns the cleared slices for reuse.
func pushReversed(kids []scItem, links []scPathNode, push func(scItem)) ([]scItem, []scPathNode) {
	nodes := slices.Clone(links)
	for i := len(kids) - 1; i >= 0; i-- {
		kids[i].path = &nodes[i]
		push(kids[i])
	}
	clear(kids)
	clear(links)
	return kids[:0], links[:0]
}

// scanOrder returns the canonical process scan order at cfg in worker
// w's scratch: the context holder first, then declaration (or
// reversed) order.
func (c *checker) scanOrder(cfg *Config, w int) []int {
	order := c.orders[w][:0]
	if cfg.cur >= 0 {
		order = append(order, cfg.cur)
	}
	n := len(c.sys.Prog.Procs)
	for i := 0; i < n; i++ {
		p := i
		if c.opts.ReverseProcs {
			p = n - 1 - i
		}
		if p != cfg.cur {
			order = append(order, p)
		}
	}
	c.orders[w] = order
	return order
}

// flush pushes since-last-flush deltas into the live telemetry block,
// plus the pending frontier and visited-set occupancy; the mark lives
// under flushMu so concurrent flushes never double-count and the
// sampled totals only ever grow.
func (c *checker) flush(f sched.Frontier) {
	if c.stats == nil {
		return
	}
	c.flushMu.Lock()
	cur := flushMark{
		states:      int(c.states.Load()),
		transitions: int(c.transitions.Load()),
		probes:      int(c.steps.Load()),
		hits:        int(c.dedupHits.Load()),
		violations:  int(c.violations.Load()),
	}
	c.stats.Add(
		int64(cur.states-c.mark.states),
		int64(cur.transitions-c.mark.transitions),
		int64(cur.probes-c.mark.probes),
		int64(cur.hits-c.mark.hits),
		int64(cur.violations-c.mark.violations),
	)
	c.mark = cur
	c.flushMu.Unlock()
	if f != nil {
		c.stats.SetFrontier(f.Pending())
	}
	if c.opts.Reduce {
		n, b := c.reducedVisited()
		c.stats.SetVisited(int64(n), b)
	} else {
		c.stats.SetVisited(int64(c.visited.Len()), c.visited.ApproxBytes())
	}
}

// finalFlush lands the run's totals after the pool has drained.
func (c *checker) finalFlush() {
	if c.stats == nil {
		return
	}
	c.flush(nil)
	c.stats.SetFrontier(0)
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
		if s.Prog.Procs[pi].LabelAt(s.pc(c, pi)) != label {
			return false
		}
	}
	return true
}
