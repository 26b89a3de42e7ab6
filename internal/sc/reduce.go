package sc

// Partial-order reduction for the macro-step SC checker.
//
// The reduced search explores, at each state, only a persistent set of
// processes (a source-set-style closure computed from the action
// metadata of the compiled program) further pruned by sleep sets. Two
// macro steps of different processes are independent when their shared
// footprints do not conflict (no location accessed by both with a write
// on either side): executing them in either order from the same state
// reaches the same state, so one representative interleaving suffices.
// A macro step's shared footprint is exactly its one visible operation
// (plus the body of its atomic block) — the trailing local run touches
// no shared state by construction — which is what makes the macro-step
// granularity such a good fit for the reduction.
//
// Soundness requires an acyclic macro-step graph (loop-unrolled
// programs; Check falls back to the unreduced search otherwise, see
// reduceTables.ok) and, because commuting independent steps changes
// context-switch counts, the reduced search always runs with an
// unbounded context bound: its state graph is then a subgraph of the
// unreduced unbounded one, so verdicts agree and state counts can only
// shrink. The sleep-set interaction with state dedup follows the
// classical state-caching rule: the visited set stores the sleep mask
// of the first visit, a revisit whose mask is a superset is pruned, and
// a revisit needing more is woken up for exactly the difference.

import (
	"sync"

	"ravbmc/internal/fp"
	"ravbmc/internal/lang"
)

// bitset is a fixed-width bit vector over shared locations (scalars
// first, then one bit per whole array — array accesses are tracked at
// whole-array granularity).
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i/64] |= 1 << uint(i%64) }

// or unions c into b and reports whether b changed.
func (b bitset) or(c bitset) bool {
	changed := false
	for i, w := range c {
		if b[i]|w != b[i] {
			b[i] |= w
			changed = true
		}
	}
	return changed
}

func (b bitset) intersects(c bitset) bool {
	for i := range b {
		if b[i]&c[i] != 0 {
			return true
		}
	}
	return false
}

func (b bitset) clear() {
	for i := range b {
		b[i] = 0
	}
}

// locFoot is a read/write footprint over shared locations.
type locFoot struct{ rd, wr bitset }

func newLocFoot(n int) locFoot { return locFoot{rd: newBitset(n), wr: newBitset(n)} }

// conflicts reports whether two footprints are dependent: a common
// location with a write on either side.
func (f locFoot) conflicts(g locFoot) bool {
	return f.wr.intersects(g.rd) || f.wr.intersects(g.wr) || f.rd.intersects(g.wr)
}

// reduceTables is the per-program static dependence metadata, computed
// once per System on first reduced search.
type reduceTables struct {
	// ok is false when the reduction does not apply: more than 64
	// processes (sleep masks are one word) or a cyclic control-flow
	// graph (non-unrolled loops make the macro-step graph cyclic, where
	// persistent sets with state dedup are unsound — the ignoring
	// problem). Check silently falls back to the unreduced search.
	ok bool
	// step[p][pc] over-approximates the shared footprint of the next
	// macro step of process p at pc: the first visible operation
	// reachable through local code, or the whole atomic block when that
	// operation opens one.
	step [][]locFoot
	// future[p][pc] over-approximates the shared footprint of every
	// instruction reachable from pc — the closure's "anything q may
	// ever do".
	future [][]locFoot
}

// nLocs returns the number of shared locations: scalars plus arrays.
func (s *System) nLocs() int { return len(s.Prog.Vars) + len(s.Prog.Arrays) }

// reduction returns the lazily-built dependence tables. The sync.Once
// makes it safe to build while concurrent searches share the System.
func (s *System) reduction() *reduceTables {
	s.redOnce.Do(func() { s.red = s.buildReduction() })
	return s.red
}

// ReduceApplies reports whether the partial-order reduction applies to
// this program (acyclic control flow, at most 64 processes).
func (s *System) ReduceApplies() bool { return s.reduction().ok }

// ownFoot adds the shared accesses of one instruction to f.
func (s *System) ownFoot(f locFoot, in *lang.Instr) {
	arr := len(s.Prog.Vars) + in.VarSlot // location of an array operand
	switch in.Op {
	case lang.OpReadVar:
		f.rd.set(in.VarSlot)
	case lang.OpWriteVar:
		f.wr.set(in.VarSlot)
	case lang.OpCASVar:
		// A CAS reads and writes its variable; a parked CAS is also
		// re-enabled by writes to it, which the read bit captures.
		f.rd.set(in.VarSlot)
		f.wr.set(in.VarSlot)
	case lang.OpLoadArrEl:
		f.rd.set(arr)
	case lang.OpStoreArrEl:
		f.wr.set(arr)
	}
}

func (s *System) buildReduction() *reduceTables {
	r := &reduceTables{}
	if len(s.Prog.Procs) > 64 {
		return r
	}
	// The reduction requires forward-only control flow (acyclic
	// macro-step graph). Compiled programs only have backward edges for
	// while loops and the term self-loop sink.
	for _, pr := range s.Prog.Procs {
		for pc := range pr.Code {
			in := &pr.Code[pc]
			if in.Op == lang.OpTermProc {
				continue
			}
			if in.Next <= pc || (in.Op == lang.OpCJmp && in.Else <= pc) {
				return r
			}
		}
	}
	n := s.nLocs()
	for _, pr := range s.Prog.Procs {
		code := pr.Code
		fut := make([]locFoot, len(code))
		stp := make([]locFoot, len(code))
		// Forward-only edges: one reverse pass computes both fixpoints.
		for pc := len(code) - 1; pc >= 0; pc-- {
			in := &code[pc]
			f := newLocFoot(n)
			s.ownFoot(f, in)
			if in.Op != lang.OpTermProc {
				f.rd.or(fut[in.Next].rd)
				f.wr.or(fut[in.Next].wr)
				if in.Op == lang.OpCJmp {
					f.rd.or(fut[in.Else].rd)
					f.wr.or(fut[in.Else].wr)
				}
			}
			fut[pc] = f
			switch {
			case in.Op == lang.OpAtomicBegin:
				stp[pc] = s.atomicFoot(pr, pc)
			case in.GloballyVisible():
				g := newLocFoot(n)
				s.ownFoot(g, in)
				stp[pc] = g
			case in.Op == lang.OpTermProc:
				stp[pc] = newLocFoot(n)
			default:
				// Local instruction: the next macro step starts at
				// whatever visible operation follows.
				g := newLocFoot(n)
				g.rd.or(stp[in.Next].rd)
				g.wr.or(stp[in.Next].wr)
				if in.Op == lang.OpCJmp {
					g.rd.or(stp[in.Else].rd)
					g.wr.or(stp[in.Else].wr)
				}
				stp[pc] = g
			}
		}
		r.future = append(r.future, fut)
		r.step = append(r.step, stp)
	}
	r.ok = true
	return r
}

// atomicFoot over-approximates the shared footprint of the atomic block
// opening at pc0: every instruction reachable before the matching
// AtomicEnd. The local run after the block touches no shared state, so
// this covers the whole macro step.
func (s *System) atomicFoot(pr *lang.CompiledProc, pc0 int) locFoot {
	f := newLocFoot(s.nLocs())
	type node struct{ pc, depth int }
	seen := map[node]bool{}
	stack := []node{{pr.Code[pc0].Next, 1}}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[nd] {
			continue
		}
		seen[nd] = true
		in := &pr.Code[nd.pc]
		switch in.Op {
		case lang.OpTermProc:
			continue
		case lang.OpAtomicBegin:
			stack = append(stack, node{in.Next, nd.depth + 1})
		case lang.OpAtomicEnd:
			if nd.depth > 1 {
				stack = append(stack, node{in.Next, nd.depth - 1})
			}
		case lang.OpCJmp:
			stack = append(stack, node{in.Next, nd.depth}, node{in.Else, nd.depth})
		default:
			s.ownFoot(f, in)
			stack = append(stack, node{in.Next, nd.depth})
		}
	}
	return f
}

// procBit is the sleep/persistent mask bit of process p.
func procBit(p int) uint64 { return 1 << uint(p) }

// persistentSet computes the persistent set at c: a deterministic
// source-set-style closure seeded with the context holder (or the first
// ready process in scan order). Invariant after the closure: no process
// outside the set can ever perform a step conflicting with the *next*
// step of any member, so deferring outsiders until after a member moved
// loses no behaviour. The returned mask is restricted to ready
// processes (stuck-at-CAS members contribute constraints but no
// transitions; permanently-stuck and terminated processes neither).
func (e *checker) persistentSet(c *Config) uint64 {
	r := e.sys.reduction()
	n := len(e.sys.Prog.Procs)
	var ready, live uint64
	for p := 0; p < n; p++ {
		in := &e.sys.Prog.Procs[p].Code[e.sys.pc(c, p)]
		switch e.sys.status(c, p) {
		case statusTerminated:
		case statusStuck:
			// A failed assume reads only the process's own registers,
			// which nothing else can change: stuck forever. A parked
			// CAS can be re-enabled by another process's write.
			if in.Op != lang.OpAssumeCond {
				live |= procBit(p)
			}
		case statusReady:
			ready |= procBit(p)
			live |= procBit(p)
		}
	}
	if ready == 0 {
		return 0
	}
	seed := -1
	for _, p := range e.scanOrder(c, &e.ws[0]) {
		if ready&procBit(p) != 0 {
			seed = p
			break
		}
	}
	var inP uint64
	queue := e.psQueue[:0]
	queue = append(queue, seed)
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if inP&procBit(p) != 0 {
			continue
		}
		inP |= procBit(p)
		pf := r.step[p][e.sys.pc(c, p)]
		for q := 0; q < n; q++ {
			if q == p || inP&procBit(q) != 0 || live&procBit(q) == 0 {
				continue
			}
			if r.future[q][e.sys.pc(c, q)].conflicts(pf) {
				queue = append(queue, q)
			}
		}
	}
	e.psQueue = queue[:0]
	return inP & ready
}

// stepFoot fills e.execFoot with the dynamic shared footprint of one
// executed macro step, as the interpreter recorded it (precise per
// nondeterministic branch, unlike the static tables).
func (e *checker) stepFoot(foot []int32) locFoot {
	if e.execFoot.rd == nil {
		e.execFoot = newLocFoot(e.sys.nLocs())
	}
	e.execFoot.rd.clear()
	e.execFoot.wr.clear()
	for _, a := range foot {
		if a&1 == 0 {
			e.execFoot.rd.set(int(a / 2))
		} else {
			e.execFoot.wr.set(int(a / 2))
		}
	}
	return e.execFoot
}

// filterSleep keeps asleep only the processes whose next step is
// independent of the executed step: the classical sleep-set inheritance
// rule.
func (e *checker) filterSleep(mask uint64, stepFoot locFoot, c *Config) uint64 {
	if mask == 0 {
		return 0
	}
	r := e.sys.reduction()
	out := mask
	for q := 0; mask != 0; q, mask = q+1, mask>>1 {
		if mask&1 == 0 {
			continue
		}
		if r.step[q][e.sys.pc(c, q)].conflicts(stepFoot) {
			out &^= procBit(q)
		}
	}
	return out
}

// lookupMask returns the stored first-visit sleep mask of the state
// encoded as key (hash h), if any.
func (e *checker) lookupMask(h uint64, key []byte) (uint64, bool) {
	if e.rmEx != nil {
		m, ok := e.rmEx[string(key)]
		return m, ok
	}
	m, ok := e.rm[h]
	return m, ok
}

func (e *checker) storeMask(h uint64, key []byte, m uint64) {
	if e.rmEx != nil {
		e.rmEx[string(key)] = m
		return
	}
	e.rm[h] = m
}

// reducedVisited returns the visited-set occupancy of the reduced
// search, for telemetry.
func (e *checker) reducedVisited() (int, int64) {
	if e.rmEx != nil {
		n := len(e.rmEx)
		return n, e.rmKeyBytes + int64(n)*exactMaskEntryBytes
	}
	return len(e.rm), int64(len(e.rm)) * fpMaskEntryBytes
}

// Per-entry map overheads of the mask maps, mirroring fp.Set's.
const (
	fpMaskEntryBytes    = 24
	exactMaskEntryBytes = 56
)

// expandReduced is expand for the reduced search: persistent-set
// restricted scan, sleep-mask-aware dedup with wake-ups, sleep
// inheritance into children. It always runs on a one-worker pool
// (Check forces it), so it owns worker 0's scratch and the mask maps,
// and its first-visit masks follow the fixed depth-first order. The
// context bound is always unbounded here, so the dedup key carries no
// contexts coordinate.
func (e *checker) expandReduced(ws *scratch, it scItem, push func(scItem)) error {
	cfg := &ws.cfg
	key := e.sys.DedupKey(cfg, ws.key[:0])
	ws.key = key
	h := fp.Hash64(key)
	pset := e.persistentSet(cfg)
	var explore, exploredBefore uint64
	prev, revisit := e.lookupMask(h, key)
	if !revisit {
		if e.rmEx != nil {
			e.rmKeyBytes += int64(len(key))
		}
		e.storeMask(h, key, it.sleep)
		explore = pset &^ it.sleep
		if err := e.enter(it); err != nil {
			return err
		}
	} else {
		if prev&^it.sleep == prev {
			// First visit explored at least everything this visit
			// needs: prune, exactly like a plain dedup hit.
			e.dedupHits.Add(1)
			e.cDedupHits.Inc()
			return nil
		}
		// Wake-up: the state was first visited with a larger sleep
		// set. Explore exactly the newly-needed processes and lower
		// the stored mask to the intersection.
		exploredBefore = pset &^ prev
		explore = pset & prev &^ it.sleep
		e.storeMask(h, key, prev&it.sleep)
	}
	if explore == 0 {
		return nil
	}
	running := it.sleep | exploredBefore
	ord := 0
	for _, p := range e.scanOrder(cfg, ws) {
		if explore&procBit(p) == 0 {
			continue
		}
		e.cMacroSteps.Inc()
		ws.outs = e.sys.macroStep(cfg, p, recFoot, ws.outs[:0], &ws.free)
		for i, oc := range ws.outs {
			vord := ord
			ord++
			e.transitions.Add(1)
			e.cTransitions.Inc()
			link := scPathNode{parent: it.path, proc: int32(p), idx: int32(i)}
			if oc.violation {
				ws.free.put(oc.cfg)
				if err := e.violation(fp.MixOrdinal(h, vord), link); err != nil {
					return err
				}
				continue
			}
			sleep := e.filterSleep(running, e.stepFoot(oc.log.foot), cfg)
			ws.keep(oc.cfg, scItem{depth: it.depth + 1, sleep: sleep}, link)
		}
		clear(ws.outs)
		running |= procBit(p)
	}
	ws.pushKids(push)
	return nil
}

// redOnce/red live on System so the tables are built once per program;
// declared here to keep all reduction state in one file.
type reduceState struct {
	redOnce sync.Once
	red     *reduceTables
}
