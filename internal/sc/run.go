package sc

import (
	"fmt"
	"slices"

	"ravbmc/internal/lang"
	"ravbmc/internal/trace"
)

// rec selects what run records besides the configuration. The search
// records nothing; witness replay records trace events (see replay in
// check.go), and the reduced search records each step's shared
// footprint.
type rec uint8

const (
	recEvents rec = 1 << iota
	recFoot
)

// stepLog is what run records along one branch of a macro step.
type stepLog struct {
	events []trace.Event // under recEvents
	// foot lists the shared locations the step accessed (scalars by
	// variable slot, then one location per whole array), each as 2*loc
	// for a read and 2*loc+1 for a write; under recFoot.
	foot []int32
}

// access records a read (write=false) or write of location loc.
func (l *stepLog) access(r rec, loc int, write bool) {
	if r&recFoot != 0 {
		a := int32(2 * loc)
		if write {
			a++
		}
		l.foot = append(l.foot, a)
	}
}

// outcome is the result of one macro step: the configuration at the next
// quiescent point of the stepped process (or at a violation), plus what
// was recorded on the way.
type outcome struct {
	cfg       Config
	log       stepLog
	violation bool
}

// freeList recycles one worker's configuration buffers: a macro step
// takes each branch's copy from it, and a discarded branch, or a kept
// outcome once the search has packed it, gives the buffer back, so a
// guess that dies inside its atomic block costs no allocation. A nil
// list allocates every copy (MacroSteps, InitialConfigs, witness
// replay).
type freeList [][]lang.Value

// clone copies c into a recycled buffer when one is free.
func (f *freeList) clone(c Config) Config {
	if f == nil || len(*f) == 0 {
		return c.clone()
	}
	v := (*f)[len(*f)-1]
	*f = (*f)[:len(*f)-1]
	copy(v, c.v)
	return Config{v: v, cur: c.cur}
}

// put gives c's buffer back; c must not be used afterwards.
func (f *freeList) put(c Config) {
	if f != nil {
		*f = append(*f, c.v)
	}
}

// maxLocalSteps bounds a single macro step, guarding against local-only
// infinite loops in non-unrolled programs.
const maxLocalSteps = 1 << 16

// macroStep appends to out the outcomes of one visible operation of
// process p followed by the maximal run of local operations, branching
// on nondeterminism. Branches that fail an assume inside an atomic
// section are discarded (the atomic transition does not exist for those
// guesses); a failed assume outside an atomic section leaves the
// process parked at the assume. Branch copies come from free.
func (s *System) macroStep(c *Config, p int, r rec, out []outcome, free *freeList) []outcome {
	d := free.clone(*c)
	d.cur = p
	return s.run(d, p, 0, true, r, stepLog{}, out, 0, free)
}

// initClosure runs the local prefix of every process (before the first
// visible operation), branching on nondeterminism. It returns the set of
// quiescent initial configurations, in a fixed order.
func (s *System) initClosure(c *Config, r rec) []outcome {
	configs := []outcome{{cfg: c.clone()}}
	for p := range s.Prog.Procs {
		var next []outcome
		for _, oc := range configs {
			if oc.violation {
				next = append(next, oc)
				continue
			}
			next = s.run(oc.cfg, p, 0, false, r, oc.log, next, 0, nil)
		}
		configs = next
	}
	return configs
}

// run interprets process p on the owned configuration c until the next
// quiescent point and appends the outcomes to out. firstStep grants
// permission to execute one visible instruction; afterwards any visible
// instruction outside an atomic section is a quiescent point. It is the
// only SC interpreter: the search, witness replay and the reduced
// search differ only in what r asks it to record into log. A discarded
// branch gives its configuration back to free.
func (s *System) run(c Config, p, atomicDepth int, firstStep bool, r rec, log stepLog, out []outcome, steps int, free *freeList) []outcome {
	pr := s.Prog.Procs[p]
	pcAt := s.pcOff + p
	regs := s.regs(&c, p)
	for ; steps < maxLocalSteps; steps++ {
		in := &pr.Code[c.v[pcAt]]
		if !firstStep && atomicDepth == 0 && in.GloballyVisible() {
			return append(out, outcome{cfg: c, log: log})
		}
		// Events carry structured fields; their text is derived lazily
		// (Event.Text). Only fences and violations carry an explicit Detail.
		switch in.Op {
		case lang.OpTermProc:
			return append(out, outcome{cfg: c, log: log})
		case lang.OpReadVar:
			v := c.v[in.VarSlot]
			regs[in.RegSlot] = v
			log.access(r, in.VarSlot, false)
			if r&recEvents != 0 {
				log.events = append(log.events, trace.Event{Proc: pr.Name, Label: in.Label, Kind: trace.KindRead,
					Var: in.Var, Reg: in.Reg, Val: int64(v), HasVal: true})
			}
		case lang.OpWriteVar:
			v := in.ValS.Eval(regs)
			c.v[in.VarSlot] = v
			log.access(r, in.VarSlot, true)
			if r&recEvents != 0 {
				log.events = append(log.events, trace.Event{Proc: pr.Name, Label: in.Label, Kind: trace.KindWrite,
					Var: in.Var, Val: int64(v), HasVal: true})
			}
		case lang.OpCASVar:
			old := in.OldS.Eval(regs)
			if c.v[in.VarSlot] != old {
				if atomicDepth > 0 || firstStep {
					free.put(c)
					return out // transition does not exist under these guesses
				}
				// Park at the CAS; it may become enabled later.
				return append(out, outcome{cfg: c, log: log})
			}
			nv := in.ValS.Eval(regs)
			c.v[in.VarSlot] = nv
			log.access(r, in.VarSlot, false)
			log.access(r, in.VarSlot, true)
			if r&recEvents != 0 {
				log.events = append(log.events, trace.Event{Proc: pr.Name, Label: in.Label, Kind: trace.KindCAS,
					Var: in.Var, Old: int64(old), HasOld: true, Val: int64(nv), HasVal: true})
			}
		case lang.OpFenceOp:
			// A release-acquire fence is a no-op under SC.
			if r&recEvents != 0 {
				log.events = append(log.events, trace.Event{Proc: pr.Name, Label: in.Label, Kind: trace.KindFence,
					Detail: "fence (no-op under SC)"})
			}
		case lang.OpLoadArrEl, lang.OpStoreArrEl:
			ai := in.VarSlot
			idx := in.IndexS.Eval(regs)
			if idx < 0 || int(idx) >= s.Arrays[ai].Size {
				if r&recEvents != 0 {
					log.events = append(log.events, trace.Event{Proc: pr.Name, Label: in.Label, Kind: trace.KindViolation,
						Detail: fmt.Sprintf("%s[%d] out of bounds", in.Var, idx)})
				}
				return append(out, outcome{cfg: c, log: log, violation: true})
			}
			cell := s.arrOff[ai] + int(idx)
			load := in.Op == lang.OpLoadArrEl
			var v lang.Value
			if load {
				v = c.v[cell]
				regs[in.RegSlot] = v
			} else {
				v = in.ValS.Eval(regs)
				c.v[cell] = v
			}
			log.access(r, len(s.Prog.Vars)+ai, !load)
			if r&recEvents != 0 {
				ev := trace.Event{Proc: pr.Name, Label: in.Label, Kind: trace.KindWrite,
					Var: in.Var, Val: int64(v), HasVal: true, Idx: int(idx), HasIdx: true}
				if load {
					ev.Kind, ev.Reg = trace.KindRead, in.Reg
				}
				log.events = append(log.events, ev)
			}
		case lang.OpAtomicBegin:
			atomicDepth++
		case lang.OpAtomicEnd:
			atomicDepth--
		case lang.OpAssignReg:
			regs[in.RegSlot] = in.ValS.Eval(regs)
		case lang.OpNondetReg:
			// High-to-low: in translated programs the "interesting"
			// guesses (view-altering read, tracked write, publish) are
			// the high values, and trying them first reaches weak
			// behaviours — and therefore bugs — much earlier in the DFS.
			// c and log are owned by this call and untouched until the
			// last branch, which takes them over instead of copying.
			for v := in.Hi; v >= in.Lo; v-- {
				d, l := c, log
				if v > in.Lo {
					d = free.clone(c)
					if r != 0 {
						l = stepLog{events: slices.Clone(log.events), foot: slices.Clone(log.foot)}
					}
				}
				s.regs(&d, p)[in.RegSlot] = v
				d.v[pcAt] = lang.Value(in.Next)
				if r&recEvents != 0 {
					l.events = append(l.events, trace.Event{Proc: pr.Name, Label: in.Label, Kind: trace.KindLocal,
						Reg: in.Reg, Val: int64(v), HasVal: true, Choice: true})
				}
				out = s.run(d, p, atomicDepth, false, r, l, out, steps+1, free)
			}
			return out
		case lang.OpAssumeCond:
			if in.CondS.Eval(regs) == 0 {
				if atomicDepth > 0 {
					free.put(c)
					return out // infeasible guess: discard the atomic branch
				}
				return append(out, outcome{cfg: c, log: log})
			}
		case lang.OpAssertCond:
			if in.CondS.Eval(regs) == 0 {
				if r&recEvents != 0 {
					log.events = append(log.events, trace.Event{Proc: pr.Name, Label: in.Label, Kind: trace.KindViolation,
						Detail: "assert failed: " + in.Cond.String()})
				}
				return append(out, outcome{cfg: c, log: log, violation: true})
			}
		case lang.OpCJmp:
			if in.CondS.Eval(regs) == 0 {
				c.v[pcAt] = lang.Value(in.Else)
				firstStep = false
				continue
			}
		case lang.OpJmp:
		default:
			panic(fmt.Sprintf("sc: unknown opcode %s", in.Op))
		}
		c.v[pcAt] = lang.Value(in.Next)
		firstStep = false
	}
	// Local divergence: treat as stuck (drop the branch) — only possible
	// for non-unrolled programs with local-only loops.
	return append(out, outcome{cfg: c, log: log})
}
