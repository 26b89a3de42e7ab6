package sc

import (
	"fmt"

	"ravbmc/internal/lang"
	"ravbmc/internal/trace"
)

// outcome is the result of one macro step: the configuration at the next
// quiescent point of the stepped process (or at a violation), plus the
// events performed.
type outcome struct {
	cfg       *Config
	events    []trace.Event
	violation bool
}

// maxLocalSteps bounds a single macro step, guarding against local-only
// infinite loops in non-unrolled programs.
const maxLocalSteps = 1 << 16

// macroStep executes one visible operation of process p followed by the
// maximal run of local operations, branching on nondeterminism. Branches
// that fail an assume inside an atomic section are discarded (the atomic
// transition does not exist for those guesses); a failed assume outside
// an atomic section leaves the process parked at the assume.
func (s *System) macroStep(c *Config, p int) []outcome {
	d := c.clone()
	d.cur = p
	var out []outcome
	s.run(d, p, 0, true, nil, &out, 0)
	return out
}

// initClosure runs the local prefix of every process (before the first
// visible operation), branching on nondeterminism. It returns the set of
// quiescent initial configurations.
func (s *System) initClosure(c *Config) []outcome {
	configs := []outcome{{cfg: c.clone()}}
	for p := range s.Prog.Procs {
		var next []outcome
		for _, oc := range configs {
			if oc.violation {
				next = append(next, oc)
				continue
			}
			var sub []outcome
			s.run(oc.cfg, p, 0, false, oc.events, &sub, 0)
			next = append(next, sub...)
		}
		configs = next
	}
	return configs
}

// run interprets process p on the owned configuration c until the next
// quiescent point. firstStep grants permission to execute one visible
// instruction; afterwards any visible instruction outside an atomic
// section is a quiescent point.
func (s *System) run(c *Config, p int, atomicDepth int, firstStep bool, events []trace.Event, out *[]outcome, steps int) {
	env := s.env(c, p)
	for ; steps < maxLocalSteps; steps++ {
		pr := s.Prog.Procs[p]
		in := &pr.Code[c.pcs[p]]
		// ev populates the structured event fields; the text rendering is
		// derived lazily (Event.Text), keeping the search loop free of
		// string formatting. Only events whose text cannot be derived
		// (violations) carry an explicit Detail.
		ev := func(kind trace.Kind, detail string) trace.Event {
			return trace.Event{Proc: pr.Name, Label: in.Label, Kind: kind, Detail: detail}
		}
		if !firstStep && atomicDepth == 0 && in.GloballyVisible() {
			*out = append(*out, outcome{cfg: c, events: events})
			return
		}
		switch in.Op {
		case lang.OpTermProc:
			*out = append(*out, outcome{cfg: c, events: events})
			return
		case lang.OpReadVar:
			v := c.mem[s.VarIdx[in.Var]]
			c.regs[s.reg(p, s.RegIdx[p][in.Reg])] = v
			events = append(events, trace.Event{Proc: pr.Name, Label: in.Label, Kind: trace.KindRead,
				Var: in.Var, Reg: in.Reg, Val: int64(v), HasVal: true})
			c.pcs[p] = in.Next
		case lang.OpWriteVar:
			v := in.Val.Eval(env)
			c.mem[s.VarIdx[in.Var]] = v
			events = append(events, trace.Event{Proc: pr.Name, Label: in.Label, Kind: trace.KindWrite,
				Var: in.Var, Val: int64(v), HasVal: true})
			c.pcs[p] = in.Next
		case lang.OpCASVar:
			old := in.Old.Eval(env)
			xi := s.VarIdx[in.Var]
			if c.mem[xi] != old {
				if atomicDepth > 0 || firstStep {
					return // transition does not exist under these guesses
				}
				// Park at the CAS; it may become enabled later.
				*out = append(*out, outcome{cfg: c, events: events})
				return
			}
			nv := in.Val.Eval(env)
			c.mem[xi] = nv
			events = append(events, trace.Event{Proc: pr.Name, Label: in.Label, Kind: trace.KindCAS,
				Var: in.Var, Old: int64(old), HasOld: true, Val: int64(nv), HasVal: true})
			c.pcs[p] = in.Next
		case lang.OpFenceOp:
			// A release-acquire fence is a no-op under SC.
			events = append(events, ev(trace.KindFence, "fence (no-op under SC)"))
			c.pcs[p] = in.Next
		case lang.OpLoadArrEl:
			ai := s.ArrIdx[in.Var]
			idx := in.Index.Eval(env)
			if idx < 0 || int(idx) >= s.Arrays[ai].Size {
				events = append(events, ev(trace.KindViolation, fmt.Sprintf("%s[%d] out of bounds", in.Var, idx)))
				*out = append(*out, outcome{cfg: c, events: events, violation: true})
				return
			}
			v := c.arr[s.arrOff[ai]+int(idx)]
			c.regs[s.reg(p, s.RegIdx[p][in.Reg])] = v
			events = append(events, trace.Event{Proc: pr.Name, Label: in.Label, Kind: trace.KindRead,
				Var: in.Var, Reg: in.Reg, Val: int64(v), HasVal: true, Idx: int(idx), HasIdx: true})
			c.pcs[p] = in.Next
		case lang.OpStoreArrEl:
			ai := s.ArrIdx[in.Var]
			idx := in.Index.Eval(env)
			if idx < 0 || int(idx) >= s.Arrays[ai].Size {
				events = append(events, ev(trace.KindViolation, fmt.Sprintf("%s[%d] out of bounds", in.Var, idx)))
				*out = append(*out, outcome{cfg: c, events: events, violation: true})
				return
			}
			v := in.Val.Eval(env)
			c.arr[s.arrOff[ai]+int(idx)] = v
			events = append(events, trace.Event{Proc: pr.Name, Label: in.Label, Kind: trace.KindWrite,
				Var: in.Var, Val: int64(v), HasVal: true, Idx: int(idx), HasIdx: true})
			c.pcs[p] = in.Next
		case lang.OpAtomicBegin:
			atomicDepth++
			c.pcs[p] = in.Next
		case lang.OpAtomicEnd:
			atomicDepth--
			c.pcs[p] = in.Next
		case lang.OpAssignReg:
			c.regs[s.reg(p, s.RegIdx[p][in.Reg])] = in.Val.Eval(env)
			c.pcs[p] = in.Next
		case lang.OpNondetReg:
			ri := s.reg(p, s.RegIdx[p][in.Reg])
			next := in.Next
			// High-to-low: in translated programs the "interesting"
			// guesses (view-altering read, tracked write, publish) are
			// the high values, and trying them first reaches weak
			// behaviours — and therefore bugs — much earlier in the DFS.
			// c and events are owned by this call and untouched until
			// the last branch, which takes them over instead of copying.
			for v := in.Hi; v >= in.Lo; v-- {
				d, evs := c, events
				if v > in.Lo {
					d, evs = c.clone(), append([]trace.Event(nil), events...)
				}
				d.regs[ri] = v
				d.pcs[p] = next
				evs = append(evs, trace.Event{Proc: pr.Name, Label: in.Label, Kind: trace.KindLocal,
					Reg: in.Reg, Val: int64(v), HasVal: true, Choice: true})
				s.run(d, p, atomicDepth, false, evs, out, steps+1)
			}
			return
		case lang.OpAssumeCond:
			if in.Cond.Eval(env) == 0 {
				if atomicDepth > 0 {
					return // infeasible guess: discard the atomic branch
				}
				*out = append(*out, outcome{cfg: c, events: events})
				return
			}
			c.pcs[p] = in.Next
		case lang.OpAssertCond:
			if in.Cond.Eval(env) == 0 {
				events = append(events, ev(trace.KindViolation, "assert failed: "+in.Cond.String()))
				*out = append(*out, outcome{cfg: c, events: events, violation: true})
				return
			}
			c.pcs[p] = in.Next
		case lang.OpCJmp:
			if in.Cond.Eval(env) != 0 {
				c.pcs[p] = in.Next
			} else {
				c.pcs[p] = in.Else
			}
		case lang.OpJmp:
			c.pcs[p] = in.Next
		default:
			panic(fmt.Sprintf("sc: unknown opcode %s", in.Op))
		}
		firstStep = false
	}
	// Local divergence: treat as stuck (drop the branch) — only possible
	// for non-unrolled programs with local-only loops.
	*out = append(*out, outcome{cfg: c, events: events})
}
