package ra

import (
	"fmt"

	"ravbmc/internal/lang"
	"ravbmc/internal/trace"
)

// Succ is one enabled transition: the successor configuration together
// with the event describing it.
type Succ struct {
	Proc   int
	Config *Config
	Event  trace.Event
	// ViewSwitch marks transitions whose read part altered the process
	// view (paper Sec. 5): the bounded resource of view-bounded analysis.
	ViewSwitch bool
	// Violation marks a failed assertion; Config is the configuration at
	// the point of failure.
	Violation bool
}

// Successors enumerates every transition process p can take from c,
// covering all nondeterminism of the RA semantics: choice of message on
// reads and CAS, choice of insertion point on writes, and nondet ranges.
// A terminated process, or one stuck at a false assume, yields none.
// View snapshots are attached when the System's construction-time
// CaptureViews default is set; run-scoped capture (ra.Options
// .CaptureViews) is threaded through the unexported form instead, so a
// System shared between concurrent explorations is never mutated.
func (s *System) Successors(c *Config, p int) []Succ {
	return s.successors(c, p, s.CaptureViews)
}

// successors is Successors with an explicit per-call capture flag.
func (s *System) successors(c *Config, p int, capture bool) []Succ {
	pr := s.Prog.Procs[p]
	in := &pr.Code[c.pcs[p]]
	regs := c.regs[p]
	ev := func(kind trace.Kind, detail string) trace.Event {
		return trace.Event{Proc: pr.Name, Label: in.Label, Kind: kind, Detail: detail}
	}
	local := func(kind trace.Kind, detail string, mutate func(d *Config)) Succ {
		d := c.clone()
		d.pcs[p] = in.Next
		if mutate != nil {
			mutate(d)
		}
		return Succ{Proc: p, Config: d, Event: ev(kind, detail)}
	}

	switch in.Op {
	case lang.OpReadVar:
		return s.readSuccs(c, p, in, ev, capture)
	case lang.OpWriteVar:
		return s.writeSuccs(c, p, in, ev, capture)
	case lang.OpCASVar:
		return s.rmwSuccs(c, p, in, in.VarSlot, ev, false, capture)
	case lang.OpFenceOp:
		if s.FenceVar < 0 {
			panic("ra: fence instruction but no fence variable allocated")
		}
		return s.rmwSuccs(c, p, in, s.FenceVar, ev, true, capture)
	case lang.OpAssignReg:
		v := in.ValS.Eval(regs)
		sc := local(trace.KindLocal, "", func(d *Config) {
			d.regs[p][in.RegSlot] = v
		})
		sc.Event.Reg, sc.Event.Val, sc.Event.HasVal = in.Reg, int64(v), true
		return []Succ{sc}
	case lang.OpNondetReg:
		var out []Succ
		for v := in.Lo; v <= in.Hi; v++ {
			sc := local(trace.KindLocal, "", func(d *Config) {
				d.regs[p][in.RegSlot] = v
			})
			sc.Event.Reg, sc.Event.Val, sc.Event.HasVal = in.Reg, int64(v), true
			sc.Event.Choice = true
			out = append(out, sc)
		}
		return out
	case lang.OpAssumeCond:
		if in.CondS.Eval(regs) == 0 {
			return nil // process remains at λ forever (paper Sec. 3)
		}
		return []Succ{local(trace.KindAssume, in.Cond.String(), nil)}
	case lang.OpAssertCond:
		if in.CondS.Eval(regs) == 0 {
			return []Succ{{
				Proc:      p,
				Config:    c.clone(),
				Event:     ev(trace.KindViolation, "assert failed: "+in.Cond.String()),
				Violation: true,
			}}
		}
		return []Succ{local(trace.KindAssertOK, in.Cond.String(), nil)}
	case lang.OpCJmp:
		d := c.clone()
		det := "branch "
		if in.CondS.Eval(regs) != 0 {
			d.pcs[p] = in.Next
			det += "taken: "
		} else {
			d.pcs[p] = in.Else
			det += "not taken: "
		}
		return []Succ{{Proc: p, Config: d, Event: ev(trace.KindLocal, det+in.Cond.String())}}
	case lang.OpJmp:
		d := c.clone()
		d.pcs[p] = in.Next
		return []Succ{{Proc: p, Config: d, Event: ev(trace.KindLocal, "goto")}}
	case lang.OpTermProc:
		return nil
	}
	panic(fmt.Sprintf("ra: instruction %s not in the RA fragment (process %s)", in.Op, pr.Name))
}

// readSuccs implements the Read rule of Fig. 2: any message of x whose
// position is at or above the process view can be read; the process view
// is merged with the message view.
func (s *System) readSuccs(c *Config, p int, in *lang.Instr, ev func(trace.Kind, string) trace.Event, capture bool) []Succ {
	x := in.VarSlot
	from := c.pos(c.views[p][x])
	order := c.mo[x]
	var out []Succ
	for j := from; j < len(order); j++ {
		m := order[j]
		merged, changed := c.mergeViews(c.views[p], m.View)
		d := c.clone()
		d.pcs[p] = in.Next
		d.views[p] = merged
		d.regs[p][in.RegSlot] = m.Val
		e := trace.Event{Proc: s.Prog.Procs[p].Name, Label: in.Label, Kind: trace.KindRead,
			Var: in.Var, Reg: in.Reg, Val: int64(m.Val), HasVal: true,
			ReadMsg: s.msgRef(c, m), ViewSwitch: changed}
		if capture {
			e.ViewBefore = s.viewRef(c, c.views[p])
			e.ViewAfter = s.viewRef(d, merged)
		}
		out = append(out, Succ{Proc: p, Config: d, Event: e, ViewSwitch: changed})
	}
	return out
}

// msgRef renders a message reference against the modification orders of
// c (T is the message's current mo position, its abstract timestamp).
func (s *System) msgRef(c *Config, m *Msg) *trace.MsgRef {
	return &trace.MsgRef{Seq: m.Seq, Var: s.Vars[m.Var], Val: int64(m.Val), T: c.pos(m)}
}

// viewRef renders a process view against the modification orders of c.
func (s *System) viewRef(c *Config, view []*Msg) trace.View {
	out := make(trace.View, len(view))
	for v, m := range view {
		out[v] = trace.MsgRef{Seq: m.Seq, Var: s.Vars[v], Val: int64(m.Val), T: c.pos(m)}
	}
	return out
}

// writeSuccs implements the Write rule of Fig. 2: the new message may
// take any free timestamp above the process view, i.e. be inserted into
// any modification-order gap strictly after the view — except between a
// message and a glued (CAS-created) successor, which models the occupied
// t+1 slot.
func (s *System) writeSuccs(c *Config, p int, in *lang.Instr, ev func(trace.Kind, string) trace.Event, capture bool) []Succ {
	x := in.VarSlot
	val := in.ValS.Eval(c.regs[p])
	from := c.pos(c.views[p][x])
	order := c.mo[x]
	var out []Succ
	for j := from + 1; j <= len(order); j++ {
		if j < len(order) && order[j].Glued {
			continue // cannot squeeze between a message and its RMW
		}
		newView := make([]*Msg, len(c.views[p]))
		copy(newView, c.views[p])
		m := &Msg{Var: x, Val: val, View: newView, Writer: p, Seq: c.nextSeq}
		newView[x] = m
		d := c.clone()
		d.nextSeq++
		d.pcs[p] = in.Next
		d.views[p] = newView
		d.mo[x] = insertAt(d.mo[x], j, m)
		e := ev(trace.KindWrite, "")
		e.Var, e.Val, e.HasVal = in.Var, int64(val), true
		e.WroteMsg = &trace.MsgRef{Seq: m.Seq, Var: s.Vars[x], Val: int64(val), T: j}
		if capture {
			e.ViewBefore = s.viewRef(c, c.views[p])
			e.ViewAfter = s.viewRef(d, newView)
		}
		out = append(out, Succ{Proc: p, Config: d, Event: e})
	}
	return out
}

// rmwSuccs implements the CAS rule of Fig. 2 and the fence encoding.
// A CAS may read any message at or above the view whose value matches
// Old and whose t+1 slot is free (no glued successor); the new message
// is glued immediately after it. A fence is an unconditional RMW on the
// distinguished fence variable that writes the read value plus one.
func (s *System) rmwSuccs(c *Config, p int, in *lang.Instr, x int, ev func(trace.Kind, string) trace.Event, isFence bool, capture bool) []Succ {
	from := c.pos(c.views[p][x])
	order := c.mo[x]
	var out []Succ
	for j := from; j < len(order); j++ {
		m := order[j]
		if !isFence && m.Val != in.OldS.Eval(c.regs[p]) {
			continue
		}
		if j+1 < len(order) && order[j+1].Glued {
			continue // t+1 already occupied by another RMW
		}
		var newVal lang.Value
		if isFence {
			newVal = m.Val + 1
		} else {
			newVal = in.ValS.Eval(c.regs[p])
		}
		merged, changed := c.mergeViews(c.views[p], m.View)
		nm := &Msg{Var: x, Val: newVal, View: merged, Glued: true, Writer: p, Seq: c.nextSeq}
		merged[x] = nm
		d := c.clone()
		d.nextSeq++
		d.pcs[p] = in.Next
		d.views[p] = merged
		d.mo[x] = insertAt(d.mo[x], j+1, nm)
		kind := trace.KindCAS
		if isFence {
			kind = trace.KindFence
		}
		e := trace.Event{Proc: s.Prog.Procs[p].Name, Label: in.Label, Kind: kind,
			Var: s.Vars[x], Val: int64(newVal), HasVal: true,
			ReadMsg:    &trace.MsgRef{Seq: m.Seq, Var: s.Vars[x], Val: int64(m.Val), T: j},
			WroteMsg:   &trace.MsgRef{Seq: nm.Seq, Var: s.Vars[x], Val: int64(newVal), T: j + 1},
			ViewSwitch: changed}
		if !isFence {
			e.Old, e.HasOld = int64(m.Val), true
		}
		if capture {
			e.ViewBefore = s.viewRef(c, c.views[p])
			e.ViewAfter = s.viewRef(d, merged)
		}
		out = append(out, Succ{Proc: p, Config: d, Event: e, ViewSwitch: changed})
	}
	return out
}

func insertAt(order []*Msg, j int, m *Msg) []*Msg {
	out := make([]*Msg, 0, len(order)+1)
	out = append(out, order[:j]...)
	out = append(out, m)
	out = append(out, order[j:]...)
	return out
}

// AllSuccessors enumerates the transitions of every process.
func (s *System) AllSuccessors(c *Config) []Succ {
	var out []Succ
	for p := range s.Prog.Procs {
		out = append(out, s.Successors(c, p)...)
	}
	return out
}

// Enabled reports whether process p has at least one transition.
func (s *System) Enabled(c *Config, p int) bool {
	// Cheap pre-checks before materialising successors.
	in := &s.Prog.Procs[p].Code[c.pcs[p]]
	if in.Op == lang.OpTermProc {
		return false
	}
	return len(s.Successors(c, p)) > 0
}
