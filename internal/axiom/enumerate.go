package axiom

import (
	"fmt"
	"sort"
	"strings"

	"ravbmc/internal/lang"
)

// Enumerator generates the RA-consistent executions of a loop-free
// program directly from the axioms: it enumerates interleavings in
// which every read picks some already-issued write (complete for RA,
// where rf ⊆ hb guarantees such a linearisation exists), then closes
// each candidate (po, rf) graph under all per-variable modification
// orders and keeps the ones satisfying the axioms.
type Enumerator struct {
	prog     *lang.CompiledProgram
	nvars    int
	fenceVar int

	seenGraph map[string]bool
	outcomes  map[string]bool
	render    func(regs [][]lang.Value) string
	steps     int
	maxSteps  int
	// Truncated reports whether the step budget was exhausted.
	Truncated bool
	// UseSC switches the consistency check from the RA axioms to
	// sequential consistency (SCConsistent), turning the enumerator into
	// a declarative SC oracle.
	UseSC bool
}

// NewEnumerator prepares the enumeration. The program must be loop-free
// and in the RA fragment. render receives the per-process register
// files of a completed execution.
func NewEnumerator(cp *lang.CompiledProgram, render func(regs [][]lang.Value) string) (*Enumerator, error) {
	if cp.Source != nil {
		if err := cp.Source.ValidateRA(); err != nil {
			return nil, err
		}
		if lang.MaxLoopDepth(cp.Source) != 0 {
			return nil, fmt.Errorf("axiom: program %q has loops; unroll it first", cp.Name)
		}
	}
	e := &Enumerator{
		prog:      cp,
		seenGraph: map[string]bool{},
		outcomes:  map[string]bool{},
		render:    render,
		maxSteps:  1 << 24,
	}
	e.nvars = len(cp.Vars)
	e.fenceVar = -1
	for _, pr := range cp.Procs {
		for i := range pr.Code {
			if pr.Code[i].Op == lang.OpFenceOp && e.fenceVar < 0 {
				e.fenceVar = e.nvars
				e.nvars++
			}
		}
	}
	return e, nil
}

// state is one node of the interleaving enumeration.
type state struct {
	pcs    []int
	regs   [][]lang.Value
	events []Event
	rf     map[int]int
	// writes[v] lists write event ids of variable v, in issue order
	// (the init event first).
	writes [][]int
}

func (e *Enumerator) initState() *state {
	s := &state{rf: map[int]int{}, writes: make([][]int, e.nvars)}
	for v := 0; v < e.nvars; v++ {
		s.events = append(s.events, Event{ID: v, Proc: -1, Kind: KindWrite, Var: v})
		s.writes[v] = []int{v}
	}
	for p := range e.prog.Procs {
		s.pcs = append(s.pcs, 0)
		s.regs = append(s.regs, make([]lang.Value, len(e.prog.Procs[p].Regs)))
	}
	return s
}

func (s *state) clone() *state {
	d := &state{
		pcs:    append([]int(nil), s.pcs...),
		regs:   make([][]lang.Value, len(s.regs)),
		events: append([]Event(nil), s.events...),
		rf:     make(map[int]int, len(s.rf)),
		writes: make([][]int, len(s.writes)),
	}
	for i := range s.regs {
		d.regs[i] = append([]lang.Value(nil), s.regs[i]...)
	}
	for k, v := range s.rf {
		d.rf[k] = v
	}
	for i := range s.writes {
		d.writes[i] = append([]int(nil), s.writes[i]...)
	}
	return d
}

// Outcomes runs the enumeration and returns the set of outcome strings
// of completed executions that admit at least one RA-consistent
// modification order.
func (e *Enumerator) Outcomes() map[string]bool {
	e.interleave(e.initState())
	return e.outcomes
}

func (e *Enumerator) interleave(s *state) {
	if e.steps++; e.steps > e.maxSteps {
		e.Truncated = true
		return
	}
	progressed := false
	for p := range e.prog.Procs {
		in := &e.prog.Procs[p].Code[s.pcs[p]]
		if in.Op == lang.OpTermProc {
			continue
		}
		progressed = true
		e.step(s, p, in)
	}
	if !progressed {
		e.complete(s)
	}
}

func (e *Enumerator) step(s *state, p int, in *lang.Instr) {
	regs := s.regs[p]
	local := func(mutate func(d *state)) {
		d := s.clone()
		d.pcs[p] = in.Next
		if mutate != nil {
			mutate(d)
		}
		e.interleave(d)
	}
	switch in.Op {
	case lang.OpReadVar:
		v := in.VarSlot
		for _, w := range s.writes[v] {
			val := s.events[w].ValW
			d := s.clone()
			d.pcs[p] = in.Next
			d.regs[p][in.RegSlot] = val
			id := len(d.events)
			d.events = append(d.events, Event{ID: id, Proc: p, Idx: id, Kind: KindRead, Var: v, ValR: val})
			d.rf[id] = w
			e.interleave(d)
		}
	case lang.OpWriteVar:
		val := in.ValS.Eval(regs)
		v := in.VarSlot
		local(func(d *state) {
			id := len(d.events)
			d.events = append(d.events, Event{ID: id, Proc: p, Idx: id, Kind: KindWrite, Var: v, ValW: val})
			d.writes[v] = append(d.writes[v], id)
		})
	case lang.OpCASVar:
		v := in.VarSlot
		old := in.OldS.Eval(regs)
		newVal := in.ValS.Eval(regs)
		e.update(s, p, in, v, func(cur lang.Value) (lang.Value, bool) {
			if cur != old {
				return 0, false
			}
			return newVal, true
		})
	case lang.OpFenceOp:
		e.update(s, p, in, e.fenceVar, func(cur lang.Value) (lang.Value, bool) {
			return cur + 1, true
		})
	case lang.OpAssignReg:
		val := in.ValS.Eval(regs)
		local(func(d *state) { d.regs[p][in.RegSlot] = val })
	case lang.OpNondetReg:
		for val := in.Lo; val <= in.Hi; val++ {
			local(func(d *state) { d.regs[p][in.RegSlot] = val })
		}
	case lang.OpAssumeCond:
		if in.CondS.Eval(regs) != 0 {
			local(nil)
		}
		// A false assume parks the process; the enumeration simply never
		// advances it, and completion requires all processes terminated.
	case lang.OpAssertCond:
		// Assertions do not constrain the outcome set.
		local(nil)
	case lang.OpCJmp:
		d := s.clone()
		if in.CondS.Eval(regs) != 0 {
			d.pcs[p] = in.Next
		} else {
			d.pcs[p] = in.Else
		}
		e.interleave(d)
	case lang.OpJmp:
		local(nil)
	default:
		panic(fmt.Sprintf("axiom: instruction %s not in the RA fragment", in.Op))
	}
}

// update issues an RMW event: it may read any already-issued write of v
// accepted by f, which returns the written value.
func (e *Enumerator) update(s *state, p int, in *lang.Instr, v int, f func(lang.Value) (lang.Value, bool)) {
	for _, w := range s.writes[v] {
		cur := s.events[w].ValW
		newVal, ok := f(cur)
		if !ok {
			continue
		}
		d := s.clone()
		d.pcs[p] = in.Next
		id := len(d.events)
		d.events = append(d.events, Event{ID: id, Proc: p, Idx: id, Kind: KindUpdate, Var: v, ValR: cur, ValW: newVal})
		d.rf[id] = w
		d.writes[v] = append(d.writes[v], id)
		e.interleave(d)
	}
}

// complete closes a finished (po, rf) candidate under every modification
// order and records the outcome if some order is RA-consistent.
func (e *Enumerator) complete(s *state) {
	out := e.render(s.regs)
	// The dedup key pairs the graph with the rendered outcome: the same
	// graph can carry different local register contents (e.g. nondet
	// choices that influenced no shared access), and distinct outcomes
	// must each get their consistency check.
	key := graphKey(s) + "|" + out
	if e.seenGraph[key] {
		return
	}
	e.seenGraph[key] = true
	if e.outcomes[out] {
		return // a consistent witness for this outcome already exists
	}
	x := &Execution{Events: s.events, RF: s.rf, MO: map[int][]int{}, NumProcs: len(e.prog.Procs)}
	if e.UseSC {
		if x.SCConsistent() {
			e.outcomes[out] = true
		}
		return
	}
	if e.searchMO(x, s, 0) {
		e.outcomes[out] = true
	}
}

// searchMO enumerates modification orders variable by variable; the
// init event stays first.
func (e *Enumerator) searchMO(x *Execution, s *state, v int) bool {
	if v == e.nvars {
		ok, _ := x.Consistent()
		return ok
	}
	writes := s.writes[v]
	rest := append([]int(nil), writes[1:]...)
	var perm func(i int) bool
	perm = func(i int) bool {
		if i == len(rest) {
			x.MO[v] = append([]int{writes[0]}, rest...)
			return e.searchMO(x, s, v+1)
		}
		for j := i; j < len(rest); j++ {
			rest[i], rest[j] = rest[j], rest[i]
			if perm(i + 1) {
				return true
			}
			rest[i], rest[j] = rest[j], rest[i]
		}
		return false
	}
	return perm(0)
}

// graphKey canonically encodes a (po, rf) candidate: per process the
// sequence of its events with rf sources named by (writer proc, count),
// so interleavings producing the same graph collapse.
func graphKey(s *state) string {
	var b strings.Builder
	perProc := map[int][]int{}
	for i := range s.events {
		ev := &s.events[i]
		perProc[ev.Proc] = append(perProc[ev.Proc], ev.ID)
	}
	procs := make([]int, 0, len(perProc))
	for p := range perProc {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	// Rename event ids: (proc, position-within-proc).
	rename := map[int]string{}
	for _, p := range procs {
		for i, id := range perProc[p] {
			rename[id] = fmt.Sprintf("%d:%d", p, i)
		}
	}
	for _, p := range procs {
		fmt.Fprintf(&b, "p%d[", p)
		for _, id := range perProc[p] {
			ev := &s.events[id]
			fmt.Fprintf(&b, "%d.%d.%d.%d", ev.Kind, ev.Var, ev.ValR, ev.ValW)
			if w, ok := s.rf[id]; ok {
				b.WriteString("<" + rename[w])
			}
			b.WriteByte(',')
		}
		b.WriteByte(']')
	}
	return b.String()
}
