// Package ra implements the operational release-acquire semantics of the
// paper (Sec. 3, Fig. 2), following Kang et al. POPL'17 / Podkopaev et
// al.: memory is a pool of messages (x, v, t, V) carrying the writer's
// view; each process has a view recording, per variable, the most recent
// message it has observed; reads pick any message at or above the view
// and merge views; writes pick a fresh timestamp above the view; CAS
// reads a message and installs its write at the immediately following
// timestamp, atomically.
//
// # Timestamps as modification orders
//
// The paper draws timestamps from N. Observable behaviour depends only on
// (a) the per-variable total order of messages and (b) CAS adjacency
// (timestamps t and t+1). We therefore represent the memory of each
// variable as a list of messages in modification order; a write may be
// inserted into any gap strictly after the writer's view, except
// immediately before a message created by a CAS (those are glued to
// their predecessor, modelling the occupied t+1 slot). Any concrete
// natural-number timestamping of a finite run can be renamed to such a
// list and vice versa, so the induced transition systems have the same
// reachable control states.
//
// The package also provides an exhaustive explorer used as the litmus
// oracle (the herd substitute) and as the reference for validating the
// view-bounded translation, with an optional bound on view switches.
package ra

import (
	"strconv"
	"strings"

	"ravbmc/internal/lang"
)

// Msg is a message in the memory pool: a write of Val to variable Var,
// carrying the writer's view at the time of the write (paper: m ∈ M ≜
// Event × View). Messages are immutable after creation and shared
// between configurations.
type Msg struct {
	Var int        // variable index
	Val lang.Value // written value
	// View is the attached view: View[v] is the message of variable v
	// that the writer had observed; View[Var] is the message itself.
	View []*Msg
	// Glued marks a message created by a CAS or fence RMW: it sits at
	// timestamp t+1 of the message it read, so no write may ever be
	// inserted between it and its modification-order predecessor, and no
	// other RMW may read that predecessor.
	Glued bool
	// Writer is the index of the writing process, or -1 for the initial
	// message. Seq is a global creation counter. Both are used only for
	// trace reporting, never for semantics.
	Writer int
	Seq    int
}

// Config is a machine configuration (M, P, J, R) of the paper: memory,
// process views, program counters and register files.
type Config struct {
	// mo[v] is the modification order of variable v; mo[v][0] is the
	// initial message (value 0, timestamp 0).
	mo [][]*Msg
	// views[p][v] is the message of v most recently observed by process p.
	views [][]*Msg
	// pcs[p] is the index of the next instruction of process p.
	pcs []int
	// regs[p][i] is the value of the i-th register of process p.
	regs [][]lang.Value
	// nextSeq numbers the next created message.
	nextSeq int
}

// System pre-computes the per-program structures the engine needs:
// variable and register indices, and the distinguished fence variable.
type System struct {
	Prog     *lang.CompiledProgram
	VarIdx   map[string]int
	Vars     []string // includes the fence variable as the last entry if used
	FenceVar int      // index of the distinguished fence variable, or -1
	RegIdx   []map[string]int
	// CaptureViews makes every emitted event carry the acting process's
	// view before and after the step (trace.Event.ViewBefore/ViewAfter).
	// Off by default: snapshotting views allocates on every successor.
	// This is a construction-time default for run-local systems
	// (internal/replay, internal/smc own theirs); the explorer threads
	// its per-run ra.Options.CaptureViews through successor generation
	// instead of mutating this field, so a System may be shared across
	// concurrent explorations.
	CaptureViews bool
}

// NewSystem prepares a compiled program for RA execution. The program
// must be in the RA fragment (no arrays, no atomic sections); use
// lang.ValidateRA beforehand for a precise error.
func NewSystem(cp *lang.CompiledProgram) *System {
	s := &System{Prog: cp, VarIdx: map[string]int{}}
	for _, v := range cp.Vars {
		s.VarIdx[v] = len(s.Vars)
		s.Vars = append(s.Vars, v)
	}
	s.FenceVar = -1
	if usesFence(cp) {
		s.FenceVar = len(s.Vars)
		s.Vars = append(s.Vars, "_fence")
	}
	for _, pr := range cp.Procs {
		m := make(map[string]int, len(pr.Regs))
		for i, r := range pr.Regs {
			m[r] = i
		}
		s.RegIdx = append(s.RegIdx, m)
	}
	return s
}

func usesFence(cp *lang.CompiledProgram) bool {
	for _, pr := range cp.Procs {
		for i := range pr.Code {
			if pr.Code[i].Op == lang.OpFenceOp {
				return true
			}
		}
	}
	return false
}

// NumProcs returns the number of processes.
func (s *System) NumProcs() int { return len(s.Prog.Procs) }

// Init returns the initial configuration c_init: every variable holds a
// single initial message with value 0 whose view maps every variable to
// the initial messages; all process views point at the initial messages;
// all registers are 0.
func (s *System) Init() *Config {
	nv := len(s.Vars)
	initView := make([]*Msg, nv)
	c := &Config{mo: make([][]*Msg, nv)}
	for v := 0; v < nv; v++ {
		m := &Msg{Var: v, Val: 0, View: initView, Writer: -1, Seq: v}
		initView[v] = m
		c.mo[v] = []*Msg{m}
	}
	c.nextSeq = nv
	for p := range s.Prog.Procs {
		view := make([]*Msg, nv)
		copy(view, initView)
		c.views = append(c.views, view)
		c.pcs = append(c.pcs, 0)
		c.regs = append(c.regs, make([]lang.Value, len(s.Prog.Procs[p].Regs)))
	}
	return c
}

// clone returns a copy sharing all messages (immutable) but with fresh
// order/view/register/pc slices, so the copy can be stepped independently.
func (c *Config) clone() *Config {
	d := &Config{
		mo:      make([][]*Msg, len(c.mo)),
		views:   make([][]*Msg, len(c.views)),
		pcs:     append([]int(nil), c.pcs...),
		regs:    make([][]lang.Value, len(c.regs)),
		nextSeq: c.nextSeq,
	}
	for i := range c.mo {
		d.mo[i] = append([]*Msg(nil), c.mo[i]...)
	}
	for i := range c.views {
		d.views[i] = c.views[i] // replaced wholesale when p steps; never mutated
	}
	for i := range c.regs {
		d.regs[i] = append([]lang.Value(nil), c.regs[i]...)
	}
	return d
}

// pos returns the modification-order position of m in c.
func (c *Config) pos(m *Msg) int {
	order := c.mo[m.Var]
	for i, x := range order {
		if x == m {
			return i
		}
	}
	// Unreachable for well-formed configurations.
	panic("ra: message not in its modification order")
}

// mergeViews returns the join V ⊔ V' of a process view and a message
// view (paper Fig. 2 caption): per variable the message further along in
// modification order. The returned slice is fresh. changed reports
// whether the result differs from base.
func (c *Config) mergeViews(base, mv []*Msg) (out []*Msg, changed bool) {
	out = make([]*Msg, len(base))
	copy(out, base)
	for v := range base {
		if base[v] == mv[v] {
			continue
		}
		if c.pos(mv[v]) > c.pos(base[v]) {
			out[v] = mv[v]
			changed = true
		}
	}
	return out, changed
}

// PC returns the program counter of process p.
func (c *Config) PC(p int) int { return c.pcs[p] }

// MO returns the modification order of variable v. The returned slice
// and its messages are owned by the configuration and must not be
// mutated; replay validation walks it to check stamp consistency.
func (c *Config) MO(v int) []*Msg { return c.mo[v] }

// Reg returns the value of register i of process p.
func (c *Config) Reg(p, i int) lang.Value { return c.regs[p][i] }

// MsgCount returns the total number of messages in the pool, including
// the initial ones.
func (c *Config) MsgCount() int {
	n := 0
	for _, o := range c.mo {
		n += len(o)
	}
	return n
}

// Key-encoding markers. Value tokens occupy first bytes 0x00..0xF9
// (small values) and 0xFE (escaped 8-byte values, see appendKeyVal),
// so every marker byte below is unreachable from inside a value token:
// the token stream is prefix-decodable and the encoding injective —
// no concatenation of adjacent fields can imitate another state.
const (
	keyCtx   = 0xFA // context-bound suffix (last process, contexts used)
	keyGlued = 0xFB // message was created by a CAS/fence RMW
	keyMsg   = 0xFC // end of one message record
	keyTerm  = 0xFD // terminated process: registers and view masked
	keySep   = 0xFE // escape prefix inside appendKeyVal (never a marker)
	keyField = 0xFF // end of a per-process or per-variable field
)

// appendKeyVal encodes one integer: 0..249 as a single byte, anything
// else (large or negative) as 0xFE plus eight little-endian bytes.
func appendKeyVal(buf []byte, v int64) []byte {
	if v >= 0 && v <= 249 {
		return append(buf, byte(v))
	}
	return append(buf, keySep,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// appendMemory encodes the message pools: per variable, per message in
// modification order, the value, the glue mark and the view rendered as
// mo positions — message identity is replaced by position, so two
// configurations that differ only in message creation order encode
// identically.
func (c *Config) appendMemory(buf []byte) []byte {
	for _, order := range c.mo {
		for _, m := range order {
			buf = appendKeyVal(buf, int64(m.Val))
			if m.Glued {
				buf = append(buf, keyGlued)
			}
			for v := range c.mo {
				buf = appendKeyVal(buf, int64(c.pos(m.View[v])))
			}
			buf = append(buf, keyMsg)
		}
		buf = append(buf, keyField)
	}
	return buf
}

// AppendKey appends the canonical encoding of the full configuration to
// buf and returns the extended slice. Callers on the search hot path
// reuse the buffer across states.
func (c *Config) AppendKey(buf []byte) []byte {
	for _, pc := range c.pcs {
		buf = appendKeyVal(buf, int64(pc))
	}
	buf = append(buf, keyField)
	for _, rf := range c.regs {
		for _, v := range rf {
			buf = appendKeyVal(buf, int64(v))
		}
		buf = append(buf, keyField)
	}
	buf = c.appendMemory(buf)
	for _, view := range c.views {
		for _, m := range view {
			buf = appendKeyVal(buf, int64(c.pos(m)))
		}
		buf = append(buf, keyField)
	}
	return buf
}

// Key returns the canonical encoding of the full configuration as a
// string; AppendKey is the allocation-free form.
func (c *Config) Key() string {
	return string(c.AppendKey(make([]byte, 0, 64+8*c.MsgCount()*len(c.mo))))
}

// AppendDedupKey appends the exploration key to buf: the registers and
// the view of a terminated process are dead (no instruction of that
// process will ever read them), so they are masked out, merging states
// that differ only in dead local state. Callers that inspect final
// register values (ReachableOutcomes) must use AppendKey/Key instead.
func (s *System) AppendDedupKey(c *Config, buf []byte) []byte {
	for p, pc := range c.pcs {
		buf = appendKeyVal(buf, int64(pc))
		if s.Prog.Procs[p].Terminated(pc) {
			buf = append(buf, keyTerm)
			continue
		}
		for _, v := range c.regs[p] {
			buf = appendKeyVal(buf, int64(v))
		}
		buf = append(buf, keyField)
		for _, m := range c.views[p] {
			buf = appendKeyVal(buf, int64(c.pos(m)))
		}
		buf = append(buf, keyField)
	}
	return c.appendMemory(buf)
}

// DedupKey returns the exploration key as a string; AppendDedupKey is
// the allocation-free form used by the explorer.
func (s *System) DedupKey(c *Config) string {
	return string(s.AppendDedupKey(c, make([]byte, 0, 64+8*c.MsgCount()*len(c.mo))))
}

// appendCtxSuffix folds the context-bounded search coordinates into the
// key: the process that moved last (-1 initially) and the number of
// contexts used. The keyCtx marker keeps the suffix unambiguous against
// the preceding fields.
func appendCtxSuffix(buf []byte, last, contexts int) []byte {
	buf = append(buf, keyCtx)
	buf = appendKeyVal(buf, int64(last+1))
	buf = appendKeyVal(buf, int64(contexts))
	return buf
}

// appendSwitchSuffix folds the view-switch coordinate into the key.
// Under a view bound the explorers key each state by the exact number
// of switches used, so the visited set's answers — and with them the
// state and transition counts — depend only on the annotated state
// graph, never on the order the search walks it (the pool-width
// parity discipline; see DESIGN.md). The suffix reuses the keyCtx
// marker: which suffixes are present is fixed per run by the Options,
// so the encoding stays injective within a run.
func appendSwitchSuffix(buf []byte, switches int) []byte {
	buf = append(buf, keyCtx)
	buf = appendKeyVal(buf, int64(switches))
	return buf
}

// MemoryString renders the message pool for debugging and examples:
// one line per variable with the modification order of values, glue
// marks (*) and writer annotations.
func (s *System) MemoryString(c *Config) string {
	var b strings.Builder
	for v, name := range s.Vars {
		b.WriteString(name)
		b.WriteString(": ")
		for i, m := range c.mo[v] {
			if i > 0 {
				if m.Glued {
					b.WriteString(" =")
				}
				b.WriteString(" -> ")
			}
			b.WriteString(strconv.FormatInt(int64(m.Val), 10))
			if m.Writer >= 0 {
				b.WriteString("@")
				b.WriteString(s.Prog.Procs[m.Writer].Name)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RegValue returns the value of the named register of the named process,
// or 0 if either does not exist. Used to render litmus-test outcomes.
func (s *System) RegValue(c *Config, proc, reg string) lang.Value {
	pi := s.Prog.ProcIndex(proc)
	if pi < 0 {
		return 0
	}
	if i, ok := s.RegIdx[pi][reg]; ok {
		return c.regs[pi][i]
	}
	return 0
}

// Terminated reports whether every process of c has terminated.
func (s *System) Terminated(c *Config) bool {
	for p := range s.Prog.Procs {
		if !s.Prog.Procs[p].Terminated(c.pcs[p]) {
			return false
		}
	}
	return true
}
