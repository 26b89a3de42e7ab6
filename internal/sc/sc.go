// Package sc implements sequential-consistency semantics for the
// language and a context-bounded explicit-state model checker in the
// spirit of Qadeer–Rehof bounded-context model checking. It plays the
// role CBMC 5.10 + Lazy CSeq play for VBMC in the paper: a sound and
// complete decision procedure for assertion reachability of bounded
// (loop-unrolled) SC programs with nondeterminism, under a bound on the
// number of contexts.
//
// The checker explores at the granularity of "macro steps": one globally
// visible operation (shared read/write/CAS/array access, or a whole
// atomic block) followed by the maximal run of purely local operations.
// Local operations commute with every operation of other processes, so
// restricting preemption to visible points preserves reachability — this
// is the paper's optimisation that a process "does not context switch
// until it writes to a shared variable", generalised to all visible
// operations.
package sc

import (
	"encoding/binary"
	"slices"

	"ravbmc/internal/lang"
)

// System pre-computes indices for SC execution of a compiled program.
// A configuration is one flat slice of values (see Config): it is
// cloned for every successor during search, and one contiguous copy
// beats several.
type System struct {
	Prog   *lang.CompiledProgram
	VarIdx map[string]int
	ArrIdx map[string]int
	Arrays []lang.ArrayDecl
	RegIdx []map[string]int
	// Layout of Config.v: shared scalars from 0, array i from arrOff[i],
	// the pcs from pcOff, and the registers of process p in
	// [regOff[p], regOff[p+1]); regOff[len(Procs)] is the total length.
	arrOff []int
	pcOff  int
	regOff []int

	// Partial-order-reduction dependence tables, built lazily on first
	// reduced search (see reduce.go).
	reduceState
}

// NewSystem prepares a compiled program for SC execution.
func NewSystem(cp *lang.CompiledProgram) *System {
	s := &System{Prog: cp, VarIdx: map[string]int{}, ArrIdx: map[string]int{}}
	for i, v := range cp.Vars {
		s.VarIdx[v] = i
	}
	off := len(cp.Vars)
	for i, a := range cp.Arrays {
		s.ArrIdx[a.Name] = i
		s.Arrays = append(s.Arrays, a)
		s.arrOff = append(s.arrOff, off)
		off += a.Size
	}
	s.pcOff = off
	off += len(cp.Procs)
	for _, pr := range cp.Procs {
		m := make(map[string]int, len(pr.Regs))
		for i, r := range pr.Regs {
			m[r] = i
		}
		s.RegIdx = append(s.RegIdx, m)
		s.regOff = append(s.regOff, off)
		off += len(pr.Regs)
	}
	s.regOff = append(s.regOff, off)
	return s
}

// Config is an SC machine configuration: the shared store, per-process
// program counters and register files, all in one slice laid out as
// System describes, plus the identity of the process holding the
// current context.
type Config struct {
	v   []lang.Value // scalars | array cells | pcs | register files
	cur int          // process holding the context; -1 before the first step
}

// Init returns the initial configuration: all variables, array cells and
// registers 0 (or the array's declared init value), every pc at entry.
func (s *System) Init() *Config {
	c := &Config{v: make([]lang.Value, s.regOff[len(s.regOff)-1]), cur: -1}
	for i, a := range s.Arrays {
		if a.Init != 0 {
			cells := c.v[s.arrOff[i] : s.arrOff[i]+a.Size]
			for j := range cells {
				cells[j] = a.Init
			}
		}
	}
	return c
}

func (c Config) clone() Config {
	return Config{v: slices.Clone(c.v), cur: c.cur}
}

// pc returns the program counter of process p.
func (s *System) pc(c *Config, p int) int { return int(c.v[s.pcOff+p]) }

// regs returns the register file of process p, aliasing c.
func (s *System) regs(c *Config, p int) []lang.Value {
	return c.v[s.regOff[p]:s.regOff[p+1]]
}

// Key returns a canonical binary encoding of the full configuration.
func (c *Config) Key() string { return string(c.pack(nil)) }

// pack appends c in Key's encoding to buf, about one byte per value:
// the form in which frontier items hold configurations.
func (c *Config) pack(buf []byte) []byte {
	return appendVal(appendVals(buf, c.v), lang.Value(c.cur+1))
}

// unpackInto decodes a configuration encoded by pack into c, whose
// value slice already has the system's length.
func unpackInto(c *Config, b []byte) {
	for i := range c.v {
		c.v[i], b = readVal(b)
	}
	cur, _ := readVal(b)
	c.cur = int(cur) - 1
}

// readVal decodes the value appendVal put at the head of b.
func readVal(b []byte) (lang.Value, []byte) {
	if b[0] == 0xFE {
		return lang.Value(binary.LittleEndian.Uint64(b[1:9])), b[9:]
	}
	return lang.Value(b[0]), b[1:]
}

func appendVals(buf []byte, vs []lang.Value) []byte {
	for _, v := range vs {
		buf = appendVal(buf, v)
	}
	return buf
}

// appendVal encodes one value: 0..250 as a single byte, anything else as
// 0xFE plus eight little-endian bytes.
func appendVal(buf []byte, v lang.Value) []byte {
	if v >= 0 && v <= 250 {
		return append(buf, byte(v))
	}
	var b [9]byte
	b[0] = 0xFE
	binary.LittleEndian.PutUint64(b[1:], uint64(v))
	return append(buf, b[:]...)
}

// DedupKey appends the search key to buf: the configuration as Key
// encodes it, except that every terminated process's registers are
// masked as the single byte 0xFD — they can never be read again.
func (s *System) DedupKey(c *Config, buf []byte) []byte {
	buf = appendVals(buf, c.v[:s.regOff[0]])
	for p := range s.Prog.Procs {
		if s.terminated(c, p) {
			buf = append(buf, 0xFD)
			continue
		}
		buf = appendVals(buf, s.regs(c, p))
	}
	return appendVal(buf, lang.Value(c.cur+1))
}

func (s *System) terminated(c *Config, p int) bool {
	return s.Prog.Procs[p].Terminated(s.pc(c, p))
}

// Mem returns the value of the named shared variable.
func (s *System) Mem(c *Config, name string) lang.Value { return c.v[s.VarIdx[name]] }

// RegValue returns the value of the named register of the named process.
func (s *System) RegValue(c *Config, proc, reg string) lang.Value {
	pi := s.Prog.ProcIndex(proc)
	if pi < 0 {
		return 0
	}
	if i, ok := s.RegIdx[pi][reg]; ok {
		return s.regs(c, pi)[i]
	}
	return 0
}

// Terminated reports whether every process has terminated.
func (s *System) Terminated(c *Config) bool {
	for p := range s.Prog.Procs {
		if !s.terminated(c, p) {
			return false
		}
	}
	return true
}

// procStatus classifies what process p can do next from c.
type procStatus int

const (
	statusReady      procStatus = iota // at a visible instruction
	statusTerminated                   // at the term sink
	statusStuck                        // at a false assume or a blocked CAS
)

// status inspects p without modifying c. It must be called only at
// quiescent points (pc at a visible instruction, term, or assume).
func (s *System) status(c *Config, p int) procStatus {
	in := &s.Prog.Procs[p].Code[s.pc(c, p)]
	switch in.Op {
	case lang.OpTermProc:
		return statusTerminated
	case lang.OpAssumeCond:
		if in.CondS.Eval(s.regs(c, p)) == 0 {
			return statusStuck
		}
		return statusReady
	case lang.OpCASVar:
		if c.v[in.VarSlot] != in.OldS.Eval(s.regs(c, p)) {
			return statusStuck
		}
		return statusReady
	default:
		return statusReady
	}
}

// InitialConfigs returns the quiescent initial configurations: the
// initial state with every process's local prefix executed, one per
// combination of initial nondeterministic choices. Prefixes that fail
// an assertion are dropped.
func (s *System) InitialConfigs() []*Config {
	return configs(s.initClosure(s.Init(), 0))
}

// MacroSteps exposes the macro-step successors of process p, for
// outcome enumeration by other packages; violating branches are
// dropped.
func (s *System) MacroSteps(c *Config, p int) []*Config {
	if s.status(c, p) != statusReady {
		return nil
	}
	var buf [8]outcome
	return configs(s.macroStep(c, p, 0, buf[:0], nil))
}

// configs returns the non-violating outcomes' configurations, backed
// by one allocation.
func configs(ocs []outcome) []*Config {
	cfgs := make([]Config, 0, len(ocs))
	out := make([]*Config, 0, len(ocs))
	for _, oc := range ocs {
		if !oc.violation {
			cfgs = append(cfgs, oc.cfg)
			out = append(out, &cfgs[len(cfgs)-1])
		}
	}
	return out
}
