package lang

import "fmt"

// Op identifies the kind of a flat instruction.
type Op int

// Flat instruction opcodes. Structured control flow (if/while) compiles
// to OpCJmp/OpJmp; everything else maps one-to-one from the AST.
const (
	OpReadVar     Op = iota // Reg = Var (acquire read)
	OpWriteVar              // Var = Val (release write)
	OpCASVar                // cas(Var, Old, Val)
	OpFenceOp               // fence
	OpAssignReg             // Reg = Val
	OpNondetReg             // Reg = nondet(Lo, Hi)
	OpAssumeCond            // assume(Cond)
	OpAssertCond            // assert(Cond)
	OpJmp                   // goto Next
	OpCJmp                  // if Cond goto Next else goto Else
	OpTermProc              // terminate process (self-loop sink)
	OpLoadArrEl             // Reg = Var[Index]
	OpStoreArrEl            // Var[Index] = Val
	OpAtomicBegin           // begin non-preemptible section
	OpAtomicEnd             // end non-preemptible section
)

// String returns a short mnemonic for the opcode.
func (op Op) String() string {
	switch op {
	case OpReadVar:
		return "read"
	case OpWriteVar:
		return "write"
	case OpCASVar:
		return "cas"
	case OpFenceOp:
		return "fence"
	case OpAssignReg:
		return "assign"
	case OpNondetReg:
		return "nondet"
	case OpAssumeCond:
		return "assume"
	case OpAssertCond:
		return "assert"
	case OpJmp:
		return "jmp"
	case OpCJmp:
		return "cjmp"
	case OpTermProc:
		return "term"
	case OpLoadArrEl:
		return "load"
	case OpStoreArrEl:
		return "store"
	case OpAtomicBegin:
		return "atomic{"
	case OpAtomicEnd:
		return "}atomic"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Instr is one flat instruction. Fields are used per-opcode; unused
// fields are zero. Next is the fallthrough / jump / true target; Else is
// the false target of OpCJmp.
//
// The name-level fields (Reg, Var, Val, Old, Index, Cond) name the
// operands in trace events, diagnostics and the analyses that work by
// name (internal/tmai). Compile also resolves them into slots, which is
// what the engines execute: no engine looks a name up or evaluates
// through a closure on its hot path.
type Instr struct {
	Op    Op
	Label string // source label, or generated "<proc>#<idx>"
	Reg   string // destination register
	Var   string // shared variable or array name
	Val   Expr   // value written / assigned / CAS new value
	Old   Expr   // CAS expected value
	Index Expr   // array index
	Cond  Expr   // assume/assert/cjmp condition
	Lo    Value  // nondet lower bound (inclusive)
	Hi    Value  // nondet upper bound (inclusive)
	Next  int
	Else  int

	// VarSlot is the index of Var in CompiledProgram.Vars for the
	// scalar accesses (read, write, cas) and in CompiledProgram.Arrays
	// for load/store; -1 when the opcode has no shared operand.
	VarSlot int
	// RegSlot is the index of Reg in the process's Regs (read, load,
	// assign, nondet); -1 when the opcode writes no register.
	RegSlot int
	// ValS, OldS, IndexS and CondS are Val, Old, Index and Cond lowered
	// against the process's register file (see SlotExpr); the zero
	// SlotExpr where the expression is absent.
	ValS, OldS, IndexS, CondS SlotExpr
}

// CompiledProc is a process lowered to flat code. Entry is always 0 and
// Code always ends in at least one OpTermProc so every pc has a successor.
type CompiledProc struct {
	Name string
	Regs []string
	Code []Instr
}

// CompiledProgram is a program lowered to flat code, the form the RA and
// SC engines execute.
type CompiledProgram struct {
	Source *Program
	Name   string
	Vars   []string
	Arrays []ArrayDecl
	Procs  []*CompiledProc
}

// Compile validates p and lowers every process to flat code.
func Compile(p *Program) (*CompiledProgram, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cp := &CompiledProgram{
		Source: p,
		Name:   p.Name,
		Vars:   p.Vars,
		Arrays: p.Arrays,
	}
	vars := slotMap(p.Vars)
	arrays := make(map[string]int, len(p.Arrays))
	for i, a := range p.Arrays {
		arrays[a.Name] = i
	}
	for _, pr := range p.Procs {
		c := &compiler{proc: pr.Name}
		c.stmts(pr.Body)
		// Implicit termination when the body falls off the end.
		c.emit(Instr{Op: OpTermProc})
		// Make every OpTermProc a self-loop sink and fill in labels.
		for i := range c.code {
			if c.code[i].Op == OpTermProc {
				c.code[i].Next = i
				c.code[i].Else = i
			}
			if c.code[i].Label == "" {
				c.code[i].Label = fmt.Sprintf("%s#%d", pr.Name, i)
			}
		}
		regs := slotMap(pr.Regs)
		for i := range c.code {
			c.code[i].resolve(vars, arrays, regs)
		}
		cp.Procs = append(cp.Procs, &CompiledProc{
			Name: pr.Name,
			Regs: append([]string(nil), pr.Regs...),
			Code: c.code,
		})
	}
	return cp, nil
}

func slotMap(names []string) map[string]int {
	m := make(map[string]int, len(names))
	for i, n := range names {
		m[n] = i
	}
	return m
}

// resolve fills in the instruction's slots from the name tables of its
// program and process.
func (in *Instr) resolve(vars, arrays, regs map[string]int) {
	in.VarSlot, in.RegSlot = -1, -1
	switch in.Op {
	case OpReadVar, OpWriteVar, OpCASVar:
		in.VarSlot = vars[in.Var]
	case OpLoadArrEl, OpStoreArrEl:
		in.VarSlot = arrays[in.Var]
	}
	switch in.Op {
	case OpReadVar, OpLoadArrEl, OpAssignReg, OpNondetReg:
		in.RegSlot = regs[in.Reg]
	}
	in.ValS = Lower(in.Val, regs)
	in.OldS = Lower(in.Old, regs)
	in.IndexS = Lower(in.Index, regs)
	in.CondS = Lower(in.Cond, regs)
}

// MustCompile is Compile that panics on error; for use with generated
// programs whose well-formedness is guaranteed by construction.
func MustCompile(p *Program) *CompiledProgram {
	cp, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return cp
}

type compiler struct {
	proc string
	code []Instr
	// atomic is the label of the innermost enclosing atomic section:
	// unlabelled instructions inside it inherit the section's label, so
	// every event of a translated block carries the block's (source)
	// label and witness lifting can attribute it.
	atomic string
}

func (c *compiler) emit(in Instr) int {
	if in.Label == "" {
		in.Label = c.atomic
	}
	in.Next = len(c.code) + 1 // default fallthrough; patched for jumps
	c.code = append(c.code, in)
	return len(c.code) - 1
}

func (c *compiler) stmts(body []Stmt) {
	for _, s := range body {
		c.stmt(s)
	}
}

func (c *compiler) stmt(s Stmt) {
	switch t := s.(type) {
	case Read:
		c.emit(Instr{Op: OpReadVar, Label: t.Lbl, Reg: t.Reg, Var: t.Var})
	case Write:
		c.emit(Instr{Op: OpWriteVar, Label: t.Lbl, Var: t.Var, Val: t.Val})
	case CAS:
		c.emit(Instr{Op: OpCASVar, Label: t.Lbl, Var: t.Var, Old: t.Old, Val: t.New})
	case Fence:
		c.emit(Instr{Op: OpFenceOp, Label: t.Lbl})
	case Assign:
		c.emit(Instr{Op: OpAssignReg, Label: t.Lbl, Reg: t.Reg, Val: t.Val})
	case Nondet:
		c.emit(Instr{Op: OpNondetReg, Label: t.Lbl, Reg: t.Reg, Lo: t.Lo, Hi: t.Hi})
	case Assume:
		c.emit(Instr{Op: OpAssumeCond, Label: t.Lbl, Cond: t.Cond})
	case Assert:
		c.emit(Instr{Op: OpAssertCond, Label: t.Lbl, Cond: t.Cond})
	case If:
		br := c.emit(Instr{Op: OpCJmp, Label: t.Lbl, Cond: t.Cond})
		c.code[br].Next = len(c.code)
		c.stmts(t.Then)
		if len(t.Else) == 0 {
			c.code[br].Else = len(c.code)
			return
		}
		j := c.emit(Instr{Op: OpJmp})
		c.code[br].Else = len(c.code)
		c.stmts(t.Else)
		c.code[j].Next = len(c.code)
	case While:
		head := c.emit(Instr{Op: OpCJmp, Label: t.Lbl, Cond: t.Cond})
		c.code[head].Next = len(c.code)
		c.stmts(t.Body)
		back := c.emit(Instr{Op: OpJmp})
		c.code[back].Next = head
		c.code[head].Else = len(c.code)
	case Term:
		c.emit(Instr{Op: OpTermProc, Label: t.Lbl})
	case LoadArr:
		c.emit(Instr{Op: OpLoadArrEl, Label: t.Lbl, Reg: t.Reg, Var: t.Arr, Index: t.Index})
	case StoreArr:
		c.emit(Instr{Op: OpStoreArrEl, Label: t.Lbl, Var: t.Arr, Index: t.Index, Val: t.Val})
	case Atomic:
		c.emit(Instr{Op: OpAtomicBegin, Label: t.Lbl})
		outer := c.atomic
		if t.Lbl != "" {
			c.atomic = t.Lbl
		}
		c.stmts(t.Body)
		c.atomic = outer
		c.emit(Instr{Op: OpAtomicEnd})
	default:
		panic(fmt.Sprintf("lang: compile: unknown statement %T in process %s", s, c.proc))
	}
}

// GloballyVisible reports whether the instruction reads or writes shared
// state. Scheduling engines only consider preemptions at visible
// instructions (and at atomic-section boundaries); this implements the
// paper's optimisation that a process need not context-switch at purely
// local steps.
func (in *Instr) GloballyVisible() bool {
	switch in.Op {
	case OpReadVar, OpWriteVar, OpCASVar, OpFenceOp, OpLoadArrEl, OpStoreArrEl, OpAtomicBegin:
		return true
	}
	return false
}

// Terminated reports whether pc designates the termination sink.
func (cp *CompiledProc) Terminated(pc int) bool {
	return cp.Code[pc].Op == OpTermProc
}

// LabelAt returns the source-or-generated label of the instruction at pc.
func (cp *CompiledProc) LabelAt(pc int) string { return cp.Code[pc].Label }

// FindLabel returns the pc of the instruction with the given label, or -1.
func (cp *CompiledProc) FindLabel(label string) int {
	for i := range cp.Code {
		if cp.Code[i].Label == label {
			return i
		}
	}
	return -1
}

// ProcIndex returns the index of the named process, or -1.
func (cp *CompiledProgram) ProcIndex(name string) int {
	for i, pr := range cp.Procs {
		if pr.Name == name {
			return i
		}
	}
	return -1
}
