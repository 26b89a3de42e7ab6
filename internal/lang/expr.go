package lang

import (
	"fmt"
	"strings"
)

// Value is the data domain D of the paper. All shared variables and
// registers range over Value; booleans are encoded as 0 (false) and
// 1 (true), and any non-zero value is truthy in conditions.
type Value = int64

// Expr is an expression over registers and constants. Expressions never
// mention shared variables (paper Sec. 3): shared state is accessed only
// through read, write and cas statements.
type Expr interface {
	// Eval evaluates the expression in the given register valuation.
	// Unknown registers evaluate to 0, matching the paper's convention
	// that all registers are initialised to the special value 0.
	Eval(regs func(string) Value) Value
	// String renders the expression in the concrete syntax accepted by
	// the parser.
	String() string
}

// Const is an integer literal.
type Const struct{ V Value }

// Reg is a register reference. Names carry no "$" prefix internally;
// the printer and parser add/strip it.
type Reg struct{ Name string }

// UnOp is the operator of a Not/Neg expression.
type UnOp int

// Unary operators.
const (
	OpNot UnOp = iota // logical negation
	OpNeg             // arithmetic negation
)

// Unary applies a unary operator to an operand.
type Unary struct {
	Op UnOp
	X  Expr
}

// BinOp is a binary operator.
type BinOp int

// Binary operators. Comparison and logical operators yield 0 or 1.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

// Binary applies a binary operator to two operands.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// Eval implements Expr.
func (c Const) Eval(func(string) Value) Value { return c.V }

// Eval implements Expr.
func (r Reg) Eval(regs func(string) Value) Value { return regs(r.Name) }

// Eval implements Expr.
func (u Unary) Eval(regs func(string) Value) Value { return u.Op.apply(u.X.Eval(regs)) }

// Eval implements Expr.
func (b Binary) Eval(regs func(string) Value) Value {
	l := b.L.Eval(regs)
	// Short-circuit logical operators.
	if v, done := b.Op.shortCircuit(l); done {
		return v
	}
	return b.Op.apply(l, b.R.Eval(regs))
}

func (op UnOp) apply(x Value) Value {
	switch op {
	case OpNot:
		return truth(x == 0)
	case OpNeg:
		return -x
	}
	panic(fmt.Sprintf("lang: bad unary op %d", op))
}

// shortCircuit returns the value of a logical operator fixed by its
// left operand alone, and whether there is one.
func (op BinOp) shortCircuit(l Value) (Value, bool) {
	switch {
	case op == OpAnd && l == 0:
		return 0, true
	case op == OpOr && l != 0:
		return 1, true
	}
	return 0, false
}

// apply combines two evaluated operands; And/Or reach it only when the
// left operand did not short-circuit, so their value is the right one's
// truth.
func (op BinOp) apply(l, r Value) Value {
	switch op {
	case OpAnd, OpOr:
		return truth(r != 0)
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	case OpDiv:
		if r == 0 {
			return 0 // total semantics: division by zero yields 0
		}
		return l / r
	case OpMod:
		if r == 0 {
			return 0
		}
		return l % r
	case OpEq:
		return truth(l == r)
	case OpNe:
		return truth(l != r)
	case OpLt:
		return truth(l < r)
	case OpLe:
		return truth(l <= r)
	case OpGt:
		return truth(l > r)
	case OpGe:
		return truth(l >= r)
	}
	panic(fmt.Sprintf("lang: bad binary op %d", op))
}

// SlotExpr is an expression lowered against one process's register
// file: register references are resolved to indices, so Eval reads a
// []Value directly, with no name lookup and no closure. Compile lowers
// every expression operand of every Instr; the zero SlotExpr is the
// constant 0.
type SlotExpr struct {
	kind slotKind
	op   uint8     // UnOp or BinOp
	v    Value     // the constant, or the register slot (-1: undeclared)
	x, y *SlotExpr // operands of unary (x) and binary (x, y) nodes
}

type slotKind uint8

const (
	slotConst slotKind = iota
	slotReg
	slotUnary
	slotBinary
)

// Lower resolves e against a process's register slots (name → index in
// its register file). A register missing from slots reads 0, the
// paper's convention for the initial register value.
func Lower(e Expr, slots map[string]int) SlotExpr {
	switch x := e.(type) {
	case nil:
		return SlotExpr{}
	case Const:
		return SlotExpr{kind: slotConst, v: x.V}
	case Reg:
		i, ok := slots[x.Name]
		if !ok {
			i = -1
		}
		return SlotExpr{kind: slotReg, v: Value(i)}
	case Unary:
		sub := Lower(x.X, slots)
		return SlotExpr{kind: slotUnary, op: uint8(x.Op), x: &sub}
	case Binary:
		l, r := Lower(x.L, slots), Lower(x.R, slots)
		return SlotExpr{kind: slotBinary, op: uint8(x.Op), x: &l, y: &r}
	}
	panic(fmt.Sprintf("lang: lower: unknown expression %T", e))
}

// Eval evaluates the expression over the register file regs, with the
// semantics of Expr.Eval.
func (e *SlotExpr) Eval(regs []Value) Value {
	switch e.kind {
	case slotConst:
		return e.v
	case slotReg:
		if e.v < 0 {
			return 0
		}
		return regs[e.v]
	case slotUnary:
		return UnOp(e.op).apply(e.x.Eval(regs))
	}
	op := BinOp(e.op)
	l := e.x.Eval(regs)
	if v, done := op.shortCircuit(l); done {
		return v
	}
	return op.apply(l, e.y.Eval(regs))
}

func truth(b bool) Value {
	if b {
		return 1
	}
	return 0
}

// String implements Expr.
func (c Const) String() string { return fmt.Sprintf("%d", c.V) }

// String implements Expr.
func (r Reg) String() string { return "$" + r.Name }

// String implements Expr.
func (u Unary) String() string {
	op := "!"
	if u.Op == OpNeg {
		op = "-"
	}
	return op + parenthesize(u.X)
}

// String implements Expr.
func (b Binary) String() string {
	return parenthesize(b.L) + " " + b.Op.String() + " " + parenthesize(b.R)
}

func parenthesize(e Expr) string {
	switch e.(type) {
	case Const, Reg:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

// String returns the concrete-syntax spelling of the operator.
func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "&&"
	case OpOr:
		return "||"
	}
	return fmt.Sprintf("binop(%d)", int(op))
}

// Regs appends to dst the names of all registers mentioned in e and
// returns the extended slice.
func Regs(e Expr, dst []string) []string {
	switch x := e.(type) {
	case Const:
	case Reg:
		dst = append(dst, x.Name)
	case Unary:
		dst = Regs(x.X, dst)
	case Binary:
		dst = Regs(x.L, dst)
		dst = Regs(x.R, dst)
	}
	return dst
}

// Convenience constructors used heavily by the benchmark generators and
// the code-to-code translation.

// C returns a constant expression.
func C(v Value) Expr { return Const{V: v} }

// R returns a register reference expression.
func R(name string) Expr { return Reg{Name: name} }

// Eq returns l == r.
func Eq(l, r Expr) Expr { return Binary{Op: OpEq, L: l, R: r} }

// Ne returns l != r.
func Ne(l, r Expr) Expr { return Binary{Op: OpNe, L: l, R: r} }

// Lt returns l < r.
func Lt(l, r Expr) Expr { return Binary{Op: OpLt, L: l, R: r} }

// Le returns l <= r.
func Le(l, r Expr) Expr { return Binary{Op: OpLe, L: l, R: r} }

// Gt returns l > r.
func Gt(l, r Expr) Expr { return Binary{Op: OpGt, L: l, R: r} }

// Ge returns l >= r.
func Ge(l, r Expr) Expr { return Binary{Op: OpGe, L: l, R: r} }

// Add returns l + r.
func Add(l, r Expr) Expr { return Binary{Op: OpAdd, L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return Binary{Op: OpSub, L: l, R: r} }

// And returns l && r.
func And(l, r Expr) Expr { return Binary{Op: OpAnd, L: l, R: r} }

// Or returns l || r.
func Or(l, r Expr) Expr { return Binary{Op: OpOr, L: l, R: r} }

// Not returns !x.
func Not(x Expr) Expr { return Unary{Op: OpNot, X: x} }

// ConjoinAll returns the conjunction of all given expressions, or
// the constant 1 when the list is empty.
func ConjoinAll(exprs ...Expr) Expr {
	if len(exprs) == 0 {
		return C(1)
	}
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = And(out, e)
	}
	return out
}

// ExprEqual reports structural equality of two expressions.
func ExprEqual(a, b Expr) bool {
	switch x := a.(type) {
	case Const:
		y, ok := b.(Const)
		return ok && x.V == y.V
	case Reg:
		y, ok := b.(Reg)
		return ok && x.Name == y.Name
	case Unary:
		y, ok := b.(Unary)
		return ok && x.Op == y.Op && ExprEqual(x.X, y.X)
	case Binary:
		y, ok := b.(Binary)
		return ok && x.Op == y.Op && ExprEqual(x.L, y.L) && ExprEqual(x.R, y.R)
	}
	return false
}

// joinStrings is a tiny helper shared by the printers.
func joinStrings(xs []string, sep string) string { return strings.Join(xs, sep) }
