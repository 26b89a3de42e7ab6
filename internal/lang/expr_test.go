package lang

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func evalWith(e Expr, regs map[string]Value) Value {
	return e.Eval(func(n string) Value { return regs[n] })
}

func TestEvalArithmetic(t *testing.T) {
	regs := map[string]Value{"a": 7, "b": -3}
	cases := []struct {
		e    Expr
		want Value
	}{
		{C(42), 42},
		{R("a"), 7},
		{R("missing"), 0},
		{Add(R("a"), R("b")), 4},
		{Sub(R("a"), C(10)), -3},
		{Binary{Op: OpMul, L: R("a"), R: R("b")}, -21},
		{Binary{Op: OpDiv, L: R("a"), R: C(2)}, 3},
		{Binary{Op: OpDiv, L: R("a"), R: C(0)}, 0}, // total semantics
		{Binary{Op: OpMod, L: R("a"), R: C(4)}, 3},
		{Binary{Op: OpMod, L: R("a"), R: C(0)}, 0},
		{Unary{Op: OpNeg, X: R("a")}, -7},
	}
	for _, c := range cases {
		if got := evalWith(c.e, regs); got != c.want {
			t.Errorf("%s = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestEvalComparisonsAndLogic(t *testing.T) {
	regs := map[string]Value{"x": 5, "y": 5, "z": 0}
	cases := []struct {
		e    Expr
		want Value
	}{
		{Eq(R("x"), R("y")), 1},
		{Ne(R("x"), R("y")), 0},
		{Lt(R("x"), C(6)), 1},
		{Le(R("x"), C(5)), 1},
		{Gt(R("x"), C(5)), 0},
		{Ge(R("x"), C(5)), 1},
		{And(C(1), C(2)), 1}, // non-zero is truthy, result normalised
		{And(C(0), C(1)), 0},
		{Or(C(0), C(0)), 0},
		{Or(C(0), C(7)), 1},
		{Not(R("z")), 1},
		{Not(R("x")), 0},
		{ConjoinAll(), 1},
		{ConjoinAll(C(1), C(1), C(0)), 0},
	}
	for _, c := range cases {
		if got := evalWith(c.e, regs); got != c.want {
			t.Errorf("%s = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// Division by zero on the right of && must not be reached when the
	// left is false — there are no side effects, but the operators must
	// still normalise to 0/1.
	if got := evalWith(And(C(0), C(99)), nil); got != 0 {
		t.Errorf("0 && 99 = %d", got)
	}
	if got := evalWith(Or(C(99), C(0)), nil); got != 1 {
		t.Errorf("99 || 0 = %d", got)
	}
}

func TestRegsCollection(t *testing.T) {
	e := And(Eq(R("a"), C(1)), Or(Lt(R("b"), R("c")), Not(R("a"))))
	got := Regs(e, nil)
	want := map[string]int{"a": 2, "b": 1, "c": 1}
	counts := map[string]int{}
	for _, r := range got {
		counts[r]++
	}
	for r, n := range want {
		if counts[r] != n {
			t.Errorf("register %s appears %d times, want %d", r, counts[r], n)
		}
	}
}

// randomExpr builds a random expression over the given registers.
func randomExpr(rng *rand.Rand, regs []string, depth int) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return C(Value(rng.Intn(21) - 10))
		}
		return R(regs[rng.Intn(len(regs))])
	}
	if rng.Intn(5) == 0 {
		return Unary{Op: UnOp(rng.Intn(2)), X: randomExpr(rng, regs, depth-1)}
	}
	return Binary{
		Op: BinOp(rng.Intn(13)),
		L:  randomExpr(rng, regs, depth-1),
		R:  randomExpr(rng, regs, depth-1),
	}
}

// TestExprEqualReflexive: structural equality is reflexive on random
// expressions and detects any single-node mutation at the root.
func TestExprEqualReflexive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		e := randomExpr(rng, []string{"a", "b"}, 4)
		if !ExprEqual(e, e) {
			t.Fatalf("expression not equal to itself: %s", e)
		}
		if ExprEqual(e, Add(e, C(1))) {
			t.Fatalf("distinct expressions reported equal: %s", e)
		}
	}
}

// TestEvalDeterministic (property): evaluation is a pure function of the
// register valuation.
func TestEvalDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(a, b Value) bool {
		e := randomExpr(rng, []string{"a", "b"}, 5)
		regs := map[string]Value{"a": a, "b": b}
		return evalWith(e, regs) == evalWith(e, regs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLowerMatchesEval (property): an expression lowered to register
// slots evaluates exactly as the name-based form, an undeclared
// register ("c" below) reading 0 in both.
func TestLowerMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	slots := map[string]int{"a": 0, "b": 1}
	f := func(a, b Value) bool {
		e := randomExpr(rng, []string{"a", "b", "c"}, 5)
		low := Lower(e, slots)
		return low.Eval([]Value{a, b}) == evalWith(e, map[string]Value{"a": a, "b": b})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestComparisonsAreBoolean (property): comparison and logic operators
// always yield 0 or 1.
func TestComparisonsAreBoolean(t *testing.T) {
	f := func(a, b Value) bool {
		regs := map[string]Value{"a": a, "b": b}
		for _, op := range []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr} {
			v := evalWith(Binary{Op: op, L: R("a"), R: R("b")}, regs)
			if v != 0 && v != 1 {
				return false
			}
		}
		n := evalWith(Not(R("a")), regs)
		return n == 0 || n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinOpString(t *testing.T) {
	for op, want := range map[BinOp]string{
		OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
		OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
		OpAnd: "&&", OpOr: "||",
	} {
		if op.String() != want {
			t.Errorf("op %d prints %q, want %q", int(op), op.String(), want)
		}
	}
}
