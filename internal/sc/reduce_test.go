package sc

import (
	"testing"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/lang"
)

// mustMP is a message-passing shape: safe under SC (the full litmus
// corpora are swept by the partest DPOR harness; the sc unit tests keep
// to hand-rolled shapes to avoid an import cycle through core).
func mustMP() *lang.Program {
	return &lang.Program{
		Name: "mp",
		Vars: []string{"x", "y"},
		Procs: []*lang.Proc{
			{Name: "P0", Body: []lang.Stmt{
				lang.Write{Var: "x", Val: lang.C(1)},
				lang.Write{Var: "y", Val: lang.C(1)},
			}},
			{Name: "P1", Regs: []string{"a", "b"}, Body: []lang.Stmt{
				lang.Read{Reg: "a", Var: "y"},
				lang.Read{Reg: "b", Var: "x"},
				lang.Assert{Cond: lang.Or(lang.Eq(lang.R("a"), lang.C(0)), lang.Eq(lang.R("b"), lang.C(1)))},
			}},
		},
	}
}

// mustDisjoint is two threads over disjoint variables — everything
// commutes, so the reduction should collapse the diamond.
func mustDisjoint() *lang.Program {
	return &lang.Program{
		Name: "disjoint",
		Vars: []string{"x", "y"},
		Procs: []*lang.Proc{
			{Name: "P0", Body: []lang.Stmt{
				lang.Write{Var: "x", Val: lang.C(1)},
				lang.Write{Var: "x", Val: lang.C(2)},
			}},
			{Name: "P1", Body: []lang.Stmt{
				lang.Write{Var: "y", Val: lang.C(1)},
				lang.Write{Var: "y", Val: lang.C(2)},
			}},
		},
	}
}

// reduceCorpus returns the programs the reduction unit tests sweep:
// hand-rolled litmus shapes plus small unrolled mutex benchmarks.
func reduceCorpus(t *testing.T) map[string]*lang.Program {
	t.Helper()
	progs := map[string]*lang.Program{
		"sb":       mustSB(),
		"mp":       mustMP(),
		"disjoint": mustDisjoint(),
	}
	for _, name := range []string{"peterson_0", "peterson_4", "dekker"} {
		p, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs["bench/"+name] = lang.Unroll(p, 2)
	}
	return progs
}

// TestReduceParity is the reduction's core contract: on every corpus
// program the reduced search agrees with the unreduced unbounded one on
// the verdict and exhaustiveness, produces a witness whenever the
// unreduced search does, and visits no more states — in both stop and
// census modes, in both dedup modes.
func TestReduceParity(t *testing.T) {
	reducedOnSomething := false
	for name, p := range reduceCorpus(t) {
		for _, census := range []bool{false, true} {
			for _, exact := range []bool{false, true} {
				base := Options{CensusViolations: census, ExactDedup: exact}
				full := check(t, p, base)
				red := base
				red.Reduce = true
				got := check(t, p, red)
				if got.Violation != full.Violation {
					t.Errorf("%s census=%v exact=%v: Violation %v (reduced) vs %v (unreduced)",
						name, census, exact, got.Violation, full.Violation)
				}
				if got.Exhausted != full.Exhausted {
					t.Errorf("%s census=%v exact=%v: Exhausted %v (reduced) vs %v (unreduced)",
						name, census, exact, got.Exhausted, full.Exhausted)
				}
				if got.Violation && got.Trace == nil {
					t.Errorf("%s census=%v exact=%v: reduced violation without witness", name, census, exact)
				}
				// Comparable only when both ran to completion: a stop-mode
				// violation ends each search at an order-dependent prefix.
				if got.Exhausted && full.Exhausted && got.States > full.States {
					t.Errorf("%s census=%v exact=%v: reduced visited more states (%d) than unreduced (%d)",
						name, census, exact, got.States, full.States)
				}
				if census && got.States < full.States {
					reducedOnSomething = true
				}
			}
		}
	}
	if !reducedOnSomething {
		t.Error("reduction never shrank a census state count on the corpus")
	}
}

// TestReduceDeterministic runs the reduced census twice and requires
// identical results: the persistent-set seeds, sleep propagation and
// wake-up bookkeeping are all functions of the state alone.
func TestReduceDeterministic(t *testing.T) {
	for name, p := range reduceCorpus(t) {
		opts := Options{Reduce: true, CensusViolations: true}
		a := check(t, p, opts)
		b := check(t, p, opts)
		if a.States != b.States || a.Transitions != b.Transitions ||
			a.Violations != b.Violations || a.Violation != b.Violation {
			t.Errorf("%s: reduced census not deterministic: %+v vs %+v", name, a, b)
		}
	}
}

// TestReduceStrictOnBenchmark pins the headline claim: on at least one
// mutex benchmark the reduced census explores strictly fewer states
// than the unreduced unbounded census.
func TestReduceStrictOnBenchmark(t *testing.T) {
	p, err := benchmarks.ByName("peterson_0")
	if err != nil {
		t.Fatal(err)
	}
	prog := lang.Unroll(p, 2)
	full := check(t, prog, Options{CensusViolations: true})
	red := check(t, prog, Options{CensusViolations: true, Reduce: true})
	if red.Violation != full.Violation || red.Exhausted != full.Exhausted {
		t.Fatalf("verdict divergence: reduced %+v vs unreduced %+v", red, full)
	}
	if red.States >= full.States {
		t.Errorf("no strict reduction on peterson_0: %d reduced vs %d unreduced states", red.States, full.States)
	}
	t.Logf("peterson_0(2): %d -> %d states (%.2fx)", full.States, red.States, float64(full.States)/float64(red.States))
}

// TestReduceFallsBackOnLoops: a program with a (non-unrolled) spinloop
// has a cyclic CFG, where the reduction is unsound; Check must silently
// run the unreduced search instead and still find the violation.
func TestReduceFallsBackOnLoops(t *testing.T) {
	p := &lang.Program{
		Name: "spin",
		Vars: []string{"x"},
		Procs: []*lang.Proc{
			{Name: "P0", Body: []lang.Stmt{lang.Write{Var: "x", Val: lang.C(1)}}},
			{Name: "P1", Regs: []string{"r"}, Body: []lang.Stmt{
				lang.While{Cond: lang.Eq(lang.R("r"), lang.C(0)), Body: []lang.Stmt{
					lang.Read{Reg: "r", Var: "x"},
				}},
				lang.Assert{Cond: lang.C(0)},
			}},
		},
	}
	sys := NewSystem(lang.MustCompile(p))
	if sys.ReduceApplies() {
		t.Fatal("reduction claimed to apply to a cyclic CFG")
	}
	res := sys.Check(Options{Reduce: true})
	if !res.Violation {
		t.Error("fallback unreduced search missed the violation")
	}
}

// TestReduceRunsAtWidthOne: a reduced search ignores Workers and runs
// on one worker, so any width gives the width-1 result exactly —
// counts and witness — in stop and census modes.
func TestReduceRunsAtWidthOne(t *testing.T) {
	for name, p := range reduceCorpus(t) {
		for _, census := range []bool{false, true} {
			base := check(t, p, Options{Reduce: true, CensusViolations: census})
			for _, w := range []int{2, 4, -1} {
				got := check(t, p, Options{Reduce: true, CensusViolations: census, Workers: w})
				if got.Violation != base.Violation || got.Violations != base.Violations ||
					got.States != base.States || got.Transitions != base.Transitions ||
					got.Exhausted != base.Exhausted {
					t.Errorf("%s census=%v workers=%d: %+v vs width 1 %+v", name, census, w, got, base)
				}
				if (got.Trace == nil) != (base.Trace == nil) ||
					got.Trace != nil && got.Trace.String() != base.Trace.String() {
					t.Errorf("%s census=%v workers=%d: witness differs from width 1", name, census, w)
				}
			}
		}
	}
}
