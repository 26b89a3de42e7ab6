package partest

import (
	"testing"

	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/sc"
)

// compileCase compiles a corpus case for direct System construction.
func compileCase(c Case) (*lang.CompiledProgram, error) {
	return lang.Compile(c.Prog)
}

// TestClassicReduceParitySC sweeps the classic litmus corpus through
// the source-DPOR differential in stop and census modes, with and
// without exact dedup: the reduced search must reproduce the unreduced
// unbounded verdict on every shape, never visiting more states.
func TestClassicReduceParitySC(t *testing.T) {
	variants := []struct {
		name string
		opts sc.Options
	}{
		{"stop", sc.Options{}},
		{"census", sc.Options{CensusViolations: true}},
		{"exact", sc.Options{ExactDedup: true, CensusViolations: true}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			for _, c := range Classics() {
				Check(t, c, SCReduce(v.opts))
			}
		})
	}
}

// TestGeneratedReduceParity draws the same seeded sample as the
// serial/parallel harness and runs the reduction differential on each
// program — the breadth leg of the DPOR parity gate.
func TestGeneratedReduceParity(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	for _, c := range GeneratedSample(1, n) {
		Check(t, c, SCReduce(sc.Options{CensusViolations: true}))
	}
}

// TestBenchmarkReduceParity runs the reduction differential on the
// unrolled mutex benchmarks — the spaces where the reduction earns its
// keep — and requires a strict state-count win on at least one of them.
func TestBenchmarkReduceParity(t *testing.T) {
	strict := false
	for _, c := range Benchmarks() {
		if d := SCReduceDiff(c.Prog, sc.Options{CensusViolations: true}); d != "" {
			t.Errorf("%s: %s", c.Name, d)
			continue
		}
		full := scCensus(t, c, false)
		red := scCensus(t, c, true)
		if red < full {
			strict = true
			t.Logf("%s: %d -> %d states (%.2fx)", c.Name, full, red, float64(full)/float64(red))
		}
	}
	if !strict {
		t.Error("reduction never strictly shrank a benchmark census")
	}
}

// scCensus returns the census state count of one configuration.
func scCensus(t *testing.T, c Case, reduce bool) int {
	t.Helper()
	cp, err := compileCase(c)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	res := sc.NewSystem(cp).Check(sc.Options{CensusViolations: true, Reduce: reduce})
	return res.States
}

// TestCoreReduceParity runs the full-pipeline differential: the VBMC
// verdict with the reduced SC backend must equal the unreduced one on
// the classics and on safe and buggy mutex instances, with every UNSAFE
// witness replay-validated.
func TestCoreReduceParity(t *testing.T) {
	cases := Classics()
	if testing.Short() {
		cases = cases[:6]
	}
	for _, c := range cases {
		Check(t, c, CoreReduce(core.Options{K: 2}))
	}
	for _, c := range Benchmarks("peterson_0(2)", "peterson_4(2)") {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if d := CoreReduceDiff(c.Prog, core.Options{K: 2, Unroll: 2}); d != "" {
				t.Errorf("%s: %s", c.Name, d)
			}
		})
	}
}

// TestReduceWithWorkersParity: a reduced search runs on one worker
// whatever Workers says, so Reduce with a 4-wide pool must equal Reduce
// at width 1 exactly — counts and witness bytes, in stop and census
// modes — and match the unreduced verdict.
func TestReduceWithWorkersParity(t *testing.T) {
	for _, c := range append(Classics()[:6], Benchmarks("peterson_0(2)")...) {
		cp, err := compileCase(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		sys := sc.NewSystem(cp)
		for _, census := range []bool{false, true} {
			base := sys.Check(sc.Options{CensusViolations: census})
			one := sys.Check(sc.Options{Reduce: true, CensusViolations: census})
			got := sys.Check(sc.Options{Reduce: true, CensusViolations: census, Workers: 4})
			if one.Violation != base.Violation {
				t.Errorf("%s census=%v: reduced Violation %v vs unreduced %v", c.Name, census, one.Violation, base.Violation)
			}
			if d := diffCounts(4, 0,
				counts{one.States, one.Transitions, one.Violations, one.Exhausted, one.Trace},
				counts{got.States, got.Transitions, got.Violations, got.Exhausted, got.Trace}); d != "" {
				t.Errorf("%s census=%v: reduce: %s", c.Name, census, d)
			}
		}
	}
}
