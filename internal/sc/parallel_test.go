package sc

import (
	"strings"
	"testing"
	"time"

	"ravbmc/internal/lang"
	"ravbmc/internal/sched"
)

// sbParallel is a store-buffering shape with an SC-reachable assertion
// failure, wide enough that a pool expands nodes on several workers.
func sbParallel() *lang.Program {
	p := lang.NewProgram("sb_par", "x", "y")
	p.AddProc("p0", "a").Add(
		lang.WriteC("x", 1), lang.ReadS("a", "y"),
		// Fails on every interleaving where p0 reads y=1: gives the
		// census violations and a witness to compare.
		lang.AssertS(lang.Ne(lang.R("a"), lang.C(1))),
	)
	p.AddProc("p1", "b").Add(lang.WriteC("y", 1), lang.ReadS("b", "x"))
	return p
}

// TestParallelWorkerPanicSurfaces is the regression test for the
// worker-panic contract on the SC side: a panic inside a worker's
// macro-step expansion must re-surface as a *sched.PanicError panic on
// the Check caller, never a hang on the pool's termination barrier.
func TestParallelWorkerPanicSurfaces(t *testing.T) {
	testExpandHook = func(worker, depth int) {
		if depth >= 1 {
			panic("injected worker failure")
		}
	}
	defer func() { testExpandHook = nil }()

	sys := NewSystem(lang.MustCompile(sbParallel()))
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		sys.Check(Options{Workers: 2, CensusViolations: true})
		done <- nil
	}()
	select {
	case r := <-done:
		pe, ok := r.(*sched.PanicError)
		if !ok {
			t.Fatalf("Check returned %v (%T), want a *sched.PanicError panic", r, r)
		}
		if pe.Val != "injected worker failure" {
			t.Errorf("PanicError.Val = %v, want the injected value", pe.Val)
		}
		if !strings.Contains(string(pe.Stack), "parallel_test") {
			t.Errorf("PanicError.Stack does not point at the panicking expansion:\n%s", pe.Stack)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Check hung after a worker panic")
	}
}

// TestParallelCensusMatchesSerialInPackage is the package-local parity
// smoke test (the corpus sweep lives in internal/partest): the census on
// a wider pool must equal the default one-worker census.
func TestParallelCensusMatchesSerialInPackage(t *testing.T) {
	sys := NewSystem(lang.MustCompile(sbParallel()))
	ser := sys.Check(Options{CensusViolations: true})
	for _, w := range []int{1, 2, 4} {
		par := sys.Check(Options{CensusViolations: true, Workers: w})
		if ser.Violation != par.Violation || ser.Violations != par.Violations ||
			ser.States != par.States || ser.Transitions != par.Transitions ||
			ser.Exhausted != par.Exhausted {
			t.Errorf("workers=%d: width 1 %+v vs %+v", w, ser, par)
		}
		st, pt := "", ""
		if ser.Trace != nil {
			st = ser.Trace.String()
		}
		if par.Trace != nil {
			pt = par.Trace.String()
		}
		if st != pt {
			t.Errorf("workers=%d: witness differs\nwidth 1:\n%s\nwide:\n%s", w, st, pt)
		}
	}
}
