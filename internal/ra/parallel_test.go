package ra

import (
	"strings"
	"testing"
	"time"

	"ravbmc/internal/lang"
	"ravbmc/internal/sched"
)

// mpParallel is a program with enough interleavings that a multi-worker
// pool actually expands nodes on several workers.
func mpParallel() *lang.Program {
	p := lang.NewProgram("mp_par", "x", "y")
	p.AddProc("p0").Add(lang.WriteC("x", 1), lang.WriteC("y", 1))
	p.AddProc("p1", "a", "b").Add(
		lang.ReadS("a", "y"), lang.ReadS("b", "x"),
		// Fails on every interleaving where p1 reads y=1, so the
		// census has violations and a witness to compare.
		lang.AssertS(lang.Ne(lang.R("a"), lang.C(1))),
	)
	return p
}

// TestParallelWorkerPanicSurfaces is the regression test for the
// worker-panic contract: a panic inside a worker's expansion must be
// captured by the pool, cancel the sibling workers, and re-surface as
// a *sched.PanicError panic on the Explore caller — never a hang on
// the pool's termination barrier.
func TestParallelWorkerPanicSurfaces(t *testing.T) {
	testExpandHook = func(worker, depth int) {
		if depth >= 1 {
			panic("injected worker failure")
		}
	}
	defer func() { testExpandHook = nil }()

	sys := NewSystem(lang.MustCompile(mpParallel()))
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		sys.Explore(Options{ViewBound: -1, Workers: 2})
		done <- nil
	}()
	select {
	case r := <-done:
		pe, ok := r.(*sched.PanicError)
		if !ok {
			t.Fatalf("Explore returned %v (%T), want a *sched.PanicError panic", r, r)
		}
		if pe.Val != "injected worker failure" {
			t.Errorf("PanicError.Val = %v, want the injected value", pe.Val)
		}
		if !strings.Contains(string(pe.Stack), "parallel_test") {
			t.Errorf("PanicError.Stack does not point at the panicking expansion:\n%s", pe.Stack)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Explore hung after a worker panic")
	}
}

// TestParallelCensusMatchesSerialInPackage is a package-local parity
// smoke test (the full corpus sweep lives in internal/partest): the
// census of MP on a wider pool must equal the default one-worker census
// field for field, witness bytes included.
func TestParallelCensusMatchesSerialInPackage(t *testing.T) {
	sys := NewSystem(lang.MustCompile(mpParallel()))
	ser := sys.Explore(Options{ViewBound: -1})
	for _, w := range []int{1, 2, 4} {
		par := sys.Explore(Options{ViewBound: -1, Workers: w})
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
