package sc

import (
	"testing"
	"time"

	"ravbmc/internal/fp"
	"ravbmc/internal/lang"
)

func TestInitClosureRunsLocalPrefixes(t *testing.T) {
	// Both processes start with local assignments and a nondet; the
	// initial closure must branch over all combinations.
	p := lang.NewProgram("ic", "x")
	p.AddProc("p0", "r").Add(lang.NondetS("r", 0, 1), lang.WriteS("x", lang.R("r")))
	p.AddProc("p1", "s").Add(lang.AssignS("s", lang.C(7)), lang.ReadS("s", "x"))
	sys := NewSystem(lang.MustCompile(p))
	ocs := sys.initClosure(sys.Init(), 0)
	if len(ocs) != 2 { // two nondet values for p0; p1 deterministic
		t.Fatalf("initial closure produced %d configs, want 2", len(ocs))
	}
	for _, oc := range ocs {
		if oc.violation {
			t.Fatal("no violations expected in prefixes")
		}
		if got := sys.RegValue(&oc.cfg, "p1", "s"); got != 7 {
			t.Errorf("p1 local prefix not executed: s=%d", got)
		}
	}
}

func TestNestedAtomicSections(t *testing.T) {
	p := lang.NewProgram("nested", "x", "y")
	p.AddProc("p0", "r").Add(
		lang.AtomicS(
			lang.WriteC("x", 1),
			lang.AtomicS(lang.WriteC("y", 1)),
			lang.WriteC("x", 2),
		),
	)
	p.AddProc("p1", "a", "b").Add(
		lang.ReadS("a", "x"),
		lang.ReadS("b", "y"),
		// p1 can never observe the intermediate state x=1, y=0 ... x=1
		// only exists inside the atomic section; outside it x is 0 or 2.
		lang.AssertS(lang.Ne(lang.R("a"), lang.C(1))),
	)
	res := NewSystem(lang.MustCompile(p)).Check(Options{})
	if res.Violation {
		t.Fatalf("nested atomic leaked an intermediate state:\n%v", res.Trace)
	}
	if !res.Exhausted {
		t.Fatal("expected exhaustive search")
	}
}

func TestViolationInsideAtomicReported(t *testing.T) {
	p := lang.NewProgram("va", "x")
	p.AddProc("p0", "r").Add(
		lang.AtomicS(
			lang.WriteC("x", 1),
			lang.AssertS(lang.C(0)),
		),
	)
	res := NewSystem(lang.MustCompile(p)).Check(Options{})
	if !res.Violation {
		t.Fatal("assert inside atomic must be reported")
	}
}

func TestDeadlineStopsSearch(t *testing.T) {
	// A program with a big enough space that the (already expired)
	// deadline cuts it off immediately.
	p := lang.NewProgram("dl", "x", "y", "z")
	for _, name := range []string{"p0", "p1", "p2"} {
		pr := p.AddProc(name, "r")
		for i := 0; i < 4; i++ {
			pr.Add(lang.NondetS("r", 0, 3), lang.WriteS("x", lang.R("r")), lang.ReadS("r", "y"))
		}
	}
	res := NewSystem(lang.MustCompile(p)).Check(Options{
		Deadline: time.Now().Add(-time.Second),
	})
	if !res.TimedOut {
		// The deadline is sampled every 1024 states; tiny spaces may
		// finish first, but this one cannot.
		if res.Exhausted {
			t.Skip("space finished before the first deadline sample")
		}
		t.Fatal("expired deadline must report TimedOut")
	}
}

func TestTargetLabelsReached(t *testing.T) {
	p := lang.NewProgram("tl", "x")
	p.AddProc("p0").Add(lang.WriteC("x", 1), lang.LabelS("goal", lang.Term{}))
	sys := NewSystem(lang.MustCompile(p))
	res := sys.Check(Options{TargetLabels: map[string]string{"p0": "goal"}})
	if !res.TargetReached {
		t.Fatal("goal label must be reachable")
	}
	res2 := sys.Check(Options{TargetLabels: map[string]string{"p0": "nosuch"}})
	if res2.TargetReached {
		t.Fatal("nonexistent label reported reached")
	}
}

func TestStuckAssumeDoesNotBlockOthers(t *testing.T) {
	// p0 parks at a false assume after writing x=1; p1 must still be
	// able to observe the write and fail its assertion.
	p := lang.NewProgram("stuck", "x")
	p.AddProc("p0", "r").Add(
		lang.WriteC("x", 1),
		lang.AssignS("r", lang.C(0)),
		lang.AssumeS(lang.Eq(lang.R("r"), lang.C(1))), // never true
		lang.WriteC("x", 2),                           // unreachable
	)
	p.AddProc("p1", "a").Add(
		lang.ReadS("a", "x"),
		lang.AssertS(lang.Ne(lang.R("a"), lang.C(1))),
	)
	res := NewSystem(lang.MustCompile(p)).Check(Options{})
	if !res.Violation {
		t.Fatal("p1 must observe x=1 although p0 is parked")
	}
	// And x=2 must never be observable.
	q := p.Clone()
	q.Procs[1].Body = []lang.Stmt{
		lang.ReadS("a", "x"),
		lang.AssertS(lang.Ne(lang.R("a"), lang.C(2))),
	}
	res2 := NewSystem(lang.MustCompile(q)).Check(Options{})
	if res2.Violation {
		t.Fatal("code behind a permanently false assume executed")
	}
}

func TestReverseProcsCoversSameSpace(t *testing.T) {
	p := mustSB()
	fwd := NewSystem(lang.MustCompile(p)).Check(Options{})
	rev := NewSystem(lang.MustCompile(p)).Check(Options{ReverseProcs: true})
	// State counts may differ (dominance pruning is order-dependent) but
	// the verdict and exhaustiveness may not.
	if fwd.Violation != rev.Violation || fwd.Exhausted != rev.Exhausted {
		t.Errorf("orders disagree: fwd(viol=%v exh=%v) rev(viol=%v exh=%v)",
			fwd.Violation, fwd.Exhausted, rev.Violation, rev.Exhausted)
	}
}

func TestMaxStatesZeroMeansUnlimited(t *testing.T) {
	p := lang.NewProgram("s", "x")
	p.AddProc("p0").Add(lang.WriteC("x", 1))
	res := NewSystem(lang.MustCompile(p)).Check(Options{MaxStates: 0})
	if !res.Exhausted {
		t.Fatal("tiny program must be exhausted with no cap")
	}
}

// TestMacroStepWarmFreeListAllocs checks the search's successor path:
// once a worker's free list holds enough buffers, a macro step whose
// guesses mostly die inside its atomic block (at an assume or a failed
// CAS, as the translation's guesses do) allocates nothing. Every branch
// copies into a recycled buffer, a discarded branch gives its buffer
// back at once, and the caller gives back each kept outcome's.
func TestMacroStepWarmFreeListAllocs(t *testing.T) {
	if fp.RaceEnabled {
		t.Skip("allocation guards are meaningless under -race")
	}
	p := lang.NewProgram("guesses", "x", "y")
	p.AddProc("p0", "r", "s").Add(lang.AtomicS(
		lang.NondetS("r", 0, 3),
		lang.AssumeS(lang.Le(lang.R("r"), lang.C(1))),
		lang.WriteS("x", lang.R("r")),
		lang.NondetS("s", 0, 2),
		lang.AssumeS(lang.Ne(lang.R("s"), lang.C(1))),
		lang.CASS("y", lang.R("s"), lang.C(5)),
	))
	sys := NewSystem(lang.MustCompile(p))
	cfg := sys.InitialConfigs()[0]
	var free freeList
	var outs []outcome
	step := func() {
		outs = sys.macroStep(cfg, 0, 0, outs[:0], &free)
		for _, oc := range outs {
			free.put(oc.cfg)
		}
	}
	step()
	// r in {0, 1} survives the first assume, s = 0 the second and the
	// CAS (y is 0): two outcomes of twelve guesses.
	if len(outs) != 2 {
		t.Fatalf("%d outcomes, want 2", len(outs))
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("%v allocs per macro step on a warm free list, want 0", allocs)
	}
	// The free list holds no more buffers than the step ever had live.
	if len(free) > 4 {
		t.Errorf("free list grew to %d buffers", len(free))
	}
}
