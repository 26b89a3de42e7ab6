package sc_test

import (
	"runtime"
	"testing"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/core"
	"ravbmc/internal/fp"
	"ravbmc/internal/lang"
	"ravbmc/internal/sc"
)

// TestMacroStepAllocs guards the successor hot path: a macro step on
// the K=2 translation of store buffering allocates its children's
// configurations and the outcome list, and nothing per trace event or
// per name lookup. The configuration stepped is the one with the most
// children among the first states of a breadth-first walk, so the
// nondeterministic guesses of the translation are exercised.
func TestMacroStepAllocs(t *testing.T) {
	if fp.RaceEnabled {
		t.Skip("allocation guards are meaningless under -race")
	}
	p := lang.NewProgram("sb", "x", "y")
	p.AddProc("p0", "a").Add(lang.WriteC("x", 1), lang.ReadS("a", "y"))
	p.AddProc("p1", "b").Add(lang.WriteC("y", 1), lang.ReadS("b", "x"))
	tp, err := core.Translate(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := sc.NewSystem(lang.MustCompile(tp))
	var (
		best     *sc.Config
		bestProc int
		kids     int
	)
	frontier := sys.InitialConfigs()
	for n := 0; n < 200 && len(frontier) > 0; n++ {
		c := frontier[0]
		frontier = frontier[1:]
		for q := range tp.Procs {
			succ := sys.MacroSteps(c, q)
			if len(succ) > kids {
				best, bestProc, kids = c, q, len(succ)
			}
			frontier = append(frontier, succ...)
		}
	}
	if kids < 2 {
		t.Fatalf("no branching macro step found (max %d children)", kids)
	}
	allocs := testing.AllocsPerRun(200, func() { sys.MacroSteps(best, bestProc) })
	t.Logf("%v allocs for a macro step with %d children", allocs, kids)
	// One configuration copy per child (a discarded guess may cost one
	// more) plus the two result slices; no trace event, no closure.
	if limit := float64(2*kids + 2); allocs > limit {
		t.Errorf("%v allocs for a macro step with %d children, want at most %v", allocs, kids, limit)
	}
}

// TestSearchAllocsPerState guards the search's memory per visited
// state on the K=2 translation of tbar_4(3) L=1: a frontier item holds
// its configuration packed, macro steps branch on recycled buffers, and
// an expansion allocates its kids' packed bytes and path links once
// each. Both a one-worker Check and a resumed Searcher ladder up to the
// paper's bound K+n must stay within 2 mallocs and 512 bytes per state,
// counted from runtime.MemStats deltas.
func TestSearchAllocsPerState(t *testing.T) {
	if fp.RaceEnabled {
		t.Skip("allocation guards are meaningless under -race")
	}
	p, err := benchmarks.ByName("tbar_4(3)")
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	tp, err := core.Translate(lang.EnsureLabels(lang.Unroll(p, 1)), k)
	if err != nil {
		t.Fatal(err)
	}
	sys := sc.NewSystem(lang.MustCompile(tp))
	bound := k + len(p.Procs)
	measure := func(name string, search func() (states int)) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		states := search()
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / float64(states)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(states)
		t.Logf("%s: %d states, %.2f allocs and %.0f B per state", name, states, allocs, bytes)
		if allocs > 2 || bytes > 512 {
			t.Errorf("%s: %.2f allocs and %.0f B per state, want at most 2 and 512", name, allocs, bytes)
		}
	}
	measure("Check", func() int {
		res := sys.Check(sc.Options{MaxContexts: bound, Workers: 1})
		if !res.Exhausted || res.Violation {
			t.Fatalf("Check: exhausted %v, violation %v", res.Exhausted, res.Violation)
		}
		return res.States
	})
	measure("Searcher", func() int {
		srch := sys.NewSearcher(sc.Options{MaxContexts: bound, Workers: 1})
		states := 0
		for cb := 2; cb <= bound; cb++ {
			res := srch.Deepen(sc.Options{MaxContexts: cb})
			if !res.Exhausted || res.Violation {
				t.Fatalf("Deepen %d: exhausted %v, violation %v", cb, res.Exhausted, res.Violation)
			}
			states += res.States
		}
		return states
	})
}
