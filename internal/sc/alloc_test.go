package sc_test

import (
	"testing"

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
