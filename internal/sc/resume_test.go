package sc_test

import (
	"fmt"
	"testing"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/litmus"
	"ravbmc/internal/sc"
)

// resumeCase is one K=2 translation and its paper context bound K+n.
type resumeCase struct {
	name  string
	sys   *sc.System
	bound int
}

func resumeCases(t *testing.T) []resumeCase {
	t.Helper()
	const k = 2
	var out []resumeCase
	add := func(name string, p *lang.Program) {
		tp, err := core.Translate(lang.EnsureLabels(p), k)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, resumeCase{name, sc.NewSystem(lang.MustCompile(tp)), k + len(p.Procs)})
	}
	for _, tc := range litmus.Classic() {
		add(tc.Name, tc.Prog)
	}
	for _, name := range []string{"tbar_4", "peterson_4(2)"} {
		p, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		add(name+"/L=1", lang.Unroll(p, 1))
	}
	return out
}

// TestResumedLadderMatchesFresh: a Searcher deepened through every
// context bound 2..K+n, each Deepen exhausting, covers exactly what
// one fresh Check at K+n covers — the summed states and transitions
// are equal — at pool widths 1 and 4. Where a rung finds a violation
// the fresh search must find one too.
func TestResumedLadderMatchesFresh(t *testing.T) {
	for _, rc := range resumeCases(t) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w=%d", rc.name, workers), func(t *testing.T) {
				fresh := rc.sys.Check(sc.Options{MaxContexts: rc.bound, Workers: workers})
				srch := rc.sys.NewSearcher(sc.Options{MaxContexts: rc.bound, Workers: workers})
				var states, transitions int
				for cb := 2; cb <= rc.bound; cb++ {
					res := srch.Deepen(sc.Options{MaxContexts: cb})
					states += res.States
					transitions += res.Transitions
					if res.Violation {
						if !fresh.Violation {
							t.Fatalf("rung %d found a violation the fresh search missed", cb)
						}
						return
					}
					if !res.Exhausted || srch.Bound() != cb {
						t.Fatalf("rung %d not exhausted (bound %d)", cb, srch.Bound())
					}
				}
				if !fresh.Exhausted || fresh.Violation {
					t.Fatalf("fresh search: exhausted %v, violation %v; the ladder exhausted clean", fresh.Exhausted, fresh.Violation)
				}
				if states != fresh.States || transitions != fresh.Transitions {
					t.Errorf("ladder %d states / %d transitions, fresh %d / %d", states, transitions, fresh.States, fresh.Transitions)
				}
			})
		}
	}
}

// TestResumeSpentAfterCap: a capped Deepen spends the searcher, and
// a later Deepen panics instead of resuming from a partial level.
func TestResumeSpentAfterCap(t *testing.T) {
	rc := resumeCases(t)[len(litmus.Classic())] // tbar_4/L=1
	srch := rc.sys.NewSearcher(sc.Options{MaxContexts: rc.bound})
	if res := srch.Deepen(sc.Options{MaxContexts: 2, MaxStates: 5}); res.Exhausted || res.States != 5 {
		t.Fatalf("capped rung: exhausted %v, %d states", res.Exhausted, res.States)
	}
	if srch.Resumable() {
		t.Fatal("capped searcher still resumable")
	}
	defer func() {
		if recover() == nil {
			t.Error("Deepen on a spent searcher did not panic")
		}
	}()
	srch.Deepen(sc.Options{MaxContexts: 3})
}
