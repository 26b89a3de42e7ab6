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

// ladderRun is the outcome of one Searcher deepened through the
// context bounds first..bound, stopping at the first violation.
type ladderRun struct {
	violation, exhausted bool
	states, transitions  int
}

func runLadder(t *testing.T, sys *sc.System, first, bound int, o sc.Options) ladderRun {
	t.Helper()
	o.MaxContexts = bound
	srch := sys.NewSearcher(o)
	var lr ladderRun
	for cb := first; cb <= bound; cb++ {
		res := srch.Deepen(sc.Options{MaxContexts: cb})
		lr.states += res.States
		lr.transitions += res.Transitions
		if res.Violation {
			lr.violation = true
			return lr
		}
		if !res.Exhausted || srch.Bound() != cb {
			t.Fatalf("rung %d not exhausted (bound %d)", cb, srch.Bound())
		}
	}
	lr.exhausted = true
	return lr
}

// levelReference counts, by an explicit search independent of the
// checker, the nodes an exhausting ladder first..bound visits: every
// (configuration, contexts) pair reachable with at most first
// contexts, plus every configuration whose minimum context count lies
// in (first, bound]. Configurations are identified by their DedupKey.
// It also reports whether any run within bound contexts violates an
// assertion.
func levelReference(sys *sc.System, first, bound int) (states int, violation bool) {
	key := func(c *sc.Config) string { return string(sys.DedupKey(c, nil)) }
	roots, violation := sys.RefRoots()

	// The first rung: the (configuration, contexts) graph up to first.
	type pair struct {
		key      string
		contexts int
	}
	pairs := map[pair]bool{}
	type node struct {
		cfg      sc.Config
		contexts int
	}
	var stack []node
	for _, r := range roots {
		if p := (pair{key(&r), 0}); !pairs[p] {
			pairs[p] = true
			stack = append(stack, node{r, 0})
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, st := range sys.RefSteps(n.cfg) {
			nc := n.contexts
			if st.Switch {
				nc++
			}
			if nc > first || st.Violation {
				continue
			}
			if p := (pair{key(&st.Cfg), nc}); !pairs[p] {
				pairs[p] = true
				stack = append(stack, node{st.Cfg, nc})
			}
		}
	}

	// Minimum context counts, level by level: level c is closed under
	// same-process steps before its switches seed level c+1.
	minc := map[string]int{}
	var level []sc.Config
	for _, r := range roots {
		if k := key(&r); minc[k] == 0 {
			minc[k] = 1 // stored as count+1, so zero means unseen
			level = append(level, r)
		}
	}
	for c := 0; c <= bound && len(level) > 0; c++ {
		var next []sc.Config
		for len(level) > 0 {
			cfg := level[len(level)-1]
			level = level[:len(level)-1]
			for _, st := range sys.RefSteps(cfg) {
				if st.Violation {
					violation = violation || !st.Switch || c < bound
					continue
				}
				if st.Switch {
					next = append(next, st.Cfg)
					continue
				}
				if k := key(&st.Cfg); minc[k] == 0 {
					minc[k] = c + 1
					level = append(level, st.Cfg)
				}
			}
		}
		for _, cfg := range next {
			if k := key(&cfg); minc[k] == 0 && c+1 <= bound {
				minc[k] = c + 2
				level = append(level, cfg)
			}
		}
	}
	states = len(pairs)
	for _, m := range minc {
		if m-1 > first {
			states++
		}
	}
	return states, violation
}

// TestResumedLadderMatchesFresh: a Searcher deepened through every
// context bound 2..K+n decides what one fresh Check at K+n decides,
// and, where it exhausts clean, visits at most the fresh search's
// states: exactly the (configuration, contexts) pairs of the first
// rung plus each configuration first reachable above it, once, at its
// minimum context count — the count levelReference computes on its
// own. That node set does not depend on the schedule or the dedup
// mode, so the counts agree at pool widths 1 and 4, fingerprinted and
// exact.
func TestResumedLadderMatchesFresh(t *testing.T) {
	const first = 2
	for _, rc := range resumeCases(t) {
		fresh := rc.sys.Check(sc.Options{MaxContexts: rc.bound})
		var base *ladderRun // the first clean ladder, checked against the reference
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w=%d", rc.name, workers), func(t *testing.T) {
				for _, exact := range []bool{false, true} {
					lr := runLadder(t, rc.sys, first, rc.bound, sc.Options{Workers: workers, ExactDedup: exact})
					if lr.violation != fresh.Violation {
						t.Fatalf("exact=%v: ladder violation %v, fresh %v", exact, lr.violation, fresh.Violation)
					}
					if lr.violation {
						continue // stop-mode counts depend on the schedule
					}
					if !fresh.Exhausted {
						t.Fatalf("fresh search not exhausted; the ladder exhausted clean")
					}
					if lr.states > fresh.States {
						t.Errorf("exact=%v: ladder %d states, fresh %d", exact, lr.states, fresh.States)
					}
					if base != nil {
						if lr != *base {
							t.Errorf("exact=%v: %d states / %d transitions, w=1 fingerprinted %d / %d", exact, lr.states, lr.transitions, base.states, base.transitions)
						}
						continue
					}
					base = &lr
					ref, violation := levelReference(rc.sys, first, rc.bound)
					if violation {
						t.Fatal("the reference search reaches a violation the ladder missed")
					}
					if lr.states != ref {
						t.Errorf("ladder %d states, level reference %d", lr.states, ref)
					}
					t.Logf("ladder %d states / %d transitions, fresh %d / %d", lr.states, lr.transitions, fresh.States, fresh.Transitions)
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
