package partest

import (
	"sync"
	"testing"

	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/litmus"
	"ravbmc/internal/ra"
	"ravbmc/internal/replay"
	"ravbmc/internal/sc"
	"ravbmc/internal/trace"
)

// ladderCorpora are the generated litmus corpora FuzzLadderVerdict
// indexes: two threads of three operations, three threads of two.
var ladderCorpora = sync.OnceValue(func() [2][]litmus.Test {
	return [2][]litmus.Test{litmus.Generated(3), litmus.GeneratedThreads(3, 2)}
})

// FuzzLadderVerdict cross-checks the resumable ladder's verdicts. On a
// generated litmus program (corpus threes, entry idx) at view bound K
// ∈ {1, 2}, three deciders of the same K-bounded problem must agree:
// the default core.Run, whose SAFE verdicts come from Searcher ladders
// that skip configurations already reached with fewer contexts; one
// fresh full-bound sc.Check of the translation at K+n contexts; and
// the RA explorer at view bound K. Every UNSAFE witness is validated:
// core.Run's and the fresh search's by lifting and replaying them under
// the RA semantics, the explorer's — already an RA trace — by ending
// in the assertion failure.
func FuzzLadderVerdict(f *testing.F) {
	f.Fuzz(func(t *testing.T, idx uint16, threes bool, k uint8) {
		corpus := ladderCorpora()[0]
		if threes {
			corpus = ladderCorpora()[1]
		}
		tc := corpus[int(idx)%len(corpus)]
		K := 1 + int(k)%2

		res, err := core.Run(tc.Prog, core.Options{K: K})
		if err != nil {
			t.Fatalf("%s K=%d: core.Run: %v", tc.Name, K, err)
		}
		if res.Verdict == core.Inconclusive {
			t.Fatalf("%s K=%d: core.Run inconclusive", tc.Name, K)
		}
		if res.Verdict == core.Unsafe && !res.WitnessValidated {
			t.Fatalf("%s K=%d: core.Run witness not validated: %s", tc.Name, K, res.WitnessErr)
		}
		ladder := res.Verdict == core.Unsafe

		src := lang.EnsureLabels(tc.Prog)
		tp, err := core.Translate(src, K)
		if err != nil {
			t.Fatalf("%s K=%d: translate: %v", tc.Name, K, err)
		}
		fresh := sc.NewSystem(lang.MustCompile(tp)).Check(sc.Options{MaxContexts: K + len(src.Procs)})
		if !fresh.Violation && !fresh.Exhausted {
			t.Fatalf("%s K=%d: fresh search neither violated nor exhausted", tc.Name, K)
		}
		if fresh.Violation {
			acts, err := core.Lift(src, fresh.Trace)
			if err == nil {
				_, err = replay.Run(src, acts, replay.Options{})
			}
			if err != nil {
				t.Fatalf("%s K=%d: fresh witness does not replay: %v", tc.Name, K, err)
			}
		}

		ex := ra.NewSystem(lang.MustCompile(tc.Prog)).Explore(ra.Options{ViewBound: K, StopOnViolation: true})
		if !ex.Violation && !ex.Exhausted {
			t.Fatalf("%s K=%d: RA explorer neither violated nor exhausted", tc.Name, K)
		}
		if ex.Violation {
			if n := len(ex.Trace.Events); n == 0 || ex.Trace.Events[n-1].Kind != trace.KindViolation {
				t.Fatalf("%s K=%d: RA witness does not end in the violation", tc.Name, K)
			}
		}

		if ladder != fresh.Violation || ladder != ex.Violation {
			t.Fatalf("%s K=%d: core.Run unsafe=%v, fresh sc.Check unsafe=%v, ra.Explore unsafe=%v", tc.Name, K, ladder, fresh.Violation, ex.Violation)
		}
	})
}
