package core

import (
	"testing"

	"ravbmc/internal/lang"
	"ravbmc/internal/obs"
	"ravbmc/internal/sc"
)

// ladderRounds runs p through the driver and returns the recorder's
// deepen_rounds counter and deepen_total gauge.
func ladderRounds(t *testing.T, p *lang.Program, opts Options) (Result, int64, int64) {
	t.Helper()
	rec := obs.New()
	opts.Obs = rec
	res, err := Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Counter("core.deepen_rounds").Value(), rec.Gauge("core.deepen_total").Value()
}

// TestLadderExhaustedOrdersAgree is the premise of the exhausted-rung
// skip: at every ladder bound, a rung that exhausts visits exactly the
// same node set in either process order, so the twin cannot find a
// violation the first order missed.
func TestLadderExhaustedOrdersAgree(t *testing.T) {
	for _, p := range []*lang.Program{mpSafe(), sbChecked(true), fencedMP(), coherence()} {
		translated, err := Translate(lang.EnsureLabels(p), 2)
		if err != nil {
			t.Fatal(err)
		}
		sys := sc.NewSystem(lang.MustCompile(translated))
		bound := 2 + len(p.Procs)
		for cb := 2; cb < bound; cb++ {
			fwd := sys.Check(sc.Options{MaxContexts: cb, MaxStates: ladderCap})
			rev := sys.Check(sc.Options{MaxContexts: cb, MaxStates: ladderCap, ReverseProcs: true})
			if !fwd.Exhausted || !rev.Exhausted {
				t.Fatalf("%s cb=%d: rung not exhausted (fwd %v, rev %v)", p.Name, cb, fwd.Exhausted, rev.Exhausted)
			}
			if fwd.Violation != rev.Violation || fwd.States != rev.States || fwd.Transitions != rev.Transitions {
				t.Errorf("%s cb=%d: orders disagree: fwd %d states/%d transitions (violation %v), rev %d/%d (%v)",
					p.Name, cb, fwd.States, fwd.Transitions, fwd.Violation, rev.States, rev.Transitions, rev.Violation)
			}
		}
	}
}

// TestLadderSkipsExhaustedTwin: on a SAFE program whose rungs all
// exhaust, each context bound runs one rung, plus the final full-bound
// run — and the planned total shrinks with it, so the -watch ETA's
// round counter still reaches deepen_total.
func TestLadderSkipsExhaustedTwin(t *testing.T) {
	p := mpSafe()
	bound := int64(2 + len(p.Procs))
	res, rounds, total := ladderRounds(t, p, Options{K: 2, NoProbes: true})
	if res.Verdict != Safe {
		t.Fatalf("verdict %v, want SAFE", res.Verdict)
	}
	if want := bound - 2 + 1; rounds != want {
		t.Errorf("deepen_rounds = %d, want %d (one rung per context bound plus the final run)", rounds, want)
	}
	if rounds != total {
		t.Errorf("deepen_rounds = %d, deepen_total = %d: the counter must reach the total", rounds, total)
	}
	// With probes on, both probe tiers and the final translation go
	// through the same ladder.
	res, rounds, total = ladderRounds(t, p, Options{K: 2})
	if res.Verdict != Safe {
		t.Fatalf("probed verdict %v, want SAFE", res.Verdict)
	}
	if want := 3 * (bound - 2 + 1); rounds != want || total != want {
		t.Errorf("probed: deepen_rounds = %d, deepen_total = %d, want both %d", rounds, total, want)
	}
}

// TestLadderCappedKeepsBothOrders: a rung cut by the state budget is not
// conclusive for its bound, so the other process order still runs.
func TestLadderCappedKeepsBothOrders(t *testing.T) {
	p := mpSafe()
	bound := int64(2 + len(p.Procs))
	res, rounds, total := ladderRounds(t, p, Options{K: 2, NoProbes: true, MaxStates: 2})
	if res.Verdict != Inconclusive {
		t.Fatalf("verdict %v under a 2-state cap, want INCONCLUSIVE", res.Verdict)
	}
	if want := 2*(bound-2) + 1; rounds != want || total != want {
		t.Errorf("deepen_rounds = %d, deepen_total = %d, want both %d (both orders at every bound)", rounds, total, want)
	}
}
