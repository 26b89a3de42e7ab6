package core

import (
	"strings"
	"testing"
	"time"

	"ravbmc/internal/benchmarks"
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
// exhaust, each context bound runs one rung, plus the full-bound run —
// and the planned total shrinks with it, so the -watch ETA's round
// counter still reaches deepen_total.
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

// rungSpans runs p through the driver on a tracing recorder and returns
// the result and the spans of the rungs it ran, in schedule order.
func rungSpans(t *testing.T, p *lang.Program, opts Options) (Result, []*obs.SpanNode) {
	t.Helper()
	rec := obs.NewTracing()
	opts.Obs = rec
	res, err := Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var rungs []*obs.SpanNode
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		if strings.HasSuffix(n.Name, ".deepen") || strings.HasSuffix(n.Name, ".search") {
			rungs = append(rungs, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range rec.Spans() {
		walk(n)
	}
	return res, rungs
}

// TestTable1HitsTier2Bound2: every Table 1 row's bug is found by probe
// tier 2 at context bound 2, right after tier 1's rung at that bound —
// the context bound is the schedule's outer loop, so no tier deepens
// before every tier has tried bound 2. Each rung span carries its
// record: tier, bound, order, resumption, states and outcome.
func TestTable1HitsTier2Bound2(t *testing.T) {
	for _, name := range []string{"bakery", "burns", "dekker", "lamport", "peterson_0", "peterson_0(3)", "sim_dekker", "szymanski_0"} {
		p, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, rungs := rungSpans(t, p, Options{K: 2, Unroll: 2})
		if res.Verdict != Unsafe || !res.WitnessValidated {
			t.Fatalf("%s: verdict %v, witness validated %v", name, res.Verdict, res.WitnessValidated)
		}
		last := rungs[len(rungs)-1]
		want := map[string]string{"tier": "probe2", "context_bound": "2", "order": "forward", "resumed": "false", "outcome": "hit"}
		for k, v := range want {
			if last.Attrs[k] != v {
				t.Errorf("%s: hit rung %s = %q, want %q (attrs %v)", name, k, last.Attrs[k], v, last.Attrs)
			}
		}
		for _, r := range rungs[:len(rungs)-1] {
			if r.Attrs["tier"] != "probe1" || r.Attrs["context_bound"] != "2" || r.Attrs["outcome"] == "hit" {
				t.Errorf("%s: rung before the hit: %v", name, r.Attrs)
			}
			if r.Attrs["states"] == "" {
				t.Errorf("%s: rung record without states: %v", name, r.Attrs)
			}
		}
	}
}

// TestIdenticalTranslationsSearchedOnce: tbar_4 at L=1 translates to
// the same program in all three tiers, so probe 2 shares probe 1's
// rungs and the final decider reads SAFE off probe 1's exhausted,
// uncapped full-bound level: the run costs one Searcher deepened
// through the bounds 2..K+n.
func TestIdenticalTranslationsSearchedOnce(t *testing.T) {
	p, err := benchmarks.ByName("tbar_4")
	if err != nil {
		t.Fatal(err)
	}
	src := lang.EnsureLabels(lang.Unroll(p, 1))
	bound := 2 + len(p.Procs)
	translated, err := Translate(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	srch := sc.NewSystem(lang.MustCompile(translated)).NewSearcher(sc.Options{MaxContexts: bound})
	var states, transitions int
	for cb := 2; cb <= bound; cb++ {
		r := srch.Deepen(sc.Options{MaxContexts: cb})
		if !r.Exhausted || r.Violation {
			t.Fatalf("direct ladder rung %d: exhausted %v, violation %v", cb, r.Exhausted, r.Violation)
		}
		states += r.States
		transitions += r.Transitions
	}
	res, rungs := rungSpans(t, p, Options{K: 2, Unroll: 1})
	if res.Verdict != Safe {
		t.Fatalf("verdict %v, want SAFE", res.Verdict)
	}
	if res.States != states || res.Transitions != transitions {
		t.Errorf("run %d states / %d transitions, one direct ladder %d / %d", res.States, res.Transitions, states, transitions)
	}
	for _, r := range rungs {
		if r.Attrs["tier"] != "probe1" {
			t.Errorf("rung of tier %s ran; only probe 1 should search", r.Attrs["tier"])
		}
	}
	_, rounds, total := ladderRounds(t, p, Options{K: 2, Unroll: 1})
	if rounds != total || rounds != int64(bound-1) {
		t.Errorf("deepen_rounds = %d, deepen_total = %d, want both %d", rounds, total, bound-1)
	}
}

// TestFinalLadderLeavesDeciderHalfTheTimeout: under a deadline the
// final translation's ladder rungs share a slice of half the remaining
// time, so the full-bound SAFE decider still runs, with at least the
// other half, however long the rungs would take.
func TestFinalLadderLeavesDeciderHalfTheTimeout(t *testing.T) {
	p, err := benchmarks.ByName("peterson_4(2)")
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 200 * time.Millisecond
	res, rungs := rungSpans(t, p, Options{K: 2, Unroll: 1, NoProbes: true, Timeout: timeout})
	if res.Verdict == Unsafe {
		t.Fatalf("verdict %v on a SAFE program", res.Verdict)
	}
	var ladder time.Duration
	decided := false
	for _, r := range rungs {
		switch r.Name {
		case "final.deepen":
			ladder += time.Duration(r.DurUS) * time.Microsecond
		case "final.search":
			decided = true
		}
	}
	if !decided {
		t.Fatal("the full-bound decider never ran")
	}
	// The slack covers the search's deadline polling and span overhead.
	if slack := 50 * time.Millisecond; ladder > timeout/2+slack {
		t.Errorf("final ladder took %v of a %v timeout, want at most half", ladder, timeout)
	}
}
