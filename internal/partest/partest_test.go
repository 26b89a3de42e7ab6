package partest

import (
	"testing"
	"time"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/ra"
	"ravbmc/internal/sc"
)

// TestWidths checks the width set always contains the one-worker
// anchor and honours the RAVBMC_TEST_JOBS override without
// duplicates.
func TestWidths(t *testing.T) {
	t.Setenv("RAVBMC_TEST_JOBS", "7")
	ws := Widths()
	seen := map[int]bool{}
	for _, w := range ws {
		if w < 1 {
			t.Errorf("width %d < 1", w)
		}
		if seen[w] {
			t.Errorf("duplicate width %d in %v", w, ws)
		}
		seen[w] = true
	}
	if !seen[1] || !seen[7] {
		t.Errorf("widths %v missing anchor 1 or override 7", ws)
	}
}

// TestClassicParityRA sweeps the classic litmus corpus through the RA
// explorer in census mode under several option shapes — unbounded,
// view-bounded, view+context-bounded, exact dedup — asserting every
// pool width reproduces the one-worker run bit-for-bit: verdict, state
// count, transition count, violation census, and witness bytes.
func TestClassicParityRA(t *testing.T) {
	variants := []struct {
		name string
		opts ra.Options
	}{
		{"unbounded", ra.Options{ViewBound: -1}},
		{"k2", ra.Options{ViewBound: 2}},
		{"k2ctx4", ra.Options{ViewBound: 2, ContextBound: 4}},
		{"exact", ra.Options{ViewBound: -1, ExactDedup: true}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			for _, c := range Classics() {
				Check(t, c, RAAllWidths(v.opts, 0))
			}
		})
	}
}

// TestClassicParitySC is the SC-checker counterpart: full census
// (CensusViolations) under unbounded, context-bounded, reversed
// process order, and exact-dedup options.
func TestClassicParitySC(t *testing.T) {
	variants := []struct {
		name string
		opts sc.Options
	}{
		{"unbounded", sc.Options{CensusViolations: true}},
		{"ctx4", sc.Options{MaxContexts: 4, CensusViolations: true}},
		{"ctx4rev", sc.Options{MaxContexts: 4, ReverseProcs: true, CensusViolations: true}},
		{"exact", sc.Options{ExactDedup: true, CensusViolations: true}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			for _, c := range Classics() {
				Check(t, c, SCAllWidths(v.opts, 0))
			}
		})
	}
}

// TestStopModeVerdictParity covers the first-violation-wins mode:
// which violation a multi-worker race reports is schedule-dependent by
// design, but the verdict (and witness presence) must still agree with
// the one-worker run at every width, and two one-worker runs must agree
// exactly — counts and witness bytes.
func TestStopModeVerdictParity(t *testing.T) {
	for _, c := range Classics() {
		Check(t, c, RAAllWidths(ra.Options{ViewBound: -1, StopOnViolation: true}, 0))
		Check(t, c, SCAllWidths(sc.Options{}, 0))
	}
}

// TestGeneratedParity draws a seeded 200-program sample from the
// systematic litmus generators (two-thread 3-op and three-thread 2-op
// shapes) and runs the full census differential on each.
func TestGeneratedParity(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	for _, c := range GeneratedSample(1, n) {
		Check(t, c, RAAllWidths(ra.Options{ViewBound: -1}, 0))
		Check(t, c, SCAllWidths(sc.Options{CensusViolations: true}, 0))
	}
}

// TestBenchmarkParity runs the differential on unrolled mutex
// benchmarks — real frontiers with thousands of states, where stealing
// actually redistributes work. Bounded exploration (ViewBound for RA,
// MaxContexts for SC) keeps the sweep inside test time.
func TestBenchmarkParity(t *testing.T) {
	raOpts := ra.Options{ViewBound: 2}
	scOpts := sc.Options{MaxContexts: 4, CensusViolations: true}
	for _, c := range Benchmarks() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for _, w := range []int{2, 4} {
				if d := RADiff(c.Prog, raOpts, w, 0); d != "" {
					t.Errorf("%s ra: %s", c.Name, d)
				}
				if d := SCDiff(c.Prog, scOpts, w, 0); d != "" {
					t.Errorf("%s sc: %s", c.Name, d)
				}
			}
		})
	}
}

// TestStealSeedFuzz perturbs the pool's steal-victim order across
// seeds: the census must be identical to the one-worker run under
// every schedule,
// which is exactly the order-independence claim of the dedup
// discipline and the minimal-fingerprint witness rule.
func TestStealSeedFuzz(t *testing.T) {
	cases := Classics()[:6]
	cases = append(cases, Benchmarks("peterson_0(2)")...)
	for _, c := range cases {
		for seed := int64(0); seed < 8; seed++ {
			if d := RADiff(c.Prog, ra.Options{ViewBound: 2}, 4, seed); d != "" {
				t.Errorf("%s ra: %s", c.Name, d)
			}
			if d := SCDiff(c.Prog, sc.Options{MaxContexts: 4, CensusViolations: true}, 4, seed); d != "" {
				t.Errorf("%s sc: %s", c.Name, d)
			}
		}
	}
}

// TestCorePipelineParity checks the full VBMC pipeline (probes,
// restart ladder, deepening, witness lift/replay) reaches the same
// verdict with multi-worker inner searches, and that their Unsafe
// verdicts still carry a replay-validated witness.
func TestCorePipelineParity(t *testing.T) {
	cases := []struct {
		name string
		prog *lang.Program
		opts core.Options
	}{}
	names := []string{"peterson_0(2)", "peterson_4(2)"}
	if testing.Short() {
		// The fenced (SAFE) instance explores its whole bounded space
		// and dominates the -race leg's wall clock; the buggy instance
		// still exercises probes, the ladder, and witness replay.
		names = names[:1]
	}
	for _, n := range names {
		p, err := benchmarks.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name string
			prog *lang.Program
			opts core.Options
		}{n, p, core.Options{K: 2, Unroll: 2}})
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, w := range []int{2, 4} {
				if d := CoreDiff(c.prog, c.opts, w, 0); d != "" {
					t.Errorf("%s: %s", c.name, d)
				}
			}
		})
	}
}

// TestRaceSoak drives multi-worker explorations of a three-process
// Peterson instance while cancelling the context mid-run and, in a
// second round, letting a short deadline expire mid-steal. The
// functional assertions are deliberately weak (the run returns
// promptly and reports TimedOut); under -race this is the test that
// shakes out unsynchronized access between workers, the census
// aggregator and the telemetry flusher.
func TestRaceSoak(t *testing.T) {
	p, err := benchmarks.ByName("peterson_0(3)")
	if err != nil {
		t.Fatal(err)
	}
	p = lang.Unroll(p, 2)
	opts := ra.Options{ViewBound: 3}
	for round := 0; round < 4; round++ {
		res, err := Soak(p, opts, 4, 5*time.Millisecond, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.TimedOut && !res.Exhausted && !res.Violation {
			t.Errorf("cancel round %d: neither timed out nor finished: %+v", round, res)
		}
	}
	for round := 0; round < 4; round++ {
		res, err := Soak(p, opts, 4, 0, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if !res.TimedOut && !res.Exhausted && !res.Violation {
			t.Errorf("deadline round %d: neither timed out nor finished: %+v", round, res)
		}
	}
}

// TestShrinkReporting exercises the harness's own failure path: a
// deliberately broken diff (flagging any program with at least two
// processes) must shrink to a minimal program and report through the
// Reporter interface rather than pass silently.
func TestShrinkReporting(t *testing.T) {
	rec := &recordingReporter{}
	c := Classics()[0]
	badDiff := func(p *lang.Program) string {
		if len(p.Procs) >= 2 {
			return "injected mismatch"
		}
		return ""
	}
	Check(rec, c, badDiff)
	if len(rec.msgs) != 1 {
		t.Fatalf("expected exactly one reported failure, got %d", len(rec.msgs))
	}
	min, ok := rec.msgs[0].args[len(rec.msgs[0].args)-1].(*lang.Program)
	if !ok {
		t.Fatalf("last Errorf arg is %T, want *lang.Program", rec.msgs[0].args[len(rec.msgs[0].args)-1])
	}
	if len(min.Procs) != 2 {
		t.Errorf("shrunk program has %d procs, want the minimal 2", len(min.Procs))
	}
	for _, pr := range min.Procs {
		if len(pr.Body) != 0 {
			t.Errorf("shrunk program still has statements: proc body len %d", len(pr.Body))
		}
	}
}

type reportedMsg struct {
	format string
	args   []any
}

type recordingReporter struct {
	msgs []reportedMsg
}

func (r *recordingReporter) Helper() {}
func (r *recordingReporter) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, reportedMsg{format, args})
}
