package benchmarks

import (
	"strings"
	"testing"

	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/sc"
)

// scVerdict checks the program directly under SC (fences are no-ops).
func scVerdict(t *testing.T, p *lang.Program, unroll int) bool {
	t.Helper()
	src := p
	if lang.MaxLoopDepth(p) > 0 {
		src = lang.Unroll(p, unroll)
	}
	res := sc.NewSystem(lang.MustCompile(src)).Check(sc.Options{})
	if !res.Violation && !res.Exhausted {
		t.Fatalf("%s: SC check not exhaustive", p.Name)
	}
	return res.Violation
}

// vbmcVerdict runs the full VBMC pipeline.
func vbmcVerdict(t *testing.T, p *lang.Program, k, l int) core.Verdict {
	t.Helper()
	res, err := core.Run(p, core.Options{K: k, Unroll: l})
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	if res.Verdict == core.Inconclusive {
		t.Fatalf("%s: inconclusive", p.Name)
	}
	return res.Verdict
}

func TestAllGeneratorsValidate(t *testing.T) {
	names := []string{
		"peterson_0", "peterson_0(3)", "peterson_1(4)", "peterson_2(3)",
		"peterson_3(3)", "peterson_4(2)",
		"szymanski_0", "szymanski_1(3)", "szymanski_2(3)", "szymanski_4(2)",
		"dekker", "dekker_4", "sim_dekker", "sim_dekker_4",
		"burns", "burns_2(3)", "burns_3(3)", "burns_4(3)",
		"bakery", "bakery_4(3)",
		"lamport", "lamport_2(3)", "lamport_4(2)",
		"tbar", "tbar(3)", "tbar_4(3)",
	}
	for _, name := range names {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.ValidateRA(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !strings.Contains(p.Name, "(") {
			t.Errorf("%s: program name %q should carry the thread count", name, p.Name)
		}
	}
}

func TestByNameErrors(t *testing.T) {
	for _, name := range []string{"nosuch", "peterson_9", "dekker(3)", "sim_dekker(4)", "peterson(1)", "",
		"bakery(65)", "peterson(99999999)", "tbar(99999999999999999999)"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) should fail", name)
		}
	}
}

// TestUnfencedSafeUnderSC: the _0 versions are correct under SC — their
// bugs are pure weak-memory bugs.
func TestUnfencedSafeUnderSC(t *testing.T) {
	for _, name := range []string{"peterson_0", "sim_dekker", "dekker", "burns", "szymanski_0"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if scVerdict(t, p, 2) {
			t.Errorf("%s must be safe under SC", name)
		}
	}
}

// TestUnfencedUnsafeUnderRA: VBMC finds the weak-memory bug in every
// unfenced protocol with K=2, L=2 (paper Table 1). The slower protocols
// run only without -short.
func TestUnfencedUnsafeUnderRA(t *testing.T) {
	names := []string{"peterson_0", "sim_dekker", "dekker"}
	if !testing.Short() {
		names = append(names, "burns", "szymanski_0")
	}
	for _, name := range names {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if v := vbmcVerdict(t, p, 2, 2); v != core.Unsafe {
			t.Errorf("%s must be UNSAFE under RA with K=2, got %v", name, v)
		}
	}
}

// TestBuggyFencedUnsafeUnderSC: the _2/_3 one-line bugs break the
// protocols even under SC.
func TestBuggyFencedUnsafeUnderSC(t *testing.T) {
	for _, name := range []string{
		"peterson_2", "peterson_3", "szymanski_2", "szymanski_3",
		"burns_2", "burns_3", "bakery_2", "bakery_3", "lamport_2", "lamport_3",
		"tbar_2", "tbar_3",
	} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !scVerdict(t, p, 2) {
			t.Errorf("%s must be unsafe under SC (logic bug)", name)
		}
	}
}

// TestBuggyFencedUnsafeUnderVBMC: VBMC with K=2, L=2 finds the bugs in
// the fenced+bug versions (paper Tables 3-5).
func TestBuggyFencedUnsafeUnderVBMC(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full VBMC runs")
	}
	for _, name := range []string{"peterson_2", "peterson_3", "szymanski_2", "szymanski_3"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if v := vbmcVerdict(t, p, 2, 2); v != core.Unsafe {
			t.Errorf("%s must be UNSAFE under VBMC K=2, got %v", name, v)
		}
	}
}

// TestFencedSafeUnderVBMC: the fully fenced versions are SAFE for K=2,
// L=1 (paper Table 6). Only the protocols whose bounded state space the
// explicit backend exhausts in seconds are asserted here; the larger
// fenced programs (bakery_4, lamport_4) appear in the tables with T.O,
// as recorded in EXPERIMENTS.md.
func TestFencedSafeUnderVBMC(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full VBMC runs")
	}
	for _, name := range []string{"peterson_4", "sim_dekker_4", "tbar_4"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if v := vbmcVerdict(t, p, 2, 1); v != core.Safe {
			t.Errorf("%s must be SAFE under VBMC K=2 L=1, got %v", name, v)
		}
	}
}

func TestTBarSafeUnderSC(t *testing.T) {
	for _, name := range []string{"tbar", "tbar(3)"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if scVerdict(t, p, 2) {
			t.Errorf("%s must be safe under SC", name)
		}
	}
}
