package core

import (
	"strings"
	"testing"

	"ravbmc/internal/lang"
)

func mpProgram() *lang.Program {
	p := lang.NewProgram("mp", "x", "y")
	p.AddProc("p0").Add(lang.WriteC("x", 1), lang.WriteC("y", 1))
	p.AddProc("p1", "a", "b").Add(lang.ReadS("a", "y"), lang.ReadS("b", "x"))
	return p
}

func TestTranslateDeclaresDataStructures(t *testing.T) {
	out, err := Translate(mpProgram(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Globals: counters plus per-variable stores.
	for _, v := range []string{msgsUsedVar, sRAVar} {
		if !out.HasVar(v) {
			t.Errorf("missing global %s", v)
		}
	}
	for _, a := range []string{"_ms_var", "_ms_t_x", "_ms_v_x", "_ms_t_y", "_ms_v_y", "_avail_x", "_avail_y"} {
		if !out.HasArray(a) {
			t.Errorf("missing array %s", a)
		}
	}
	// message_store has K slots.
	for _, a := range out.Arrays {
		if a.Name == "_ms_var" && a.Size != 3 {
			t.Errorf("_ms_var size %d, want K=3", a.Size)
		}
	}
	// The source shared variables are gone: all accesses are simulated.
	if out.HasVar("x") || out.HasVar("y") {
		t.Error("translated program must not keep the source shared variables")
	}
}

func TestTranslateStampBudgets(t *testing.T) {
	// x written once per process (2 total), K=3 would allow 6; the
	// loop-free budget caps at the write count.
	out, err := Translate(mpProgram(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range out.Arrays {
		switch a.Name {
		case "_avail_x", "_avail_y":
			// one write each => budget 1, array size budget+1.
			if a.Size != 2 {
				t.Errorf("%s size %d, want 2", a.Name, a.Size)
			}
		}
	}

	// With a CAS on x the pool gains one adjacent stamp.
	p := mpProgram()
	p.Procs[1].Body = append(p.Procs[1].Body, lang.CASS("x", lang.C(1), lang.C(2)))
	p.Procs[1].AddReg("c")
	out2, err := Translate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range out2.Arrays {
		if a.Name == "_avail_x" && a.Size != 3 {
			t.Errorf("_avail_x with CAS: size %d, want 3", a.Size)
		}
	}
}

func TestTranslateAddsViewRegisters(t *testing.T) {
	out, err := Translate(mpProgram(), 2)
	if err != nil {
		t.Fatal(err)
	}
	pr := out.ProcByName("p1")
	if pr == nil {
		t.Fatal("p1 missing")
	}
	want := []string{"a", "b", "_vt_x", "_vv_x", "_vl_x", "_vt_y", "_vv_y", "_vl_y", "_ch", "_ns", "_sra"}
	have := map[string]bool{}
	for _, r := range pr.Regs {
		have[r] = true
	}
	for _, r := range want {
		if !have[r] {
			t.Errorf("p1 missing register %s", r)
		}
	}
}

func TestTranslateFenceAddsFenceVariable(t *testing.T) {
	p := lang.NewProgram("f", "x")
	p.AddProc("p0").Add(lang.WriteC("x", 1), lang.FenceS())
	out, err := Translate(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.HasArray("_avail__fence") {
		t.Error("fence variable pool missing")
	}
	s := out.String()
	if !strings.Contains(s, "_vv__fence") {
		t.Error("fence view registers missing from translated code")
	}
}

func TestTranslateKeepsControlFlowAndLocals(t *testing.T) {
	p := lang.NewProgram("cf", "x")
	p.AddProc("p0", "r").Add(
		lang.NondetS("r", 0, 3),
		lang.IfS(lang.Eq(lang.R("r"), lang.C(1)), lang.WriteC("x", 1)),
		lang.AssumeS(lang.Le(lang.R("r"), lang.C(2))),
		lang.AssertS(lang.Ge(lang.R("r"), lang.C(0))),
		lang.Term{},
	)
	out, err := Translate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"nondet(0, 3)", "if", "assume", "assert", "term"} {
		if !strings.Contains(s, frag) {
			t.Errorf("translated program lost %q", frag)
		}
	}
}

func TestTranslateLoopsStructurally(t *testing.T) {
	// Loops without RMWs translate structurally (paper Fig. 4).
	p := lang.NewProgram("loop", "x")
	p.AddProc("p0", "r").Add(
		lang.WhileS(lang.Eq(lang.R("r"), lang.C(0)), lang.ReadS("r", "x")),
	)
	out, err := Translate(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "while") {
		t.Error("structural loop translation lost the loop")
	}
	// But CAS inside a loop requires unrolling first.
	q := lang.NewProgram("loopcas", "x")
	q.AddProc("p0", "r").Add(
		lang.WhileS(lang.Eq(lang.R("r"), lang.C(0)), lang.CASS("x", lang.C(0), lang.C(1))),
	)
	if _, err := Translate(q, 2); err == nil {
		t.Error("CAS inside a loop must be rejected")
	}
}

func TestTranslateProbeIsSmaller(t *testing.T) {
	full, err := Translate(mpProgram(), 2)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := TranslateProbe(mpProgram(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if probe.CountStmts() >= full.CountStmts() {
		t.Errorf("probe (%d stmts) should be smaller than full (%d)",
			probe.CountStmts(), full.CountStmts())
	}
	// The probe has no untracked-write branch, hence no view_l := 0.
	if strings.Contains(probe.String(), "$_vl_x = 0") {
		t.Error("probe must not contain untracked writes")
	}
}

func TestTranslateRejectsNegativeK(t *testing.T) {
	if _, err := Translate(mpProgram(), -1); err == nil {
		t.Error("negative K must be rejected")
	}
}

func TestTranslatedProgramRunsUnderSCOnly(t *testing.T) {
	out, err := Translate(mpProgram(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.ValidateRA(); err == nil {
		t.Error("translated program uses arrays/atomic and must be outside the RA fragment")
	}
	if err := out.Validate(); err != nil {
		t.Errorf("translated program must be well-formed: %v", err)
	}
}

// TestProbeSoundness: any bug the probe variants find is found by the
// full translation too (the probe explores a subset of guesses).
func TestProbeSoundness(t *testing.T) {
	progs := []*lang.Program{mpObservable(), chain2(), casExclusive(), mpSafe(), sbChecked(false),
		sbChecked(true), coherence(), fencedMP(), casHandoff()}
	for _, p := range progs {
		for k := 0; k <= 2; k++ {
			full, err := Run(p, Options{K: k, NoProbes: true})
			if err != nil {
				t.Fatal(err)
			}
			probed, err := Run(p, Options{K: k})
			if err != nil {
				t.Fatal(err)
			}
			if full.Verdict != probed.Verdict {
				t.Errorf("%s K=%d: NoProbes=%v with-probes=%v", p.Name, k, full.Verdict, probed.Verdict)
			}
			for _, res := range []Result{full, probed} {
				if res.Verdict == Unsafe && !res.WitnessValidated {
					t.Errorf("%s K=%d: UNSAFE witness not validated: %s", p.Name, k, res.WitnessErr)
				}
			}
		}
	}
}
