package cache

import (
	"testing"

	"ravbmc/internal/lang"
)

// keyProg builds a tiny two-proc program whose first write stores v,
// so different v yield genuinely different programs.
func keyProg(name string, v int) *lang.Program {
	p := &lang.Program{Name: name, Vars: []string{"y", "x"}}
	p.Procs = []*lang.Proc{
		{Name: "a", Body: []lang.Stmt{
			lang.Write{Var: "x", Val: lang.C(lang.Value(v))},
			lang.Write{Var: "y", Val: lang.C(1)},
		}},
		{Name: "b", Regs: []string{"r"}, Body: []lang.Stmt{
			lang.Read{Reg: "r", Var: "y"},
			lang.Assert{Cond: lang.Not(lang.Eq(lang.R("r"), lang.C(2)))},
		}},
	}
	return p
}

func reqDigest(r Request, group bool) Digest {
	nr := r.normalized()
	return digest(lang.Canon(nr.Prog), nr, "v-test", group)
}

func TestDigestSurfaceInsensitive(t *testing.T) {
	a := Request{Prog: keyProg("mp", 1), Mode: ModeVBMC, K: 2}
	b := Request{Prog: keyProg("renamed", 1), Mode: ModeVBMC, K: 2}
	if reqDigest(a, false) != reqDigest(b, false) {
		t.Error("digest differs for programs differing only in name")
	}
	c := Request{Prog: keyProg("mp", 3), Mode: ModeVBMC, K: 2}
	if reqDigest(a, false) == reqDigest(c, false) {
		t.Error("digest conflates semantically different programs")
	}
}

func TestDigestSeparatesModesAndBounds(t *testing.T) {
	base := Request{Prog: keyProg("mp", 1), Mode: ModeVBMC, K: 2}
	variants := []Request{
		{Prog: base.Prog, Mode: ModeRAK, K: 2},
		{Prog: base.Prog, Mode: ModeVBMC, K: 3},
		{Prog: base.Prog, Mode: ModeVBMC, K: 2, Unroll: 4},
		{Prog: base.Prog, Mode: ModeVBMC, K: 2, MaxStates: 100},
		{Prog: base.Prog, Mode: ModeVBMC, K: 2, ExactDedup: true},
	}
	d0 := reqDigest(base, false)
	for i, v := range variants {
		if reqDigest(v, false) == d0 {
			t.Errorf("variant %d shares the base digest", i)
		}
	}
}

func TestDigestVersionInvalidates(t *testing.T) {
	r := Request{Prog: keyProg("mp", 1), Mode: ModeVBMC, K: 2}.normalized()
	canon := lang.Canon(r.Prog)
	if digest(canon, r, "v1", false) == digest(canon, r, "v2", false) {
		t.Error("digest ignores the toolchain version")
	}
}

func TestGroupDigestSharedAcrossK(t *testing.T) {
	a := Request{Prog: keyProg("mp", 1), Mode: ModeVBMC, K: 1}
	b := Request{Prog: keyProg("mp", 1), Mode: ModeVBMC, K: 9}
	if reqDigest(a, true) != reqDigest(b, true) {
		t.Error("group digest differs across K")
	}
	if reqDigest(a, false) == reqDigest(b, false) {
		t.Error("exact digest conflates different K")
	}
	c := Request{Prog: keyProg("mp", 1), Mode: ModeRAK, K: 1}
	if reqDigest(a, true) == reqDigest(c, true) {
		t.Error("group digest conflates vbmc and rak families")
	}
}

func TestNormalizationDropsIrrelevantDims(t *testing.T) {
	// The exhaustive and stateless modes ignore K and MaxContexts.
	a := Request{Prog: keyProg("mp", 1), Mode: ModeRA, K: 3, MaxContexts: 7}
	b := Request{Prog: keyProg("mp", 1), Mode: ModeRA}
	if reqDigest(a, false) != reqDigest(b, false) {
		t.Error("ra digest depends on K/MaxContexts, which the mode ignores")
	}
	c := Request{Prog: keyProg("mp", 1), Mode: ModeTracer, ExactDedup: true}
	d := Request{Prog: keyProg("mp", 1), Mode: ModeTracer}
	if reqDigest(c, false) != reqDigest(d, false) {
		t.Error("tracer digest depends on ExactDedup, which the mode ignores")
	}
}

func TestValidMode(t *testing.T) {
	for _, m := range Modes() {
		if !ValidMode(m) {
			t.Errorf("Modes() lists invalid mode %q", m)
		}
	}
	for _, m := range []string{"", "VBMC", "bogus"} {
		if ValidMode(m) {
			t.Errorf("ValidMode(%q) = true", m)
		}
	}
}
