package sc

import (
	"bytes"
	"testing"

	"ravbmc/internal/lang"
)

// TestDedupKeyMasksEveryTerminatedProcess: the registers of a
// terminated process can never be read again, so two configurations
// that differ only there must share a search key — also when the
// terminated process directly follows a live one.
func TestDedupKeyMasksEveryTerminatedProcess(t *testing.T) {
	p := lang.NewProgram("dead_regs", "x")
	p.AddProc("live", "a").Add(lang.ReadS("a", "x"))
	p.AddProc("dead", "b").Add(lang.ReadS("b", "x"))
	p.AddProc("live2", "c").Add(lang.ReadS("c", "x"))
	s := NewSystem(lang.MustCompile(p))
	term := -1
	for pc, in := range s.Prog.Procs[1].Code {
		if in.Op == lang.OpTermProc {
			term = pc
			break
		}
	}
	if term < 0 {
		t.Fatal("no termination sink in process dead")
	}
	c1, c2 := s.Init(), s.Init()
	for _, c := range []*Config{c1, c2} {
		c.v[s.pcOff+1] = lang.Value(term)
	}
	s.regs(c1, 1)[0], s.regs(c2, 1)[0] = 1, 2
	if s.terminated(c1, 0) || !s.terminated(c1, 1) || s.terminated(c1, 2) {
		t.Fatal("want processes live, terminated, live")
	}
	if k1, k2 := s.DedupKey(c1, nil), s.DedupKey(c2, nil); !bytes.Equal(k1, k2) {
		t.Errorf("keys differ in a terminated process's registers:\n%x\n%x", k1, k2)
	}
	// A live process's registers stay in the key.
	s.regs(c2, 2)[0] = 3
	if bytes.Equal(s.DedupKey(c1, nil), s.DedupKey(c2, nil)) {
		t.Error("keys equal although a live process's registers differ")
	}
}
