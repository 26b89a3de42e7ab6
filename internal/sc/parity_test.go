package sc

import (
	"testing"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/fp"
	"ravbmc/internal/lang"
)

// TestCheckDedupModeParity runs the SC checker in fingerprint and
// exact-key modes over the mutual-exclusion protocols and requires
// identical verdicts and statistics, with and without a context bound.
func TestCheckDedupModeParity(t *testing.T) {
	progs := []*lang.Program{mustSB()}
	for _, name := range []string{"peterson_0", "peterson_4", "dekker"} {
		p, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, lang.Unroll(p, 2))
	}
	for _, p := range progs {
		for _, maxCtx := range []int{0, 4} {
			fpRes := check(t, p, Options{MaxContexts: maxCtx})
			exRes := check(t, p, Options{MaxContexts: maxCtx, ExactDedup: true})
			if fpRes.Violation != exRes.Violation ||
				fpRes.States != exRes.States ||
				fpRes.Transitions != exRes.Transitions ||
				fpRes.Exhausted != exRes.Exhausted {
				t.Errorf("%s (ctx<=%d): fingerprint/exact divergence:\n fp: %+v\n ex: %+v",
					p.Name, maxCtx, fpRes, exRes)
			}
		}
	}
}

// TestCheckDedupProbeZeroAllocs guards the checker's hot path: key
// encoding into the reused buffer plus a visited-set probe is
// allocation-free in both modes.
func TestCheckDedupProbeZeroAllocs(t *testing.T) {
	if fp.RaceEnabled {
		t.Skip("allocation guards are meaningless under -race")
	}
	sys := NewSystem(lang.MustCompile(mustSB()))
	c := sys.Init()
	for _, exact := range []bool{false, true} {
		set := fp.NewSet(exact)
		buf := make([]byte, 0, 256)
		buf = sys.DedupKey(c, buf[:0])
		set.Visit(buf, 0)
		allocs := testing.AllocsPerRun(500, func() {
			buf = sys.DedupKey(c, buf[:0])
			set.Visit(buf, 0)
		})
		if allocs != 0 {
			t.Errorf("exact=%v: %v allocs per encode+probe, want 0", exact, allocs)
		}
	}
}
