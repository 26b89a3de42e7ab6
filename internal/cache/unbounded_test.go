package cache

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"ravbmc/internal/core"
	"ravbmc/internal/lang"
)

// tmaiProg is a shape the thread-modular analyser proves: the assert
// is purely value-based, so interference abstraction suffices.
func tmaiProg() *lang.Program {
	return &lang.Program{
		Name: "coherence-values",
		Vars: []string{"x"},
		Procs: []*lang.Proc{
			{Name: "P0", Body: []lang.Stmt{lang.Write{Var: "x", Val: lang.C(1)}}},
			{Name: "P1", Body: []lang.Stmt{lang.Write{Var: "x", Val: lang.C(2)}}},
			{Name: "P2", Regs: []string{"r"}, Body: []lang.Stmt{
				lang.Read{Reg: "r", Var: "x"},
				lang.Assert{Cond: lang.Le(lang.R("r"), lang.C(2))},
			}},
		},
	}
}

// TestUnboundedSafeAnswersEveryK: an unbounded-SAFE entry answers a
// query at any K — smaller, larger, or far beyond anything computed —
// where a plain SAFE@K' only answers K ≤ K'.
func TestUnboundedSafeAnswersEveryK(t *testing.T) {
	c := newTestCache(t, Config{})
	prog := keyProg("u", 1)
	calls := 0
	if _, err := c.Do(context.Background(), Request{Prog: prog, Mode: ModeVBMC, K: 3},
		fakeRun(Outcome{Verdict: VerdictSafe, Unbounded: true}, &calls)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 7, 100} {
		out, err := c.Do(context.Background(), Request{Prog: prog, Mode: ModeVBMC, K: k},
			func(ctx context.Context, r Request) (Outcome, error) {
				t.Fatalf("K=%d missed despite an unbounded entry", k)
				return Outcome{}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if out.Verdict != VerdictSafe || !out.Unbounded || !out.Cached {
			t.Errorf("K=%d: %+v", k, out)
		}
		if k != 3 && (!out.Subsumed || out.SubsumedFromK != 3) {
			t.Errorf("K=%d: expected subsumption from K=3, got %+v", k, out)
		}
	}
}

// TestUnboundedFlagOnUnsafeIsNeverATier: only a SAFE enters the
// unbounded tier. A (hypothetically corrupt) UNSAFE outcome carrying
// the flag must stay in the K-indexed tier and keep the asymmetric
// rule: validated UNSAFE@K' never answers a smaller K.
func TestUnboundedFlagOnUnsafeIsNeverATier(t *testing.T) {
	c := newTestCache(t, Config{})
	prog := keyProg("u", 2)
	calls := 0
	if _, err := c.Do(context.Background(), Request{Prog: prog, Mode: ModeVBMC, K: 3},
		fakeRun(Outcome{Verdict: VerdictUnsafe, WitnessValidated: true, Unbounded: true}, &calls)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(context.Background(), Request{Prog: prog, Mode: ModeVBMC, K: 1},
		fakeRun(Outcome{Verdict: VerdictInconclusive}, &calls)); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("UNSAFE@3 answered K=1 (%d calls, want 2)", calls)
	}
}

// TestUnboundedEvictionPrunesTier: evicting the unbounded entry must
// clear the tier, not leave a dangling digest that later reads as a
// phantom hit.
func TestUnboundedEvictionPrunesTier(t *testing.T) {
	payload := strings.Repeat("w", 1024)
	c := newTestCache(t, Config{MaxBytes: 3 * (entryOverhead + 1024)})
	prog := keyProg("u", 3)
	calls := 0
	if _, err := c.Do(context.Background(), Request{Prog: prog, Mode: ModeVBMC, K: 2},
		fakeRun(Outcome{Verdict: VerdictSafe, Unbounded: true, Detail: payload}, &calls)); err != nil {
		t.Fatal(err)
	}
	// Flood with other groups until the unbounded entry is evicted.
	for i := 10; i < 16; i++ {
		if _, err := c.Do(context.Background(), Request{Prog: keyProg("f", i), Mode: ModeVBMC, K: 2},
			fakeRun(Outcome{Verdict: VerdictSafe, Detail: payload}, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("flood did not evict anything; budget miscalibrated")
	}
	missed := false
	if _, err := c.Do(context.Background(), Request{Prog: prog, Mode: ModeVBMC, K: 9},
		func(ctx context.Context, r Request) (Outcome, error) {
			missed = true
			return Outcome{Verdict: VerdictInconclusive}, nil
		}); err != nil {
		t.Fatal(err)
	}
	if !missed {
		t.Error("evicted unbounded entry still answered a query")
	}
}

// TestUnboundedDiskRoundTrip: the tier survives a restart under the
// same toolchain version, and a version bump makes the persisted entry
// stale — it must not be resurrected into the new build's tier.
func TestUnboundedDiskRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	prog := keyProg("u", 4)
	calls := 0

	c1 := newTestCache(t, Config{DiskPath: path, Version: "vA"})
	if _, err := c1.Do(context.Background(), Request{Prog: prog, Mode: ModeVBMC, K: 2},
		fakeRun(Outcome{Verdict: VerdictSafe, Unbounded: true}, &calls)); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Same version: a K never computed is answered from the tier.
	c2 := newTestCache(t, Config{DiskPath: path, Version: "vA"})
	out, err := c2.Do(context.Background(), Request{Prog: prog, Mode: ModeVBMC, K: 11},
		func(ctx context.Context, r Request) (Outcome, error) {
			t.Fatal("reloaded unbounded entry did not answer")
			return Outcome{}, nil
		})
	if err != nil || !out.Unbounded || !out.Subsumed {
		t.Fatalf("reloaded answer: %+v err=%v", out, err)
	}
	c2.Close()

	// New version: the old proof is about the old engine; it must load
	// as stale, and the query must re-execute.
	c3 := newTestCache(t, Config{DiskPath: path, Version: "vB"})
	missed := false
	if _, err := c3.Do(context.Background(), Request{Prog: prog, Mode: ModeVBMC, K: 11},
		func(ctx context.Context, r Request) (Outcome, error) {
			missed = true
			return Outcome{Verdict: VerdictInconclusive}, nil
		}); err != nil {
		t.Fatal(err)
	}
	if !missed {
		t.Error("stale-version unbounded entry was resurrected")
	}
	if c3.Stats().DiskStale == 0 {
		t.Error("old-version record not counted as stale")
	}
}

// TestVerifyUnboundedEndToEnd runs the real pipeline: the TMAI
// pre-pass proves the program once, and the cache then answers a K it
// never directly computed — cross-checked against a direct core.Run at
// that K, the same discipline as the subsumption property test.
func TestVerifyUnboundedEndToEnd(t *testing.T) {
	c := newTestCache(t, Config{})
	prog := tmaiProg()
	x := ExecConfig{Engine: core.Engine{TMAI: true}}
	first, err := c.Verify(context.Background(), Request{Prog: prog, Mode: ModeVBMC, K: 2}, x)
	if err != nil {
		t.Fatal(err)
	}
	if first.Verdict != VerdictSafe || !first.Unbounded || first.Cached {
		t.Fatalf("seed run: %+v", first)
	}
	out, err := c.Verify(context.Background(), Request{Prog: prog, Mode: ModeVBMC, K: 9}, x)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cached || !out.Subsumed || !out.Unbounded || out.Verdict != VerdictSafe {
		t.Fatalf("K=9 not answered by the unbounded tier: %+v", out)
	}
	res, err := core.Run(prog.Clone(), core.Options{K: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict.String() != out.Verdict {
		t.Errorf("cache says %s at K=9, direct run says %s", out.Verdict, res.Verdict)
	}
	if st := c.Stats(); st.Misses != 1 || st.SubsumedHits != 1 {
		t.Errorf("stats: %+v", st)
	}
}
