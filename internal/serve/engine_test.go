package serve

import (
	"context"
	"testing"

	"ravbmc/internal/cache"
	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/obs"
)

// tmaiSource is a program the thread-modular pre-pass proves: two
// writers of constants and a reader asserting a value bound, so the
// interference abstraction alone settles the assertion.
func tmaiSource() string {
	return progSrc(&lang.Program{
		Vars: []string{"x"},
		Procs: []*lang.Proc{
			{Name: "P0", Body: []lang.Stmt{lang.Write{Var: "x", Val: lang.C(1)}}},
			{Name: "P1", Body: []lang.Stmt{lang.Write{Var: "x", Val: lang.C(2)}}},
			{Name: "P2", Regs: []string{"r"}, Body: []lang.Stmt{
				lang.Read{Reg: "r", Var: "x"},
				lang.Assert{Cond: lang.Le(lang.R("r"), lang.C(2))},
			}},
		},
	})
}

// spanAttr reports whether some span in the forest carries attr=val.
func spanAttr(spans []*obs.SpanNode, attr, val string) bool {
	for _, sp := range spans {
		if sp.Attrs[attr] == val || spanAttr(sp.Children, attr, val) {
			return true
		}
	}
	return false
}

// TestServeExecReachesEngine checks that each engine knob of
// Config.Exec reaches the engine a request runs: a knob lost on the way
// from the daemon's config to core.Run would leave every answer below
// unchanged from the zero config's.
func TestServeExecReachesEngine(t *testing.T) {
	verify := func(t *testing.T, x cache.ExecConfig, req VerifyRequest) (*Server, VerifyResponse) {
		t.Helper()
		s, client := newTestServer(t, Config{Workers: 1, Exec: x})
		req.Mode = cache.ModeVBMC
		resp, err := client.Verify(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return s, resp
	}
	tmaiReq := VerifyRequest{Program: tmaiSource(), K: 2}
	tbarReq := VerifyRequest{Bench: "tbar", K: 2, Unroll: 2}

	t.Run("TMAI", func(t *testing.T) {
		_, resp := verify(t, cache.ExecConfig{Engine: core.Engine{TMAI: true}}, tmaiReq)
		if resp.Verdict != cache.VerdictSafe || !resp.Unbounded {
			t.Errorf("TMAI server: verdict %s unbounded %v, want an unbounded SAFE", resp.Verdict, resp.Unbounded)
		}
	})
	t.Run("zero", func(t *testing.T) {
		_, resp := verify(t, cache.ExecConfig{}, tmaiReq)
		if resp.Verdict != cache.VerdictSafe || resp.Unbounded {
			t.Errorf("zero Exec: verdict %s unbounded %v, want a bounded SAFE", resp.Verdict, resp.Unbounded)
		}
	})

	_, plain := verify(t, cache.ExecConfig{}, tbarReq)
	if plain.Verdict != cache.VerdictSafe {
		t.Fatalf("tbar K=2 L=2: verdict %s, want SAFE", plain.Verdict)
	}
	t.Run("Reduce", func(t *testing.T) {
		_, resp := verify(t, cache.ExecConfig{Engine: core.Engine{Reduce: true}}, tbarReq)
		if resp.Verdict != plain.Verdict {
			t.Errorf("Reduce server: verdict %s, want the unreduced %s", resp.Verdict, plain.Verdict)
		}
		if resp.States >= plain.States {
			t.Errorf("Reduce server searched %d states, unreduced %d: the reduction did not run", resp.States, plain.States)
		}
	})
	t.Run("Workers", func(t *testing.T) {
		s, resp := verify(t, cache.ExecConfig{Engine: core.Engine{Workers: 2}}, tbarReq)
		if resp.Verdict != plain.Verdict || resp.States != plain.States {
			t.Errorf("2-worker server: %s with %d states, one worker %s with %d", resp.Verdict, resp.States, plain.Verdict, plain.States)
		}
		rec, ok := s.Ledger().Get(resp.RunID)
		if !ok {
			t.Fatalf("run %s not in ledger", resp.RunID)
		}
		if !spanAttr(rec.Spans, "workers", "2") {
			t.Error("no search span ran on 2 workers")
		}
	})
}
