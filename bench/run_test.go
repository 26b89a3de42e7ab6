package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/core"
)

// A toy-size run of every workload, untraced and traced, with the
// service workload served in-process.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range Workloads() {
		for _, traced := range []bool{false, true} {
			r, err := Run(Config{Workload: w, Seed: 1, Seconds: 0.3, Trace: traced, Toy: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !r.Correct() {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w, traced, r.Failed, r.Attempted, r.Failures)
			}
			for _, m := range r.table() {
				v, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, m.Name)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, v.Value)
				case m.Unit == "s" && v.Value <= 0 && traced:
					t.Errorf("%s traced: time %s = %v, want > 0", w, m.Name, v.Value)
				}
			}
			if len(r.Summary().Metrics) != len(r.table()) {
				t.Errorf("%s traced=%v: summary has %d metrics, want %d", w, traced, len(r.Summary().Metrics), len(r.table()))
			}
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the
// benchmark reports, with bounds the comparator can apply.
func TestSpecMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	if got, want := len(ws), len(Workloads()); got != want {
		t.Errorf("spec lists %d workloads, benchmark has %d", got, want)
	}
	for _, w := range ws {
		if _, ok := workloads[w]; !ok {
			t.Errorf("spec workload %q unknown", w)
		}
	}
	check := func(kind string, got []metric, want []Metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: spec has %d metrics, benchmark %d", kind, len(got), len(want))
			return
		}
		maxBound := 0.0
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s[%d]: spec %+v, benchmark %+v", kind, i, m, w)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: %s bound presence wrong", kind, m.Name)
			}
			if m.Bound != nil {
				if *m.Bound <= 0 || *m.Bound > 0.25 {
					t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, *m.Bound)
				}
				if *m.Bound > maxBound {
					maxBound = *m.Bound
				}
			}
		}
		if bounded && *got[0].Bound != maxBound {
			t.Errorf("setup_s must carry the largest bound")
		}
	}
	check("end_to_end", spec.EndToEnd, EndToEnd, true)
	check("per_layer", spec.PerLayer, PerLayer, false)
}

// The pinned rows still explore the pinned numbers of states. Their
// ratio is core.ladder_overhead.
func TestPinnedLadderCounts(t *testing.T) {
	for _, p := range []struct {
		bench        string
		l            int
		unsafe, slow bool
	}{
		{"tbar_4", 2, false, false},
		{"bakery", 2, true, false},
		{"peterson_4(2)", 1, false, true},
		{"peterson_0(3)", 2, true, true},
	} {
		if p.slow && testing.Short() {
			continue
		}
		prog, err := benchmarks.ByName(p.bench)
		if err != nil {
			t.Fatal(err)
		}
		q := Query{Name: fmt.Sprintf("%s L=%d", p.bench, p.l), Prog: prog, K: 2, L: p.l, Unsafe: p.unsafe}
		pin, ok := pinnedLadder[q.Name]
		if !ok {
			t.Fatalf("%s: not pinned", q.Name)
		}
		o := runQuery(q, core.Options{})
		if err := o.check(q); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		d, err := searchDirect(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if o.res.States != pin.RunStates || d.res.States != pin.DirectState {
			t.Errorf("%s: core.Run %d states, direct %d; pinned %d and %d",
				q.Name, o.res.States, d.res.States, pin.RunStates, pin.DirectState)
		}
	}
}
