package bench

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {100, 10}, {10, 1}, {0, 1},
	} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}

// A tail percentile is reported only with at least ten samples beyond
// it: p95 needs 200 samples, the litmus and service passes have 518 and
// 1000.
func TestBeyondTenSamplesRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{{200, 95, 10}, {199, 95, 9}, {518, 95, 25}, {1000, 95, 50}, {8, 95, 0}, {0, 95, 0}} {
		if got := Beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("Beyond(%d, p%v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

// The values are those of Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, m, q3 := Quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(m, tc.m) || !near(q3, tc.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := Median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("Median = %v", got)
	}
	if got := Geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("Geomean = %v, want 4", got)
	}
	if got := Geomean([]float64{1, 0}); got != 0 {
		t.Errorf("Geomean with a zero = %v, want 0", got)
	}
}

func TestWorseBoundsAndFloors(t *testing.T) {
	for _, tc := range []struct {
		base, cur    float64
		better       string
		bound, floor float64
		want         bool
	}{
		{1, 1.09, "lower", 0.1, 0, false},
		{1, 1.11, "lower", 0.1, 0, true},
		{1, 0.5, "lower", 0.1, 0, false},
		{100, 89, "higher", 0.1, 0, true},
		{100, 91, "higher", 0.1, 0, false},
		// Below the absolute floor a relative jump does not count.
		{0.0002, 0.00028, "lower", 0.1, 1e-4, false},
		{0.0002, 0.00031, "lower", 0.1, 1e-4, true},
		{0.02, 0.06, "lower", 0.1, 0.05, false},
	} {
		if got := Worse(tc.base, tc.cur, tc.better, tc.bound, tc.floor); got != tc.want {
			t.Errorf("Worse(%v, %v, %s, %v, %v) = %v", tc.base, tc.cur, tc.better, tc.bound, tc.floor, got)
		}
	}
}

func TestDiffVerdicts(t *testing.T) {
	run := func(workload string, vals map[string]float64) *Result {
		r := &Result{Workload: workload, Metrics: map[string]MetricValue{}}
		for name, v := range vals {
			r.Metrics[name] = MetricValue{Value: v, Unit: "s", Q1: v, Median: v, Q3: v, N: 1}
		}
		return r
	}
	var old, cur []*Result
	for i := 0; i < 5; i++ {
		d := float64(i) * 0.01
		old = append(old, run("bugs", map[string]float64{"wall_s": 10 + d, "latency_p50_s": 1 + d, "verdict_s_geomean": 1 + d, "latency_p95_s": 1 + 5*d, "core.states": 7}))
		cur = append(cur, run("bugs", map[string]float64{"wall_s": 12 + d, "latency_p50_s": 1.01 + d, "verdict_s_geomean": 0.8 + d, "latency_p95_s": 1.2 + 5*d, "core.states": 9}))
	}
	bounds := map[string]float64{"wall_s": 0.1, "latency_p50_s": 0.1, "verdict_s_geomean": 0.1, "latency_p95_s": 0.01}
	want := map[string]string{
		"wall_s":            "REGRESSION",
		"latency_p50_s":     "ok",
		"verdict_s_geomean": "better",
		"latency_p95_s":     "unresolved", // spread 2.6% against a 1% bound, runs overlap
		"core.states":       "-",
	}
	rows := Diff(old, cur, bounds)
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r.Verdict != want[r.Metric] {
			t.Errorf("%s: verdict %s, want %s", r.Metric, r.Verdict, want[r.Metric])
		}
	}
}
