package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json the comparator needs.
type spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// ReadSpec loads BENCHMARK.json and returns each end-to-end metric's
// bound.
func ReadSpec(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range s.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// LoadResults reads result files; a directory contributes every *.json
// file in it.
func LoadResults(paths ...string) ([]*Result, error) {
	var out []*Result
	for _, p := range paths {
		files := []string{p}
		if fi, err := os.Stat(p); err != nil {
			return nil, err
		} else if fi.IsDir() {
			if files, err = filepath.Glob(filepath.Join(p, "*.json")); err != nil {
				return nil, err
			}
		}
		for _, f := range files {
			r, err := ReadResult(f)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// Dist summarises one metric on one side of a comparison.
type Dist struct {
	Q1, Median, Q3 float64
	Values         []float64 // one per run
}

// dist summarises a metric over runs. A single run stands for itself
// with the quartiles of its own passes.
func dist(vals []MetricValue) Dist {
	if len(vals) == 1 {
		v := vals[0]
		return Dist{Q1: v.Q1, Median: v.Value, Q3: v.Q3, Values: []float64{v.Value}}
	}
	d := Dist{}
	for _, v := range vals {
		d.Values = append(d.Values, v.Value)
	}
	d.Q1, d.Median, d.Q3 = Quartiles(d.Values)
	return d
}

func (d Dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}

// DiffRow is one (workload, metric) line of a comparison.
type DiffRow struct {
	Workload, Metric, Unit string
	Old, New               Dist
	// Verdict is REGRESSION (worse than the bound allows), unresolved
	// (a side's spread is wider than the bound and the runs overlap),
	// better (improved by more than the bound), ok, or "-" for metrics
	// without a bound.
	Verdict string
}

// Diff compares two sets of runs metric by metric. bounds maps
// end-to-end metrics to the share of the old median by which they may
// worsen; metrics without a bound are reported but never judged.
func Diff(old, cur []*Result, bounds map[string]float64) []DiffRow {
	type key struct{ workload, metric string }
	group := func(rs []*Result) map[key][]MetricValue {
		g := map[key][]MetricValue{}
		for _, r := range rs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				g[k] = append(g[k], v)
			}
		}
		return g
	}
	og, ng := group(old), group(cur)
	var keys []key
	for k := range og {
		if _, ok := ng[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	var rows []DiffRow
	for _, k := range keys {
		row := DiffRow{Workload: k.workload, Metric: k.metric, Unit: og[k][0].Unit,
			Old: dist(og[k]), New: dist(ng[k]), Verdict: "-"}
		m, known := lookupMetric(k.metric)
		if bound, ok := bounds[k.metric]; ok && known {
			row.Verdict = judge(row.Old, row.New, m, bound)
		}
		rows = append(rows, row)
	}
	return rows
}

// judge applies the metric's bound to one comparison. When a side's
// spread is wider than the bound, only a complete separation of the
// runs decides.
func judge(old, cur Dist, m Metric, bound float64) string {
	// dominates reports whether every run in a reads better than every
	// run in b.
	dominates := func(a, b Dist) bool {
		for _, x := range a.Values {
			for _, y := range b.Values {
				if (m.Better == "higher") != (x > y) || x == y {
					return false
				}
			}
		}
		return true
	}
	switch {
	case old.spread() > bound || cur.spread() > bound:
		switch {
		case dominates(cur, old):
			return "better"
		case dominates(old, cur):
			return "REGRESSION"
		}
		return "unresolved"
	case Worse(old.Median, cur.Median, m.Better, bound, m.Floor):
		return "REGRESSION"
	case Worse(cur.Median, old.Median, m.Better, bound, m.Floor):
		return "better"
	}
	return "ok"
}

// PrintDiff writes the comparison as a table, one row per (workload,
// metric).
func PrintDiff(w io.Writer, rows []DiffRow) {
	fmt.Fprintf(w, "%-8s %-22s %-6s %26s %26s %8s  %s\n", "workload", "metric", "unit", "old median [q1 q3]", "new median [q1 q3]", "change", "verdict")
	for _, r := range rows {
		change := math.NaN()
		if r.Old.Median != 0 {
			change = (r.New.Median - r.Old.Median) / math.Abs(r.Old.Median) * 100
		}
		fmt.Fprintf(w, "%-8s %-22s %-6s %10.4g [%6.4g %6.4g] %10.4g [%6.4g %6.4g] %+7.1f%%  %s\n",
			r.Workload, r.Metric, r.Unit, r.Old.Median, r.Old.Q1, r.Old.Q3, r.New.Median, r.New.Q1, r.New.Q3, change, r.Verdict)
	}
}
