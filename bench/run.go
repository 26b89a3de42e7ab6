// Package bench is the repository's benchmark: four workloads drawn
// from the paper's evaluation, each run as a fixed, seeded list of
// verification queries whose verdicts are checked against references
// that do not come from the code under test. Untraced runs report the
// end-to-end metrics; traced runs report per-layer costs, timed from
// outside the program through its public functions and HTTP API.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ravbmc/internal/core"
	"ravbmc/internal/obs"
)

// Config selects one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is the measuring window: passes over the queries repeat
	// while the next one is expected to end inside it (at least one
	// pass always runs).
	Seconds float64
	// Trace runs one untraced and one traced pass and reports the
	// per-layer metrics instead of the end-to-end ones.
	Trace bool
	// Toy shrinks the inputs to a few queries (tests, smoke runs).
	Toy bool
	// Vbmcd is the daemon binary the service workload starts; empty
	// serves the API from this process instead.
	Vbmcd string
	// WorkDir holds the daemons' temporary disk stores.
	WorkDir string
}

const (
	// queryDeadline is the safety net of every query; the engines run
	// without their own timeout, so the work each query does is fixed.
	// A query that reaches it counts as failed.
	queryDeadline = 120 * time.Second
	// setupReps is how often in-process workloads set up; setup_s is
	// the median.
	setupReps = 9
	// A query shorter than minQuerySeconds repeats within a pass, up to
	// maxReps times, and its latency in the pass is the median; longer
	// queries run once per pass.
	minQuerySeconds = 0.25
	maxReps         = 5
	// conns is the service workload's client count: no more than the
	// recording machine's cores.
	conns = 2
)

type workload struct {
	inputs  func(seed int64, toy bool) (*Inputs, error)
	service bool
}

var workloads = map[string]workload{
	"bugs":    {inputs: bugsInputs},
	"proofs":  {inputs: proofsInputs},
	"litmus":  {inputs: litmusInputs},
	"service": {inputs: serviceInputs, service: true},
}

// Workloads returns the workload names.
func Workloads() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// MetricValue is one reported metric. Value is the metric as defined;
// Q1, Median and Q3 summarise its per-pass values (set-up repetitions
// for setup_s) over N samples.
type MetricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// Result is one run's stamped outcome.
type Result struct {
	Stamp     Stamp                  `json:"stamp"`
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Toy       bool                   `json:"toy,omitempty"`
	Seconds   float64                `json:"seconds"`
	Passes    int                    `json:"passes"`
	Queries   int                    `json:"queries"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]MetricValue `json:"metrics"`
	// TimeScale converted this run's measured seconds into the reported
	// reference seconds; CalibrationS is the median calibration time it
	// came from, over CalibrationN samples (see calibrate.go).
	TimeScale    float64 `json:"time_scale"`
	CalibrationS float64 `json:"calibration_s"`
	CalibrationN int     `json:"calibration_samples"`
	// SelfTime is each layer's self time over the traced pass: span
	// durations minus the time their child spans cover.
	SelfTime map[string]float64 `json:"self_time_s,omitempty"`
	// Ladder lists, for traced runs of the paper tables, each directly
	// searched row's core.Run states against its direct search states.
	Ladder []LadderRow `json:"ladder,omitempty"`

	spans []*obs.SpanNode // span forest of the traced pass, written by WriteFiles
}

// LadderRow compares the states core.Run explores with those of one
// direct search at the full context bound.
type LadderRow struct {
	Query       string `json:"query"`
	RunStates   int    `json:"run_states"`
	DirectState int    `json:"direct_states"`
}

// pinnedLadder holds the states of four paper rows as measured when the
// benchmark was added: core.Run with no timeout, and one direct search
// at the full context bound. Traced runs print their rows beside these;
// a change to the probe ladder or the SC backend that moves them must
// say so.
var pinnedLadder = map[string]LadderRow{
	"tbar_4 L=2":        {RunStates: 14_325, DirectState: 1_207},
	"bakery L=2":        {RunStates: 79_536, DirectState: 40_510},
	"peterson_4(2) L=1": {RunStates: 594_763, DirectState: 137_703},
	"peterson_0(3) L=2": {RunStates: 665_612, DirectState: 190_801},
}

// Correct reports whether every query got its reference verdict.
func (r *Result) Correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// fail records a failed query.
func (r *Result) fail(query string, err error) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", query, err))
	}
}

// set records a single-sample metric.
func (r *Result) set(name string, v float64) {
	m, _ := lookupMetric(name)
	r.Metrics[name] = MetricValue{Value: v, Unit: m.Unit, Q1: v, Median: v, Q3: v, N: 1}
}

// Run executes one benchmark run. An error means the run could not be
// carried out at all; failed queries are counted in the Result.
func Run(cfg Config) (*Result, error) {
	w, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.Workload, Workloads())
	}
	r := &Result{
		Stamp: NewStamp(), Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace,
		Toy: cfg.Toy, Seconds: cfg.Seconds, Metrics: map[string]MetricValue{},
	}
	cal := &calibrator{}
	if cfg.Trace {
		if err := runTraced(cfg, w, r, cal); err != nil {
			return nil, err
		}
	} else {
		measure := measureInProcess
		if w.service {
			measure = measureService
		}
		setups, passes, err := measure(cfg, w, r, cal)
		if err != nil {
			return nil, err
		}
		r.Passes, r.Queries = len(passes), len(passes[0].lat)
		endToEnd(r, setups, passes)
	}
	r.scaleTimes(cal)
	return r, nil
}

// scaleTimes converts every time of the result into reference seconds.
func (r *Result) scaleTimes(c *calibrator) {
	f := c.scale()
	r.TimeScale, r.CalibrationS, r.CalibrationN = f, Median(c.samples), len(c.samples)
	for name, v := range r.Metrics {
		k := f
		switch v.Unit {
		case "s", "ns":
		case "1/s":
			k = 1 / f
		default:
			continue
		}
		v.Value, v.Q1, v.Median, v.Q3 = v.Value*k, v.Q1*k, v.Median*k, v.Q3*k
		r.Metrics[name] = v
	}
	for layer := range r.SelfTime {
		r.SelfTime[layer] *= f
	}
}

// pass is what one pass over the queries measured.
type pass struct {
	lat  []float64 // per query, in input order
	wall float64
}

// morePasses reports whether another pass is expected to end inside
// the window, judging by the passes so far.
func morePasses(cfg Config, start time.Time, done int) bool {
	elapsed := time.Since(start).Seconds()
	return elapsed+elapsed/float64(done) <= cfg.Seconds
}

// outcome is one in-process query's result.
type outcome struct {
	seconds float64
	res     core.Result
	err     error
}

// runQuery runs one query through core.Run on a clone of its program.
func runQuery(q Query, opts core.Options) outcome {
	prog := q.Prog.Clone()
	ctx, cancel := context.WithTimeout(context.Background(), queryDeadline)
	defer cancel()
	opts.K, opts.Unroll, opts.Ctx = q.K, q.L, ctx
	start := time.Now()
	res, err := core.Run(prog, opts)
	return outcome{seconds: time.Since(start).Seconds(), res: res, err: err}
}

// check compares an outcome with the query's reference verdict.
func (o outcome) check(q Query) error {
	switch {
	case o.err != nil:
		return o.err
	case o.res.TimedOut || o.res.Verdict == core.Inconclusive:
		return fmt.Errorf("inconclusive (safety deadline %s)", queryDeadline)
	case (o.res.Verdict == core.Unsafe) != q.Unsafe:
		return fmt.Errorf("verdict %s, reference %s", o.res.Verdict, verdictName(q.Unsafe))
	case q.Unsafe && !o.res.WitnessValidated:
		return fmt.Errorf("UNSAFE without a validated witness: %s", o.res.WitnessErr)
	}
	return nil
}

func verdictName(unsafe bool) string {
	if unsafe {
		return "UNSAFE"
	}
	return "SAFE"
}

// measureInProcess sets up setupReps times (inputs, references and one
// warm-up query), then runs passes over the queries, one in flight.
// The heap is collected before each query, as if each ran in a fresh
// process. A query's state count must repeat every time it runs.
func measureInProcess(cfg Config, w workload, r *Result, cal *calibrator) ([]float64, []pass, error) {
	var in *Inputs
	var setups []float64
	for i := 0; i < setupReps; i++ {
		cal.sample()
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = w.inputs(cfg.Seed, cfg.Toy); err != nil {
			return nil, nil, err
		}
		if err := runQuery(*in.Warmup, core.Options{}).check(*in.Warmup); err != nil {
			return nil, nil, fmt.Errorf("warm-up %s: %w", in.Warmup.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	states := make([]int, len(in.Queries))
	var passes []pass
	start := time.Now()
	for len(passes) == 0 || morePasses(cfg, start, len(passes)) {
		p := pass{lat: make([]float64, len(in.Queries))}
		for i, q := range in.Queries {
			var lat []float64
			for total := 0.0; len(lat) < maxReps && (len(lat) == 0 || total < minQuerySeconds); {
				cal.sample()
				runtime.GC()
				o := runQuery(q, core.Options{})
				r.Attempted++
				err := o.check(q)
				if states[i] == 0 {
					states[i] = o.res.States
				} else if err == nil && o.res.States != states[i] {
					err = fmt.Errorf("explored %d states, %d the first time", o.res.States, states[i])
				}
				if err != nil {
					r.fail(q.Name, err)
				}
				lat = append(lat, o.seconds)
				total += o.seconds
			}
			p.lat[i] = Median(lat)
			p.wall += p.lat[i]
		}
		passes = append(passes, p)
	}
	return setups, passes, nil
}

// startEndpoint starts the service a run talks to: the vbmcd binary
// when one is configured, else in-process with an empty cache.
func startEndpoint(cfg Config) (*endpoint, error) {
	if cfg.Vbmcd != "" {
		return startDaemon(cfg.Vbmcd, cfg.WorkDir)
	}
	return startInProcess(nil)
}

// measureService runs passes of the request sequence, each against a
// fresh service with an empty cache. Set-up is generating the inputs
// and references and starting the service, once per pass.
func measureService(cfg Config, w workload, r *Result, cal *calibrator) ([]float64, []pass, error) {
	var setups []float64
	var passes []pass
	start := time.Now()
	for len(passes) == 0 || morePasses(cfg, start, len(passes)) {
		cal.sample()
		t := time.Now()
		in, err := w.inputs(cfg.Seed, cfg.Toy)
		if err != nil {
			return nil, nil, err
		}
		ep, err := startEndpoint(cfg)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		replies, wall := drive(ep.url, in.Queries, conns)
		if _, err := ep.stop(); err != nil {
			return nil, nil, err
		}
		p := pass{lat: make([]float64, len(replies)), wall: wall}
		for i, rep := range replies {
			r.Attempted++
			if err := rep.check(in.Queries[i]); err != nil {
				r.fail(in.Queries[i].Name, err)
			}
			p.lat[i] = rep.latency
		}
		passes = append(passes, p)
	}
	return setups, passes, nil
}

// endToEnd derives the end-to-end metrics. Each query's latency is its
// median over the passes; wall_s is the median pass and setup_s the
// median set-up.
func endToEnd(r *Result, setups []float64, passes []pass) {
	n := len(passes[0].lat)
	perQuery := make([]float64, n)
	for i := range perQuery {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.lat[i])
		}
		perQuery[i] = Median(xs)
	}
	derive := func(lat []float64, wall float64) map[string]float64 {
		return map[string]float64{
			"wall_s":            wall,
			"throughput_qps":    float64(n) / wall,
			"verdict_s_geomean": Geomean(lat),
			"latency_p50_s":     Percentile(lat, 50),
			"latency_p95_s":     Percentile(lat, 95),
		}
	}
	var walls []float64
	perPass := map[string][]float64{"setup_s": setups}
	for _, p := range passes {
		walls = append(walls, p.wall)
		for name, v := range derive(p.lat, p.wall) {
			perPass[name] = append(perPass[name], v)
		}
	}
	values := derive(perQuery, Median(walls))
	values["setup_s"] = Median(setups)
	for _, m := range EndToEnd {
		q1, med, q3 := Quartiles(perPass[m.Name])
		r.Metrics[m.Name] = MetricValue{Value: values[m.Name], Unit: m.Unit,
			Q1: q1, Median: med, Q3: q3, N: len(perPass[m.Name])}
	}
}

// selfPeakRSS is this process's peak resident set in MB.
func selfPeakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
