package bench

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"ravbmc/internal/cache"
	"ravbmc/internal/core"
	"ravbmc/internal/lang"
	"ravbmc/internal/obs"
	"ravbmc/internal/sc"
	"ravbmc/internal/trace"
)

// runTraced runs the workload's distinct engine queries once untraced
// and once under an obs.NewTracing recorder, with the benchmark's own
// spans around each layer call, then measures the layers the pass does
// not isolate: direct SC searches, fixed-input successor/key/visited-set
// costs, and the service layers (a vbmcd pass for the service workload,
// an in-process service answering the workload's queries from a filled
// cache for the others).
func runTraced(cfg Config, w workload, r *Result, cal *calibrator) error {
	in, err := w.inputs(cfg.Seed, cfg.Toy)
	if err != nil {
		return err
	}
	r.set("ra.oracle_s", in.OracleSeconds)
	qs := in.Queries
	var replies []reply
	var scraped map[string]float64
	if w.service {
		cal.sample()
		ep, err := startEndpoint(cfg)
		if err != nil {
			return err
		}
		replies, _ = drive(ep.url, qs, conns)
		scraped, err = scrape(ep.url)
		rss, stopErr := ep.stop()
		if err != nil {
			return err
		}
		if stopErr != nil {
			return stopErr
		}
		r.set("proc.peak_rss_mb", rss)
		qs = distinct(qs)
	} else if err := runQuery(*in.Warmup, core.Options{}).check(*in.Warmup); err != nil {
		return fmt.Errorf("warm-up %s: %w", in.Warmup.Name, err)
	}
	r.Passes, r.Queries = 1, len(qs)

	// Each query runs untraced and traced back to back, in alternating
	// order, so that the host's drift cancels out of obs.trace_overhead.
	drv := obs.NewTracing()
	untraced := make([]outcome, len(qs))
	traced := make([]outcome, len(qs))
	tiers := map[int64]int{}
	for i, q := range qs {
		for j := 0; j < 2; j++ {
			cal.sample()
			runtime.GC()
			if (i+j)%2 == 0 {
				untraced[i] = runQuery(q, core.Options{})
			} else {
				var tier int64
				traced[i], tier = traceQuery(drv, q)
				tiers[tier]++
			}
		}
		r.Attempted += 2
		if err := untraced[i].check(q); err != nil {
			r.fail(q.Name, err)
		}
		err := traced[i].check(q)
		if err == nil && traced[i].res.States != untraced[i].res.States {
			err = fmt.Errorf("traced run explored %d states, untraced %d", traced[i].res.States, untraced[i].res.States)
		}
		if err != nil {
			r.fail(q.Name, err)
		}
	}
	if !w.service {
		// Before the direct searches and fixed inputs below, which hold
		// more memory than any query of the pass.
		r.set("proc.peak_rss_mb", selfPeakRSS())
	}
	roots := drv.Spans()
	r.spans = roots
	layerMetrics(r, roots, traced, untraced, tiers, drv)
	if err := directSearches(r, qs, traced); err != nil {
		return err
	}
	if err := microLayers(r, cfg.Toy); err != nil {
		return err
	}
	var runSecs []float64
	for _, o := range untraced {
		runSecs = append(runSecs, o.seconds)
	}
	if !w.service {
		ep, err := startInProcess(prefill(qs, untraced))
		if err != nil {
			return err
		}
		replies, _ = drive(ep.url, qs, conns)
		scraped, err = scrape(ep.url)
		_, stopErr := ep.stop()
		if err != nil {
			return err
		}
		if stopErr != nil {
			return stopErr
		}
	}
	serviceLayers(r, in.Queries, replies, scraped, Percentile(runSecs, 50))
	r.set("proc.gc_cpu_frac", gcCPUFraction())
	return nil
}

// distinct keeps the first query of each name.
func distinct(qs []Query) []Query {
	seen := map[string]bool{}
	var out []Query
	for _, q := range qs {
		if !seen[q.Name] {
			seen[q.Name] = true
			out = append(out, q)
		}
	}
	return out
}

// traceQuery runs one query with a span around each layer the pipeline
// crosses: the lang front end (validate, unroll and label, canonical
// form, compile), the translation, and core.Run itself, whose own phase
// spans (probe rungs, final search, witness lift and replay) nest
// beneath. It returns the outcome and the probe tier that found the bug
// (1 or 2; -1 for the final search, 0 for SAFE).
func traceQuery(drv *obs.Recorder, q Query) (outcome, int64) {
	root := drv.StartPhase("query")
	root.SetAttr("query", q.Name)
	defer root.End()
	stage := func(name string, f func() error) error {
		s := drv.StartPhase(name)
		defer s.End()
		return f()
	}
	prog := q.Prog.Clone()
	src := prog
	var translated *lang.Program
	err := stage("lang.validate", prog.ValidateRA)
	if err == nil {
		err = stage("lang.unroll", func() error {
			if lang.MaxLoopDepth(prog) > 0 {
				src = lang.Unroll(prog, q.L)
			}
			src = lang.EnsureLabels(src)
			return nil
		})
	}
	if err == nil {
		err = stage("lang.canon", func() error { lang.Canon(prog); return nil })
	}
	if err == nil {
		err = stage("core.translate", func() (err error) {
			translated, err = core.Translate(src, q.K)
			return err
		})
	}
	if err == nil {
		err = stage("lang.compile", func() error {
			_, err := lang.Compile(translated)
			return err
		})
	}
	if err != nil {
		return outcome{err: err}, 0
	}
	hits := drv.Counter("core.probe_hits").Value()
	var o outcome
	stage("core.run", func() error {
		o = runQuery(q, core.Options{Obs: drv})
		return nil
	})
	var tier int64
	switch {
	case drv.Counter("core.probe_hits").Value() > hits:
		tier = drv.Gauge("core.probe_hit_tier").Value()
	case o.res.Verdict == core.Unsafe:
		tier = -1
	}
	return o, tier
}

// layerOf maps a span name to its layer: the benchmark's own spans are
// named "<layer>.<call>", core.Run's phases are named after the
// pipeline stage.
func layerOf(name string) string {
	switch {
	case name == "query":
		return "bench"
	case name == "sc.check":
		return "sc"
	case name == "replay" || strings.HasPrefix(name, "replay."):
		return "replay"
	case name == "validate" || name == "unroll" || strings.HasPrefix(name, "lang.") || strings.HasSuffix(name, ".compile"):
		return "lang"
	case name == "tmai":
		return "tmai"
	}
	return "core"
}

// layerMetrics derives the lang, core and replay metrics of the traced
// pass from its span forest and counters.
func layerMetrics(r *Result, roots []*obs.SpanNode, traced, untraced []outcome, tiers map[int64]int, drv *obs.Recorder) {
	total := map[string]float64{}
	r.SelfTime = map[string]float64{}
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		self := n.DurUS
		for _, c := range n.Children {
			self -= c.DurUS
			walk(c)
		}
		total[n.Name] += float64(n.DurUS) / 1e6
		r.SelfTime[layerOf(n.Name)] += float64(self) / 1e6
	}
	for _, n := range roots {
		walk(n)
	}
	var probe, final float64
	for name, secs := range total {
		switch {
		case strings.HasPrefix(name, "probe"):
			probe += secs
		case name == "translate" || strings.HasPrefix(name, "final."):
			final += secs
		}
	}
	for metric, span := range map[string]string{
		"lang.validate_s": "lang.validate", "lang.unroll_s": "lang.unroll",
		"lang.compile_s": "lang.compile", "lang.canon_s": "lang.canon",
		"core.translate_s": "core.translate", "core.run_s": "core.run",
	} {
		r.set(metric, total[span])
	}
	r.set("core.probe_s", probe)
	r.set("core.final_s", final)
	for _, layer := range []string{"lang", "core", "sc"} {
		r.set(layer+".self_s", r.SelfTime[layer])
	}
	var states int
	var tracedSecs, untracedSecs float64
	for i := range traced {
		states += traced[i].res.States
		tracedSecs += traced[i].seconds
		untracedSecs += untraced[i].seconds
	}
	r.set("core.states", float64(states))
	r.set("core.deepen_rounds", float64(drv.Counter("core.deepen_rounds").Value()))
	r.set("core.probe1_hits", float64(tiers[1]))
	r.set("core.probe2_hits", float64(tiers[2]))
	r.set("core.final_hits", float64(tiers[-1]))
	r.set("obs.trace_overhead", tracedSecs/untracedSecs-1)
}

// direct is one search of a query's full translation at the paper's
// K+n context bound, with no probes and no deepening.
type direct struct {
	res           sc.Result
	seconds       float64
	bytes, allocs uint64
}

// searchDirect runs the direct search of q, measuring its heap
// allocation.
func searchDirect(q Query) (direct, error) {
	src := q.Prog
	if lang.MaxLoopDepth(src) > 0 {
		src = lang.Unroll(src, q.L)
	}
	translated, err := core.Translate(lang.EnsureLabels(src), q.K)
	if err != nil {
		return direct{}, err
	}
	cp, err := lang.Compile(translated)
	if err != nil {
		return direct{}, err
	}
	sys := sc.NewSystem(cp)
	ctx, cancel := context.WithTimeout(context.Background(), queryDeadline)
	defer cancel()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res := sys.Check(sc.Options{MaxContexts: q.K + len(q.Prog.Procs), Ctx: ctx})
	d := direct{res: res, seconds: time.Since(start).Seconds()}
	runtime.ReadMemStats(&m1)
	d.bytes, d.allocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	switch {
	case res.TimedOut || (!res.Violation && !res.Exhausted):
		err = fmt.Errorf("direct search inconclusive")
	case res.Violation != q.Unsafe:
		err = fmt.Errorf("direct search says violation=%v, reference %s", res.Violation, verdictName(q.Unsafe))
	}
	return d, err
}

// directSearches searches each direct query once without the ladder:
// the SC backend's per-state cost, and how many states core.Run
// explores per state of the one search that decides the query.
func directSearches(r *Result, qs []Query, runs []outcome) error {
	var secs float64
	var states, runStates int
	var bytes, allocs uint64
	for i, q := range qs {
		if !q.Direct {
			continue
		}
		d, err := searchDirect(q)
		r.Attempted++
		if err != nil {
			r.fail(q.Name, err)
		}
		secs += d.seconds
		states += d.res.States
		runStates += runs[i].res.States
		bytes += d.bytes
		allocs += d.allocs
		if len(qs) <= 16 {
			r.Ladder = append(r.Ladder, LadderRow{Query: q.Name, RunStates: runs[i].res.States, DirectState: d.res.States})
		}
	}
	if states == 0 {
		return fmt.Errorf("no direct searches in workload %s", r.Workload)
	}
	r.set("sc.search_s", secs)
	r.set("sc.search_states", float64(states))
	r.set("sc.ns_per_state", secs*1e9/float64(states))
	r.set("sc.bytes_per_state", float64(bytes)/float64(states))
	r.set("sc.allocs_per_state", float64(allocs)/float64(states))
	r.set("core.ladder_overhead", float64(runStates)/float64(states))
	return nil
}

// prefill stores each query's untraced outcome in the cache, so the
// in-process service answers the workload's queries as cache hits.
func prefill(qs []Query, runs []outcome) func(*cache.Cache) error {
	return func(c *cache.Cache) error {
		for i, q := range qs {
			o := runs[i]
			out := cache.Outcome{Verdict: o.res.Verdict.String(), States: o.res.States,
				WitnessValidated: o.res.WitnessValidated, Seconds: o.seconds}
			if o.res.Witness != nil {
				var buf bytes.Buffer
				if err := o.res.Witness.WriteJSONL(&buf, trace.Meta{Program: q.Prog.Name, Engine: "replay", K: q.K}); err != nil {
					return err
				}
				out.WitnessJSONL = buf.Bytes()
			}
			req := cache.Request{Prog: q.Prog.Clone(), Mode: cache.ModeVBMC, K: q.K, Unroll: q.L}
			if _, err := c.Do(context.Background(), req, func(context.Context, cache.Request) (cache.Outcome, error) {
				return out, nil
			}); err != nil {
				return err
			}
		}
		return nil
	}
}

// serviceLayers derives the cache and serve metrics from the replies
// and a /metrics scrape taken after the last of them. missEngine stands
// in for cache.miss_engine_s when no reply was computed by the service.
func serviceLayers(r *Result, qs []Query, replies []reply, scraped map[string]float64, missEngine float64) {
	var hits, subsumed int
	var handler, transport, engine []float64
	for i, rep := range replies {
		r.Attempted++
		if err := rep.check(qs[i]); err != nil {
			r.fail(qs[i].Name, err)
			continue
		}
		switch {
		case rep.resp.Subsumed:
			subsumed++
		case rep.resp.Cached:
			hits++
		case !rep.resp.Collapsed:
			engine = append(engine, rep.resp.Seconds)
		}
		handler = append(handler, rep.resp.ElapsedSeconds)
		transport = append(transport, rep.latency-rep.resp.ElapsedSeconds)
	}
	if len(engine) > 0 {
		missEngine = Percentile(engine, 50)
	}
	n := float64(len(replies))
	r.set("cache.hit_ratio", float64(hits)/n)
	r.set("cache.subsumed_ratio", float64(subsumed)/n)
	r.set("cache.miss_engine_s", missEngine)
	r.set("cache.lookup_s", histMean(scraped, "ravbmc_cache_lookup_seconds"))
	r.set("serve.handler_s", Percentile(handler, 50))
	r.set("serve.transport_s", Percentile(transport, 50))
	r.set("serve.queue_wait_s", histMean(scraped, "ravbmc_serve_queue_wait_seconds"))
}

// gcCPUFraction is the share of this process's CPU time spent in the
// garbage collector, as the runtime estimates it.
func gcCPUFraction() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[1].Value.Kind() != metrics.KindFloat64 || s[1].Value.Float64() == 0 {
		return 0
	}
	return s[0].Value.Float64() / s[1].Value.Float64()
}
