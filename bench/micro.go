package bench

import (
	"fmt"
	"runtime"
	"time"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/core"
	"ravbmc/internal/fp"
	"ravbmc/internal/lang"
	"ravbmc/internal/ra"
	"ravbmc/internal/replay"
	"ravbmc/internal/sc"
)

// microStates is the size of the fixed inputs of the search-layer
// measurements (toyMicroStates for toy runs).
const (
	microStates    = 20_000
	toyMicroStates = 500
)

// microReps repeats each timing loop; the median is reported.
const microReps = 3

// witnessReps is how often one timing loop lifts and replays the fixed
// witness.
const witnessReps = 200

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink int

// timeLoop runs f microReps times and returns the median nanoseconds
// and heap allocations per item over n items.
func timeLoop(n int, f func()) (ns, allocs float64) {
	var nss, as []float64
	for i := 0; i < microReps; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		f()
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d.Nanoseconds())/float64(n))
		as = append(as, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return Median(nss), Median(as)
}

// microLayers times the engines' inner operations over fixed inputs,
// identical for every workload: translated peterson_4(2) (K=2, L=1)
// configurations collected by breadth-first search over
// sc.System.MacroSteps, peterson_4(2) RA configurations collected over
// ra.System.AllSuccessors, and the witness of peterson_0 (K=2, L=2),
// lifted and replayed.
func microLayers(r *Result, toy bool) error {
	if err := witnessLayers(r); err != nil {
		return err
	}
	size := microStates
	if toy {
		size = toyMicroStates
	}
	prog, err := benchmarks.ByName("peterson_4(2)")
	if err != nil {
		return err
	}
	src := lang.EnsureLabels(lang.Unroll(prog, 1))
	translated, err := core.Translate(src, 2)
	if err != nil {
		return err
	}
	cp, err := lang.Compile(translated)
	if err != nil {
		return err
	}
	sys := sc.NewSystem(cp)
	var configs []*sc.Config
	var keys [][]byte
	seen := map[string]bool{}
	for frontier := sys.InitialConfigs(); len(frontier) > 0 && len(configs) < size; frontier = frontier[1:] {
		c := frontier[0]
		key := sys.DedupKey(c, nil)
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		configs, keys = append(configs, c), append(keys, key)
		for p := range cp.Procs {
			frontier = append(frontier, sys.MacroSteps(c, p)...)
		}
	}
	n := len(configs)
	ns, allocs := timeLoop(n, func() {
		for _, c := range configs {
			for p := range cp.Procs {
				sink += len(sys.MacroSteps(c, p))
			}
		}
	})
	r.set("sc.succ_ns", ns)
	r.set("sc.succ_allocs", allocs)
	buf := make([]byte, 0, 512)
	ns, _ = timeLoop(n, func() {
		for _, c := range configs {
			buf = sys.DedupKey(c, buf[:0])
		}
		sink += len(buf)
	})
	r.set("sc.key_ns", ns)
	var set *fp.Set
	ns, _ = timeLoop(n, func() {
		set = fp.NewSet(false)
		for _, k := range keys {
			set.Visit(k, 0)
		}
	})
	r.set("fp.insert_ns", ns)
	ns, _ = timeLoop(n, func() {
		for _, k := range keys {
			if set.Visit(k, 0) {
				sink++
			}
		}
	})
	r.set("fp.hit_ns", ns)

	rcp, err := lang.Compile(lang.Unroll(prog, 1))
	if err != nil {
		return err
	}
	rsys := ra.NewSystem(rcp)
	var rconfigs []*ra.Config
	rseen := map[string]bool{}
	for frontier := []*ra.Config{rsys.Init()}; len(frontier) > 0 && len(rconfigs) < size; frontier = frontier[1:] {
		c := frontier[0]
		key := string(rsys.AppendDedupKey(c, nil))
		if rseen[key] {
			continue
		}
		rseen[key] = true
		rconfigs = append(rconfigs, c)
		for _, s := range rsys.AllSuccessors(c) {
			if !s.Violation {
				frontier = append(frontier, s.Config)
			}
		}
	}
	ns, _ = timeLoop(len(rconfigs), func() {
		for _, c := range rconfigs {
			sink += len(rsys.AllSuccessors(c))
		}
	})
	r.set("ra.succ_ns", ns)
	ns, _ = timeLoop(len(rconfigs), func() {
		for _, c := range rconfigs {
			buf = rsys.AppendDedupKey(c, buf[:0])
		}
		sink += len(buf)
	})
	r.set("ra.key_ns", ns)
	return nil
}

// witnessLayers times core.Lift and replay.Run on one fixed witness.
// Per witness rather than per pass: the SAFE workloads have none.
func witnessLayers(r *Result) error {
	prog, err := benchmarks.ByName("peterson_0")
	if err != nil {
		return err
	}
	src := lang.EnsureLabels(lang.Unroll(prog, 2))
	res, err := core.Run(prog.Clone(), core.Options{K: 2, Unroll: 2})
	if err != nil {
		return err
	}
	if res.Trace == nil {
		return fmt.Errorf("peterson_0 produced no witness")
	}
	acts, err := core.Lift(src, res.Trace)
	if err != nil {
		return err
	}
	ns, _ := timeLoop(witnessReps, func() {
		for i := 0; i < witnessReps; i++ {
			a, _ := core.Lift(src, res.Trace)
			sink += len(a)
		}
	})
	r.set("core.lift_s", ns/1e9)
	var replayErr error
	ns, _ = timeLoop(witnessReps, func() {
		for i := 0; i < witnessReps; i++ {
			if _, err := replay.Run(src, acts, replay.Options{}); err != nil {
				replayErr = err
			}
		}
	})
	r.set("replay.run_s", ns/1e9)
	return replayErr
}
