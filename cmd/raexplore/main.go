// Command raexplore runs a program directly under the RA operational
// semantics: either the exhaustive (optionally view-bounded) explorer,
// or one of the stateless-model-checking baselines (tracer, cdsc, rcmc,
// random).
//
// Usage:
//
//	raexplore -file prog.ra -mode exhaustive [-view-bound 2]
//	raexplore -bench peterson_0 -mode tracer -l 2 -timeout 30s
//	raexplore -bench peterson_0 -mode exhaustive -json
//	raexplore -bench peterson_0 -mode exhaustive -progress
//	raexplore -bench peterson_0 -trace-out w.jsonl -trace-format jsonl
//
// The traces raexplore exports are RA-level already (no translation is
// involved); -trace-out additionally captures per-event view snapshots.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ravbmc"
	"ravbmc/internal/benchmarks"
	"ravbmc/internal/obs"
	"ravbmc/internal/trace"
	"ravbmc/internal/version"
)

func main() {
	var (
		file       = flag.String("file", "", "program source file")
		bench      = flag.String("bench", "", "built-in benchmark name")
		mode       = flag.String("mode", "exhaustive", "exhaustive | tracer | cdsc | rcmc | random | robust | tmai")
		vb         = flag.Int("view-bound", -1, "view-switch bound for exhaustive mode (-1 = unbounded)")
		l          = flag.Int("l", 2, "loop unrolling bound")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget (0 = none)")
		showTr     = flag.Bool("trace", false, "print the counterexample trace")
		walks      = flag.Int("walks", 1000, "random mode: number of walks")
		exactDedup = flag.Bool("exact-dedup", false, "exhaustive mode: exact state keys in the visited set instead of 64-bit fingerprints")
		swWorkers  = flag.Int("workers", 0, "exhaustive mode: work-stealing workers (0 and 1 = one depth-first worker, negative = all CPUs); the verdict is identical at any width")
		stateDedup = flag.Bool("state-dedup", false, "tracer/cdsc/rcmc modes: prune states already fully explored (stateful DFS with state hashing)")
		jsonOut    = flag.Bool("json", false, "emit a JSON run report on stdout instead of the summary line")
		progress   = flag.Bool("progress", false, "print periodic live progress snapshots to stderr")
		progressIv = flag.Duration("progress-interval", time.Second, "interval between -progress snapshots")
		traceOut   = flag.String("trace-out", "", "write the counterexample trace to this file")
		traceFmt   = flag.String("trace-format", "jsonl", "trace export format: jsonl | chrome | text")
		showVer    = flag.Bool("version", false, "print the toolchain version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println(version.String())
		return
	}

	prog, err := load(*file, *bench)
	if err != nil {
		fail(err)
	}
	format, err := trace.ParseFormat(*traceFmt)
	if err != nil {
		fail(err)
	}
	rec := obs.New()
	// progressStop runs before every exit path; main os.Exit()s directly
	// on violations, so a defer alone would be skipped. Stop is
	// idempotent and nil-safe.
	if *progress {
		p := obs.NewProgress(os.Stderr, rec, *progressIv)
		rec.SetSink(p)
		progressStop = p.Stop
	}
	defer progressStop()

	if *mode == "tmai" {
		// Thread-modular abstract interpretation: a SAFE here is
		// unbounded (every K, every L — loops need no unrolling), an
		// UNKNOWN is the abstraction giving up, never a bug.
		res := ravbmc.TMAI(prog, ravbmc.TMAIOptions{})
		verdict := "UNKNOWN"
		if res.Verdict == ravbmc.TMAISafe {
			verdict = "SAFE"
		}
		if *jsonOut {
			emitJSON(rec, *mode, prog.Name, verdict, *l)
		} else if res.Verdict == ravbmc.TMAISafe {
			fmt.Printf("%s: SAFE (unbounded: holds for every K, %d interference rounds)\n", prog.Name, res.Rounds)
		} else {
			fmt.Printf("%s: UNKNOWN (%s)\n", prog.Name, res.Detail)
		}
		return
	}

	if *mode == "robust" {
		res, err := ravbmc.CheckRobustness(prog, *l)
		if err != nil {
			fail(err)
		}
		verdict := "ROBUST"
		if !res.Robust {
			verdict = "NOT ROBUST"
		}
		if *jsonOut {
			emitJSON(rec, *mode, prog.Name, verdict, *l)
		} else if res.Robust {
			fmt.Printf("%s: ROBUST (%d outcomes under RA and SC)\n", prog.Name, res.SCOutcomes)
		} else {
			fmt.Printf("%s: NOT ROBUST (%d RA vs %d SC outcomes)\n", prog.Name, res.RAOutcomes, res.SCOutcomes)
			for _, o := range res.WeakOutcomes {
				fmt.Println("  weak:", o)
			}
		}
		if !res.Robust {
			progressStop()
			os.Exit(1)
		}
		return
	}

	// View snapshots cost an allocation per successor, so capture them
	// only when the trace is exported.
	capture := *traceOut != ""

	var violation, exhausted, timedOut bool
	var states int
	var transitions int64
	var tr *trace.Trace
	if *mode == "exhaustive" {
		src := ravbmc.Unroll(prog, *l)
		opts := ravbmc.ExploreOptions{
			ViewBound: *vb, StopOnViolation: true, ExactDedup: *exactDedup,
			Workers: *swWorkers, Obs: rec, CaptureViews: capture,
		}
		if *timeout > 0 {
			opts.Deadline = time.Now().Add(*timeout)
		}
		res, err := ravbmc.ExploreRA(src, opts)
		if err != nil {
			fail(err)
		}
		violation, exhausted, timedOut = res.Violation, res.Exhausted, res.TimedOut
		states, transitions, tr = res.States, int64(res.Transitions), res.Trace
	} else {
		alg, ok := map[string]ravbmc.SMCAlgorithm{
			"tracer": ravbmc.AlgorithmTracer,
			"cdsc":   ravbmc.AlgorithmCDS,
			"rcmc":   ravbmc.AlgorithmRCMC,
			"random": ravbmc.AlgorithmRandom,
		}[*mode]
		if !ok {
			fail(fmt.Errorf("unknown mode %q", *mode))
		}
		res, err := ravbmc.SMC(prog, ravbmc.SMCOptions{
			Algorithm: alg, Unroll: *l, Timeout: *timeout, Walks: *walks,
			StateDedup: *stateDedup, Obs: rec, CaptureViews: capture,
		})
		if err != nil {
			fail(err)
		}
		violation, exhausted, timedOut = res.Violation, res.Exhausted, res.TimedOut
		states, transitions, tr = res.Executions, res.Transitions, res.Trace
	}

	verdict := "SAFE"
	switch {
	case violation:
		verdict = "UNSAFE"
	case timedOut:
		verdict = "T.O"
	case !exhausted:
		verdict = "INCONCLUSIVE"
	}
	if *jsonOut {
		emitJSON(rec, *mode, prog.Name, verdict, *l)
	} else {
		fmt.Printf("%s: %s (%d states/executions, %d transitions)\n", prog.Name, verdict, states, transitions)
	}
	if violation && tr != nil {
		if *showTr {
			fmt.Print(tr)
		}
		if *traceOut != "" {
			meta := trace.Meta{Program: prog.Name, Engine: "ra"}
			if err := tr.WriteFile(*traceOut, format, meta); err != nil {
				fail(err)
			}
		}
	}
	if violation {
		progressStop()
		os.Exit(1)
	}
}

// progressStop retires the -progress printer; exit paths call it before
// os.Exit so the last snapshot line is not cut mid-write.
var progressStop = func() {}

// emitJSON prints the structured run report, identified like the vbmc
// one so BENCH sweeps can mix tools.
func emitJSON(rec *obs.Recorder, mode, bench, verdict string, l int) {
	rep := rec.Report()
	rep.Tool = "raexplore:" + mode
	rep.Bench = bench
	rep.Verdict = verdict
	rep.L = l
	os.Stdout.Write(append(rep.JSON(), '\n'))
}

func load(file, bench string) (*ravbmc.Program, error) {
	switch {
	case file != "" && bench != "":
		return nil, fmt.Errorf("give either -file or -bench, not both")
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return ravbmc.Parse(string(src))
	case bench != "":
		return benchmarks.ByName(bench)
	}
	return nil, fmt.Errorf("one of -file or -bench is required")
}

func fail(err error) {
	progressStop()
	fmt.Fprintln(os.Stderr, "raexplore:", err)
	os.Exit(3)
}
