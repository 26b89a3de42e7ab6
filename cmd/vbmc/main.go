// Command vbmc is the view-bounded model checker of the paper: it takes
// a concurrent program in the language of internal/lang (or the name of
// a built-in benchmark), translates it to SC under the view bound K, and
// model-checks the translation with the context-bounded backend.
//
// Usage:
//
//	vbmc -k 2 -l 2 -file prog.ra [-trace] [-contexts N] [-timeout 60s]
//	vbmc -k 2 -l 2 -bench peterson_0(3)
//	vbmc -k 2 -l 2 -bench peterson_0(3) -json          # machine-readable run report
//	vbmc -k 2 -l 2 -bench dekker -trace-out w.jsonl    # export the validated witness
//	vbmc -k 2 -l 2 -bench dekker -trace-out w.json -trace-format chrome
//	vbmc -k 2 -l 2 -bench peterson_0(3) -progress      # live snapshots on stderr
//	vbmc -k 2 -l 2 -bench peterson_0(3) -cpuprofile cpu.pprof
//	vbmc -auto-k 4 -jobs 4 -bench dekker               # probe K=0..4 concurrently
//	vbmc -k 2 -l 2 -bench dekker -portfolio            # cross-check all engines
//
// On UNSAFE the witness is the source-level RA trace: the backend's
// counterexample on the translated program, lifted back to the source
// statements and re-executed (validated) under the RA operational
// semantics. -trace prints it, -trace-out exports it (jsonl, chrome
// trace-event, or text; see docs/WITNESS.md).
//
// Exit codes:
//
//	0  SAFE
//	1  UNSAFE
//	2  INCONCLUSIVE (state cap or timeout hit before covering the space)
//	3  usage or input error (bad flags, unreadable file, parse or
//	   validation failure)
//	4  portfolio disagreement (-portfolio only): two engines produced
//	   contradictory verdicts, i.e. one of them has a bug
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ravbmc"
	"ravbmc/internal/benchmarks"
	"ravbmc/internal/core"
	"ravbmc/internal/diff"
	"ravbmc/internal/obs"
	"ravbmc/internal/trace"
	"ravbmc/internal/version"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred profile writers run before
// the process exits.
func run() int {
	var (
		k          = flag.Int("k", 2, "view-switch budget K")
		l          = flag.Int("l", 2, "loop unrolling bound L")
		file       = flag.String("file", "", "program source file")
		bench      = flag.String("bench", "", "built-in benchmark name, e.g. peterson_1(4)")
		showTr     = flag.Bool("trace", false, "print the counterexample witness trace")
		summary    = flag.Bool("summary", false, "print the RA-level summary of the counterexample")
		traceOut   = flag.String("trace-out", "", "write the witness trace to this file")
		traceFmt   = flag.String("trace-format", "jsonl", "witness export format: jsonl | chrome | text")
		contexts   = flag.Int("contexts", 0, "SC context bound (0 = K+n, negative = unbounded)")
		exactDedup = flag.Bool("exact-dedup", false, "use exact state keys in the visited set instead of 64-bit fingerprints")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget (0 = none)")
		emit       = flag.Bool("emit", false, "print the translated SC program instead of checking")
		autoK      = flag.Int("auto-k", -1, "search for the minimal K up to this bound instead of using -k")
		jobs       = flag.Int("jobs", 0, "concurrent runs for -auto-k and -portfolio (0 = all CPUs, 1 = serial)")
		portfolio  = flag.Bool("portfolio", false, "run every engine on the program and cross-check the verdicts")
		jsonOut    = flag.Bool("json", false, "emit a JSON run report on stdout instead of the summary line")
		progress   = flag.Bool("progress", false, "print periodic live progress snapshots to stderr")
		progressIv = flag.Duration("progress-interval", time.Second, "interval between -progress snapshots")
		watch      = flag.Bool("watch", false, "redraw a live search dashboard on stderr (supersedes -progress)")
		sampleIv   = flag.Duration("sample-interval", 0, "search-telemetry sampling cadence (0 = off; -watch defaults to 250ms); sampled series lands in the -json report")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
		spanOut    = flag.String("span-out", "", "write the run's span tree (phase tracing) to this file")
		spanFmt    = flag.String("span-format", "jsonl", "span export format: jsonl | chrome")
		remote     = flag.String("remote", "", "vbmcd base URL (e.g. http://127.0.0.1:8080): verify via the daemon's cache instead of locally")
		showVer    = flag.Bool("version", false, "print the toolchain version and exit")
		eng        ravbmc.VBMCEngine
	)
	eng.RegisterFlags(flag.CommandLine, "workers")
	// Parse manually so flag errors exit 3 (usage error) rather than the
	// flag package's default 2, which would collide with INCONCLUSIVE.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 3
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *showVer {
		fmt.Println(version.String())
		return 0
	}
	if *remote != "" {
		if err := checkRemoteFlags(set); err != nil {
			return fail(err)
		}
		return runRemote(remoteOptions{
			base: *remote, file: *file, bench: *bench, portfolio: *portfolio,
			k: *k, l: *l, autoK: *autoK, contexts: *contexts,
			exactDedup: *exactDedup, timeout: *timeout,
			jsonOut: *jsonOut, showTrace: *showTr, traceOut: *traceOut, traceFmt: *traceFmt,
			watch: *watch,
		})
	}

	prog, err := load(*file, *bench)
	if err != nil {
		return fail(err)
	}
	if *emit {
		unrolled := ravbmc.Unroll(prog, *l)
		translated, err := ravbmc.Translate(unrolled, *k)
		if err != nil {
			return fail(err)
		}
		fmt.Print(translated)
		return 0
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vbmc:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vbmc:", err)
			}
		}()
	}

	rec := obs.New()
	if *spanOut != "" {
		// Tracing retains the span tree; the plain recorder only keeps
		// phase totals.
		rec = obs.NewTracing()
		defer func() {
			meta := obs.SpanMeta{Tool: "vbmc", Program: prog.Name}
			if err := obs.WriteSpansFile(*spanOut, *spanFmt, meta, rec.Spans()); err != nil {
				fmt.Fprintln(os.Stderr, "vbmc:", err)
			}
		}()
	}
	if *progress && !*watch {
		p := obs.NewProgress(os.Stderr, rec, *progressIv)
		rec.SetSink(p) // phase transitions print immediately, not just on ticks
		defer p.Stop()
	}
	// The sampler runs whenever a cadence is configured; -watch implies
	// one and additionally renders the samples as an in-place dashboard.
	interval := *sampleIv
	if *watch && interval <= 0 {
		interval = 250 * time.Millisecond
	}
	var smp *obs.Sampler
	watchDone := make(chan struct{})
	if interval > 0 {
		smp = obs.NewSampler(rec, interval)
		if *watch {
			ch, _ := smp.Subscribe(16)
			go func() {
				defer close(watchDone)
				w := obs.NewWatch(os.Stderr)
				for p := range ch {
					w.Update(p)
				}
			}()
		} else {
			close(watchDone)
		}
	} else {
		close(watchDone)
	}
	// stopSampling is idempotent; it runs before the report is rendered
	// (so the series is final) and again on early-exit paths via defer.
	stopSampling := func() {
		smp.Stop()
		<-watchDone
	}
	defer stopSampling()

	if *portfolio {
		rep := diff.Run(prog, diff.Options{
			K: *k, Unroll: *l, Timeout: *timeout, Jobs: *jobs,
		})
		fmt.Print(rep.Render())
		if !rep.Agree() {
			return 4
		}
		switch rep.Verdict() {
		case diff.Unsafe:
			return 1
		case diff.Safe:
			return 0
		}
		return 2
	}

	start := time.Now()
	opts := ravbmc.VBMCOptions{
		K: *k, Unroll: *l, MaxContexts: *contexts, Timeout: *timeout,
		ExactDedup: *exactDedup, Engine: eng, Obs: rec,
	}
	var res ravbmc.VBMCResult
	if *autoK >= 0 {
		var kFound int
		kFound, res, err = core.FindMinKParallel(context.Background(), prog, *autoK, opts, *jobs)
		if err != nil {
			return fail(err)
		}
		*k = kFound
	} else {
		res, err = ravbmc.VBMC(prog, opts)
		if err != nil {
			return fail(err)
		}
	}

	stopSampling()
	if *jsonOut {
		rep := res.Report
		if rep == nil {
			rep = rec.Report()
			rep.Verdict = res.Verdict.String()
			rep.K, rep.L = *k, *l
		}
		rep.Tool = "vbmc"
		rep.Bench = prog.Name
		rep.Search = smp.Series()
		// An explicitly passed -workers (any value, 0 included) is
		// stamped into the config, so bench sweeps over pool widths are
		// self-describing — including their one-worker baseline.
		if *traceOut != "" || *spanOut != "" || smp != nil || set["workers"] || eng.Reduce || eng.TMAI {
			rep.Config = map[string]string{}
			if set["workers"] {
				rep.Config["workers"] = fmt.Sprint(eng.Workers)
			}
			if eng.Reduce {
				rep.Config["reduce"] = "enabled"
			}
			if eng.TMAI {
				rep.Config["tmai"] = "enabled"
			}
			if *traceOut != "" {
				rep.Config["trace"] = "enabled"
				rep.Config["trace_format"] = *traceFmt
			}
			if *spanOut != "" {
				rep.Config["spans"] = "enabled"
				rep.Config["span_format"] = *spanFmt
			}
			if smp != nil {
				rep.Config["sampling"] = "enabled"
				rep.Config["sample_interval"] = interval.String()
			}
		}
		os.Stdout.Write(append(rep.JSON(), '\n'))
	} else if res.Unbounded {
		fmt.Printf("%s: %s (unbounded: proved for every K by the thread-modular pre-pass, %.3fs)\n",
			prog.Name, res.Verdict, time.Since(start).Seconds())
	} else {
		fmt.Printf("%s: %s (K=%d, L=%d, contexts<=%d, %d states, %d transitions, %.3fs)\n",
			prog.Name, res.Verdict, *k, *l, res.ContextBound, res.States, res.Transitions,
			time.Since(start).Seconds())
	}
	if res.Verdict == ravbmc.Unsafe {
		// Every violation's witness is lifted to a source-level RA trace
		// and replay-validated; a failure here means the lifted trace did
		// not re-execute to the violation and the raw SC trace is all we
		// can offer.
		if !res.WitnessValidated {
			fmt.Fprintf(os.Stderr, "vbmc: witness validation failed: %s\n", res.WitnessErr)
		}
		witness := res.Witness
		if witness == nil {
			witness = res.Trace
		}
		if res.Trace != nil && *summary {
			fmt.Print(core.SummarizeTrace(res.Trace))
		}
		if *showTr && witness != nil {
			fmt.Print(witness)
		}
		if *traceOut != "" && witness != nil {
			format, err := trace.ParseFormat(*traceFmt)
			if err != nil {
				return fail(err)
			}
			validated := res.WitnessValidated
			meta := trace.Meta{
				Program: prog.Name, Engine: "replay", K: *k,
				Validated: &validated,
			}
			if res.Witness == nil {
				meta.Engine = "sc"
			}
			if err := witness.WriteFile(*traceOut, format, meta); err != nil {
				return fail(err)
			}
		}
	}
	switch res.Verdict {
	case ravbmc.Unsafe:
		return 1
	case ravbmc.Inconclusive:
		return 2
	}
	return 0
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

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "vbmc:", err)
	return 3
}
