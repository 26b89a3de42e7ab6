// Command vbmcbench runs one workload of the repository's benchmark
// and prints its metrics, the last line being a JSON summary:
//
//	vbmcbench --workload bugs --seed 1 --seconds 30 --trace 0
//
// Workloads: bugs, proofs, litmus, service (see bench/README.md).
// --trace 1 runs one untraced and one traced pass and reports the
// per-layer metrics instead of the end-to-end ones. The stamped result
// (and, traced, the span forest) is written under -out.
//
// Exit status: 0 when every query got its reference verdict, 1 when
// any failed (the summary is still printed), 2 when the run could not
// be carried out.
package main

import (
	"flag"
	"fmt"
	"os"

	"ravbmc/bench"
)

func main() { os.Exit(run()) }

func run() int {
	var cfg bench.Config
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: bugs, proofs, litmus or service")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of the workload's inputs")
	flag.Float64Var(&cfg.Seconds, "seconds", 30, "measuring window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	flag.StringVar(&cfg.Vbmcd, "vbmcd", "", "vbmcd binary for the service workload (empty: serve in-process)")
	flag.StringVar(&cfg.WorkDir, "work", os.TempDir(), "directory for the daemons' temporary stores")
	out := flag.String("out", "", "directory for the stamped result and span files (empty: none)")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	cfg.Trace = *trace == 1
	res, err := bench.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbmcbench:", err)
		return 2
	}
	if *out != "" {
		if err := res.WriteFiles(*out); err != nil {
			fmt.Fprintln(os.Stderr, "vbmcbench:", err)
			return 2
		}
	}
	if err := res.Print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vbmcbench:", err)
		return 2
	}
	if !res.Correct() {
		return 1
	}
	return 0
}
