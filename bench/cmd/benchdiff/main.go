// Command benchdiff compares two sets of benchmark results, one row per
// (workload, metric):
//
//	benchdiff [-spec BENCHMARK.json] OLD NEW
//
// OLD and NEW are result files written by vbmcbench, or directories of
// them (several runs, e.g. several seeds, per side). With several runs
// a side's median and quartiles are taken over the runs; a single run
// stands for itself with the quartiles of its own passes. Each
// end-to-end metric is judged against its bound in BENCHMARK.json:
// REGRESSION when the new median is worse by more than the bound,
// unresolved when a side's spread is wider than the bound and the runs
// overlap. Exit status 1 means at least one REGRESSION.
package main

import (
	"flag"
	"fmt"
	"os"

	"ravbmc/bench"
)

func main() { os.Exit(run()) }

func run() int {
	spec := flag.String("spec", "", "BENCHMARK.json with the metric bounds (default: ./BENCHMARK.json, else ../BENCHMARK.json)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-spec BENCHMARK.json] OLD NEW")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		return 2
	}
	if *spec == "" {
		*spec = "BENCHMARK.json"
		if _, err := os.Stat(*spec); err != nil {
			*spec = "../BENCHMARK.json"
		}
	}
	bounds, err := bench.ReadSpec(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	old, err := bench.LoadResults(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	cur, err := bench.LoadResults(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	rows := bench.Diff(old, cur, bounds)
	bench.PrintDiff(os.Stdout, rows)
	for _, r := range rows {
		if r.Verdict == "REGRESSION" {
			return 1
		}
	}
	return 0
}
