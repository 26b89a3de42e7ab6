// Package tables regenerates the paper's evaluation (Sec. 7, Tables
// 1-8 plus the litmus experiment): for each table it runs VBMC and the
// three stateless-model-checking baselines on the same benchmark
// programs and reports wall-clock seconds or T.O, in the same row format
// as the paper. Absolute numbers differ from the paper (the backends
// are explicit-state Go, not SAT/C), but the comparison shape — which
// tool wins where, and how each scales in N and L — is the
// reproduction target (see EXPERIMENTS.md).
package tables

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ravbmc/internal/benchmarks"
	"ravbmc/internal/cache"
	"ravbmc/internal/obs"
	"ravbmc/internal/sched"
)

// Config controls a table run.
type Config struct {
	// Timeout per tool invocation; the paper uses 3600 s. Zero selects
	// 60 s, a scale suited to the explicit-state backends.
	Timeout time.Duration
	// Quick shrinks the thread-count sweeps so a full table regeneration
	// fits in a benchmark run; the full sweeps match the paper's.
	Quick bool
	// Jobs is the number of (benchmark, tool) cells run concurrently.
	// Zero or negative selects runtime.NumCPU. Rows are assembled in
	// spec order regardless of completion order, so the rendered table
	// is identical for every width (cell seconds excepted).
	Jobs int
	// Ctx cancels the whole table run; cells not yet started render as
	// T.O. Nil never cancels.
	Ctx context.Context
	// Obs, when non-nil, is invoked before every tool invocation with
	// the benchmark and tool name and returns the recorder to instrument
	// that run with (nil to leave the run uninstrumented). The run's
	// obs.Report is attached to its Cell, so table rows carry the engine
	// counters; cmd/ratables uses the hook to drive its -progress
	// printer. With Jobs > 1 the hook is called from pool workers and
	// must be safe for concurrent use.
	Obs func(bench, tool string) *obs.Recorder
	// Cache, when non-nil, answers cells from the content-addressed
	// result cache (internal/cache) and memoizes fresh conclusions, so
	// a repeated sweep — same binary, same bounds — costs lookups
	// instead of explorations. Inconclusive cells (T.O, ERR) are never
	// memoized and re-run every sweep.
	Cache *cache.Cache
}

func (c Config) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 60 * time.Second
	}
	return c.Timeout
}

func (c Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// Cell is one tool's result on one benchmark.
type Cell struct {
	Tool    string
	Seconds float64
	Verdict string // UNSAFE, SAFE, T.O, ERR
	// Report carries the run's engine counters and phase timings when
	// the Config.Obs hook supplied a recorder; nil otherwise.
	Report *obs.Report
}

// Row is one benchmark line of a table.
type Row struct {
	Bench string
	K, L  int
	Cells []Cell
}

// Table is a rendered paper table.
type Table struct {
	Name    string
	Caption string
	Tools   []string
	Rows    []Row
}

// Tools compared in every table, in the paper's column order.
var toolColumns = []string{"VBMC", "Tracer", "Cdsc", "Rcmc"}

// toolModes maps tool columns onto cache modes.
var toolModes = map[string]string{
	"VBMC": cache.ModeVBMC, "Tracer": cache.ModeTracer,
	"Cdsc": cache.ModeCDSC, "Rcmc": cache.ModeRCMC,
}

// rowSpec names one benchmark line of a table before it is run.
type rowSpec struct {
	bench string
	k, l  int
}

// buildTable fans every (benchmark, tool) cell through a sched pool and
// assembles rows in spec order, so the table layout is independent of
// worker count and completion order. Each cell builds its own program
// from the benchmark name: *lang.Program is mutated during checking
// (unrolling, labels) and must not be shared across concurrent runs.
func buildTable(cfg Config, name, caption string, specs []rowSpec) Table {
	t := Table{Name: name, Caption: caption, Tools: toolColumns}
	jobs := make([]sched.Job, 0, len(specs)*len(toolColumns))
	for _, s := range specs {
		for _, tool := range toolColumns {
			s, tool := s, tool
			jobs = append(jobs, sched.Job{
				Name: s.bench + "/" + tool,
				Run: func(ctx context.Context) (any, error) {
					return runCell(ctx, cfg, s, tool), nil
				},
			})
		}
	}
	results := sched.New(cfg.Jobs).Run(cfg.ctx(), jobs, nil)
	for i, s := range specs {
		row := Row{Bench: s.bench, K: s.k, L: s.l}
		for j, tool := range toolColumns {
			r := results[i*len(toolColumns)+j]
			switch {
			case r.Skipped:
				row.Cells = append(row.Cells, Cell{Tool: tool, Verdict: "T.O"})
			case r.Err != nil:
				row.Cells = append(row.Cells, Cell{Tool: tool, Verdict: "ERR"})
			default:
				row.Cells = append(row.Cells, r.Value.(Cell))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// runCell runs one tool on one benchmark, building a fresh program,
// through Config.Cache (a nil cache just executes). A cached SAFE or
// UNSAFE is reused (including across K by subsumption for VBMC);
// anything non-conclusive renders T.O and is re-run next sweep.
func runCell(ctx context.Context, cfg Config, s rowSpec, tool string) Cell {
	prog, err := benchmarks.ByName(s.bench)
	if err != nil {
		return Cell{Tool: tool, Verdict: "ERR"}
	}
	k := s.k
	if tool != "VBMC" {
		k = 0 // the stateless checkers have no view bound
	}
	rec := cfg.recorder(prog.Name, tool)
	start := time.Now()
	out, err := cfg.Cache.Verify(ctx, cache.Request{Prog: prog, Mode: toolModes[tool], K: k, Unroll: s.l},
		cache.ExecConfig{Timeout: cfg.timeout(), Obs: rec})
	cell := Cell{Tool: tool, Seconds: time.Since(start).Seconds()}
	switch {
	case err != nil:
		cell.Verdict = "ERR"
	case out.Verdict == cache.VerdictSafe || out.Verdict == cache.VerdictUnsafe:
		cell.Verdict = out.Verdict
	default:
		cell.Verdict = "T.O" // inconclusive: timeout or cap, never memoized
	}
	attach(&cell, rec, prog.Name, k, s.l)
	return cell
}

// recorder consults the Obs hook for one tool invocation.
func (c Config) recorder(bench, tool string) *obs.Recorder {
	if c.Obs == nil {
		return nil
	}
	return c.Obs(bench, tool)
}

// attach finalises cell with the run's report, identity and verdict.
func attach(cell *Cell, rec *obs.Recorder, bench string, k, l int) {
	if rec == nil {
		return
	}
	rep := rec.Report()
	rep.Tool = cell.Tool
	rep.Bench = bench
	rep.Verdict = cell.Verdict
	rep.K, rep.L = k, l
	cell.Report = rep
}

// Table1 is the paper's Table 1: the original unfenced mutual-exclusion
// protocols (UNSAFE under RA), K=2, L=2.
func Table1(cfg Config) Table {
	names := []string{
		"bakery", "burns", "dekker", "lamport",
		"peterson_0", "peterson_0(3)", "sim_dekker", "szymanski_0",
	}
	if cfg.Quick {
		names = []string{"dekker", "peterson_0", "sim_dekker"}
	}
	specs := make([]rowSpec, 0, len(names))
	for _, n := range names {
		specs = append(specs, rowSpec{bench: n, k: 2, l: 2})
	}
	return buildTable(cfg, "Table 1",
		"Unfenced mutual exclusion protocols (UNSAFE), K=2, L=2", specs)
}

// Table2 is the paper's Table 2: all threads but one fenced,
// peterson_1(i) with K=4 and szymanski_1(i) with K=2, L=2.
func Table2(cfg Config) Table {
	sizes := []int{4, 6, 8, 10}
	if cfg.Quick {
		sizes = []int{3, 4}
	}
	specs := make([]rowSpec, 0, 2*len(sizes))
	for _, n := range sizes {
		specs = append(specs, rowSpec{bench: fmt.Sprintf("peterson_1(%d)", n), k: 4, l: 2})
	}
	for _, n := range sizes {
		specs = append(specs, rowSpec{bench: fmt.Sprintf("szymanski_1(%d)", n), k: 2, l: 2})
	}
	return buildTable(cfg, "Table 2",
		"All-but-one-fenced Peterson (K=4) and Szymanski (K=2), L=2", specs)
}

// Table3 is the paper's Table 3: fenced Peterson with a one-line bug in
// a fixed (first) thread, K=2, L=2.
func Table3(cfg Config) Table { return bugTable(cfg, "Table 3", "peterson_2") }

// Table4 is the paper's Table 4: the same bug moved to the last thread.
func Table4(cfg Config) Table { return bugTable(cfg, "Table 4", "peterson_3") }

// Table5 is the paper's Table 5: fenced Szymanski with the bug in a
// fixed thread.
func Table5(cfg Config) Table { return bugTable(cfg, "Table 5", "szymanski_2") }

func bugTable(cfg Config, name, proto string) Table {
	sizes := []int{3, 4, 5, 6, 7}
	if cfg.Quick {
		sizes = []int{3, 4}
	}
	specs := make([]rowSpec, 0, len(sizes))
	for _, n := range sizes {
		specs = append(specs, rowSpec{bench: fmt.Sprintf("%s(%d)", proto, n), k: 2, l: 2})
	}
	return buildTable(cfg, name,
		fmt.Sprintf("Fenced %s with a one-line bug, K=2, L=2", proto), specs)
}

// Table6 is the paper's Table 6 (SAFE fenced protocols, K=2, L=1);
// Table7 and Table8 raise L to 2 and 4.
func Table6(cfg Config) Table { return safeTable(cfg, "Table 6", 1) }

// Table7 is the L=2 SAFE table.
func Table7(cfg Config) Table { return safeTable(cfg, "Table 7", 2) }

// Table8 is the L=4 SAFE table.
func Table8(cfg Config) Table { return safeTable(cfg, "Table 8", 4) }

func safeTable(cfg Config, name string, l int) Table {
	names := []string{
		"bakery_4", "lamport_4", "tbar_4", "tbar_4(3)",
		"peterson_4(2)", "peterson_4(3)",
	}
	if cfg.Quick {
		names = []string{"tbar_4", "peterson_4(2)"}
	}
	specs := make([]rowSpec, 0, len(names))
	for _, n := range names {
		specs = append(specs, rowSpec{bench: n, k: 2, l: l})
	}
	return buildTable(cfg, name,
		fmt.Sprintf("Fenced (SAFE) protocols, K=2, L=%d", l), specs)
}

// All returns every table generator keyed by the paper's numbering.
func All() map[string]func(Config) Table {
	return map[string]func(Config) Table{
		"1": Table1, "2": Table2, "3": Table3, "4": Table4,
		"5": Table5, "6": Table6, "7": Table7, "8": Table8,
	}
}

// Render prints the table in the paper's layout.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s. %s\n", t.Name, t.Caption)
	fmt.Fprintf(&b, "%-18s", "Program")
	for _, tool := range t.Tools {
		fmt.Fprintf(&b, " %12s", tool)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-18s", r.Bench)
		for _, c := range r.Cells {
			b.WriteString(" " + renderCell(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func renderCell(c Cell) string {
	switch c.Verdict {
	case "T.O":
		return fmt.Sprintf("%12s", "T.O")
	case "ERR":
		return fmt.Sprintf("%12s", "ERR")
	case "SAFE":
		return fmt.Sprintf("%10.2fs*", c.Seconds)
	default:
		return fmt.Sprintf("%11.2fs", c.Seconds)
	}
}
