package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ravbmc/internal/obs"
)

// Stamp identifies the code and machine a result was measured on.
type Stamp struct {
	// Commit and Dirty come from git when the benchmark runs at the
	// root of a git work tree; Commit is "unknown" and Dirty null
	// otherwise.
	Commit     string `json:"commit"`
	Dirty      *bool  `json:"dirty"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Time       string `json:"time"`
}

// NewStamp stamps the current working tree and machine.
func NewStamp() Stamp {
	s := Stamp{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Time: time.Now().UTC().Format(time.RFC3339),
	}
	if _, err := os.Stat(".git"); err != nil {
		return s
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
		dirty := len(strings.TrimSpace(string(out))) > 0
		s.Dirty = &dirty
	}
	return s
}

// Summary is the one-line result the benchmark prints last: the
// end-to-end metrics for untraced runs, the per-layer ones for traced.
type Summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]SummaryValue `json:"metrics"`
}

// SummaryValue is one metric of the Summary line.
type SummaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Summary condenses the result to the reported metrics.
func (r *Result) Summary() Summary {
	s := Summary{Correct: r.Correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]SummaryValue{}}
	for _, m := range r.table() {
		if v, ok := r.Metrics[m.Name]; ok {
			s.Metrics[m.Name] = SummaryValue{Value: v.Value, Unit: v.Unit}
		}
	}
	return s
}

// table is the metric table this result reports.
func (r *Result) table() []Metric {
	if r.Trace {
		return PerLayer
	}
	return EndToEnd
}

// Print writes a human-readable report followed by the Summary as the
// last line.
func (r *Result) Print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  seed %d  passes %d  queries %d  attempted %d  failed %d  (commit %s, %s, nproc %d)\n",
		r.Workload, r.Seed, r.Passes, r.Queries, r.Attempted, r.Failed, r.Stamp.Commit, r.Stamp.GoVersion, r.Stamp.NumCPU)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	for _, m := range r.table() {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-22s %14.6g %-6s", m.Name, v.Value, v.Unit)
		if v.N > 1 {
			fmt.Fprintf(w, "  per-pass q1 %.6g  median %.6g  q3 %.6g  (n=%d)", v.Q1, v.Median, v.Q3, v.N)
		}
		if m.Name == "latency_p95_s" && Beyond(r.Queries, 95) < 10 {
			fmt.Fprint(w, "  (fewer than 10 queries beyond p95: the slowest query)")
		}
		fmt.Fprintln(w)
	}
	if len(r.SelfTime) > 0 {
		layers := make([]string, 0, len(r.SelfTime))
		for l := range r.SelfTime {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Fprint(w, "self time by layer:")
		for _, l := range layers {
			fmt.Fprintf(w, "  %s %.4fs", l, r.SelfTime[l])
		}
		fmt.Fprintln(w)
	}
	for _, l := range r.Ladder {
		fmt.Fprintf(w, "  ladder %-20s core.Run %9d states, direct %9d  (%.2fx)",
			l.Query, l.RunStates, l.DirectState, float64(l.RunStates)/float64(l.DirectState))
		if pin, ok := pinnedLadder[l.Query]; ok {
			verdict := "as pinned"
			if pin.RunStates != l.RunStates || pin.DirectState != l.DirectState {
				verdict = fmt.Sprintf("MOVED from pinned %d / %d", pin.RunStates, pin.DirectState)
			}
			fmt.Fprintf(w, "  %s", verdict)
		}
		fmt.Fprintln(w)
	}
	line, err := json.Marshal(r.Summary())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// WriteFiles writes the stamped result as <workload>-seed<n>[-trace].json
// into dir and, for traced runs, the traced pass's span forest as
// <workload>.spans.jsonl.
func (r *Result) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", r.Workload, r.Seed)
	if r.Trace {
		name += "-trace"
		err := obs.WriteSpansFile(filepath.Join(dir, r.Workload+".spans.jsonl"), "jsonl",
			obs.SpanMeta{Tool: "vbmcbench", Program: r.Workload}, r.spans)
		if err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644)
}

// ReadResult loads a result file written by WriteFiles.
func ReadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
