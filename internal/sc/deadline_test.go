package sc

import (
	"testing"
	"time"

	"ravbmc/internal/obs"
)

// TestCheckExpiredDeadline: a deadline already in the past must abort
// the search before the first state — tiny probe time slices must not
// get any search at all.
func TestCheckExpiredDeadline(t *testing.T) {
	res := check(t, mustSB(), Options{Deadline: time.Now().Add(-time.Hour)})
	if !res.TimedOut {
		t.Error("expired deadline: TimedOut not set")
	}
	if res.Exhausted {
		t.Error("expired deadline: search claims exhaustion")
	}
	if res.States != 0 || res.Violation {
		t.Errorf("expired deadline explored: states=%d violation=%v", res.States, res.Violation)
	}
}

// TestCheckObsCounters: the obs instruments must agree with the Result
// statistics and the dedup split must account for every DFS visit.
func TestCheckObsCounters(t *testing.T) {
	rec := obs.New()
	res := check(t, mustSB(), Options{Obs: rec})
	rep := rec.Report()
	if got := rep.Counters["sc.states"]; got != int64(res.States) {
		t.Errorf("sc.states = %d, Result.States = %d", got, res.States)
	}
	if got := rep.Counters["sc.transitions"]; got != int64(res.Transitions) {
		t.Errorf("sc.transitions = %d, Result.Transitions = %d", got, res.Transitions)
	}
	if got := rep.Counters["sc.dedup_misses"]; got != int64(res.States) {
		t.Errorf("sc.dedup_misses = %d, want one per state %d", got, res.States)
	}
	if rep.Counters["sc.macro_steps"] == 0 {
		t.Error("sc.macro_steps not recorded")
	}
	if rep.Gauges["sc.max_depth"] == 0 {
		t.Error("sc.max_depth not recorded")
	}
	if rate, ok := rep.Derived["sc.dedup_hit_rate"]; !ok || rate < 0 || rate > 1 {
		t.Errorf("sc.dedup_hit_rate = %v (present=%v), want a ratio", rate, ok)
	}
}

// TestCheckAccumulatesAcrossRuns: repeated Check calls against one
// recorder must report totals (the VBMC restart ladder depends on it).
func TestCheckAccumulatesAcrossRuns(t *testing.T) {
	rec := obs.New()
	r1 := check(t, mustSB(), Options{Obs: rec})
	first := rec.Counter("sc.states").Value()
	if first != int64(r1.States) {
		t.Fatalf("first run: counter %d != states %d", first, r1.States)
	}
	r2 := check(t, mustSB(), Options{Obs: rec})
	if got := rec.Counter("sc.states").Value(); got != int64(r1.States+r2.States) {
		t.Errorf("after second run counter = %d, want accumulated %d", got, r1.States+r2.States)
	}
}
