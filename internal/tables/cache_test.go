package tables

import (
	"testing"
	"time"

	"ravbmc/internal/cache"
)

// TestTableWarmSweepIdenticalVerdicts runs the same table twice over
// one cache: the warm sweep must render identical verdicts and answer
// (at least the conclusive cells) from the cache.
func TestTableWarmSweepIdenticalVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four tools twice")
	}
	c, err := cache.New(cache.Config{Version: "v-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := Config{Quick: true, Timeout: 10 * time.Second, Jobs: testJobs(), Cache: c}

	cold := Table1(cfg)
	coldStats := c.Stats()
	warm := Table1(cfg)
	warmStats := c.Stats()

	if len(cold.Rows) == 0 {
		t.Fatal("no rows")
	}
	for i, row := range cold.Rows {
		for j, cell := range row.Cells {
			wc := warm.Rows[i].Cells[j]
			if cell.Verdict != wc.Verdict {
				t.Errorf("%s/%s: cold %s vs warm %s", row.Bench, cell.Tool, cell.Verdict, wc.Verdict)
			}
		}
	}
	if coldStats.Stores == 0 {
		t.Error("cold sweep stored nothing")
	}
	hits := (warmStats.Hits + warmStats.SubsumedHits) - (coldStats.Hits + coldStats.SubsumedHits)
	if hits < coldStats.Stores {
		t.Errorf("warm sweep hit %d times, want at least the %d stored conclusions", hits, coldStats.Stores)
	}
}

// TestTableCacheVerdictsMatchDirect pins the answers of a warm cache
// to a nil-cache run (which executes every cell) on one quick table.
func TestTableCacheVerdictsMatchDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four tools twice")
	}
	c, err := cache.New(cache.Config{Version: "v-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	direct := Table1(Config{Quick: true, Timeout: 10 * time.Second, Jobs: testJobs()})
	cfg := Config{Quick: true, Timeout: 10 * time.Second, Jobs: testJobs(), Cache: c}
	Table1(cfg) // fill the cache
	warm := Table1(cfg)
	for i, row := range direct.Rows {
		for j, cell := range row.Cells {
			wc := warm.Rows[i].Cells[j]
			// T.O cells depend on machine speed; only conclusive cells
			// are required to match exactly.
			if cell.Verdict == "SAFE" || cell.Verdict == "UNSAFE" {
				if wc.Verdict != cell.Verdict && wc.Verdict != "T.O" {
					t.Errorf("%s/%s: direct %s vs warm cache %s", row.Bench, cell.Tool, cell.Verdict, wc.Verdict)
				}
			}
		}
	}
}
