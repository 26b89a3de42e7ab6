package bench

import (
	"runtime"
	"time"
)

// Shared hosts drift in speed by 10-45% over minutes, and every
// workload drifts with them. The drift is in the memory system, so the
// benchmark times a fixed allocation-heavy calibration loop between
// queries and reports times in reference seconds: measured seconds
// scaled by calibrationRef over the median calibration time of the run.
// The loop is the benchmark's own code, so a change to the verifier
// never moves it. Of the loops tried against a verifier query
// interleaved with them for four minutes, this one tracked the query
// best: the spread of 20 s medians fell from 9.6% to 5.0%.
const (
	// calibrationRef is the calibration loop's median time on the
	// recording machine (2-core x86-64 VM, Go 1.24), the unit of
	// reported times.
	calibrationRef = 0.025
	// calibrationEvery is the least time between two samples.
	calibrationEvery = time.Second
	// calibrationBlocks of calibrationBlockSize bytes are allocated and
	// written per sample, a tenth of them kept live until it ends.
	calibrationBlocks    = 6000
	calibrationBlockSize = 16 << 10
)

// calibrationKept keeps a tenth of the loop's blocks alive.
var calibrationKept [][]byte

// calibrate times one run of the calibration loop: allocating and
// writing blocks the size of a few cloned search configurations, with
// the garbage collection they cause, the cost that dominates the
// verifier's inner loop.
func calibrate() float64 {
	runtime.GC()
	start := time.Now()
	for i := 0; i < calibrationBlocks; i++ {
		b := make([]byte, calibrationBlockSize)
		for j := 0; j < len(b); j += 64 {
			b[j] = byte(i + j)
		}
		if i%10 == 0 {
			calibrationKept = append(calibrationKept, b)
		}
	}
	d := time.Since(start).Seconds()
	calibrationKept = nil
	return d
}

// calibrator samples the calibration loop at most once per
// calibrationEvery.
type calibrator struct {
	samples []float64
	last    time.Time
}

// sample takes a calibration sample if the last one is old enough. Call
// it only between timed operations.
func (c *calibrator) sample() {
	if len(c.samples) == 0 || time.Since(c.last) >= calibrationEvery {
		c.samples = append(c.samples, calibrate())
		c.last = time.Now()
	}
}

// scale is the factor that converts this run's measured seconds into
// reference seconds.
func (c *calibrator) scale() float64 {
	if len(c.samples) == 0 {
		c.sample()
	}
	return calibrationRef / Median(c.samples)
}
