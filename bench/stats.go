package bench

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle of xs (the mean of the two middles for an
// even count), or 0 for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the 1-based rank of the p-th percentile of n
// samples under the nearest-rank definition: the smallest rank whose
// share of the samples is at least p percent.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Percentile returns the nearest-rank p-th percentile of xs (0 for an
// empty slice). Unlike an interpolated percentile it is always one of
// the samples.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[nearestRank(len(xs), p)-1]
}

// Beyond returns how many of n samples lie above the nearest-rank p-th
// percentile. A tail percentile is worth reporting only when at least
// ten samples lie beyond it.
func Beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// Quartiles returns the first quartile, the median and the third
// quartile of xs with the same interpolation as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so spreads
// computed here and by external tooling agree.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// Geomean returns the geometric mean of xs, which must all be positive;
// it returns 0 for an empty slice or when any sample is not positive.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Worse reports whether cur is worse than base by more than the bound:
// the larger of bound as a share of base and the absolute floor.
// better is "lower" or "higher".
func Worse(base, cur float64, better string, bound, floor float64) bool {
	allowed := math.Max(bound*math.Abs(base), floor)
	if better == "higher" {
		return base-cur > allowed
	}
	return cur-base > allowed
}
