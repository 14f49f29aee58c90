package main

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

// percentile returns the p-quantile (0 <= p <= 1) of an ascending slice
// by linear interpolation between the two nearest ranks; 0 when empty.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := p * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

// geomean combines per-module medians; a non-positive term (a timing
// that read zero) would make the mean meaningless, so it yields 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// summary is how a timing is reported: median, p10, p90 and n.
type summary struct {
	Median, P10, P90 float64
	N                int
}

func summarize(xs []float64) summary {
	asc := sorted(xs)
	return summary{
		Median: percentile(asc, 0.5), P10: percentile(asc, 0.1), P90: percentile(asc, 0.9),
		N: len(xs),
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method)
// gives them, which is what the driver uses to judge run-to-run spread.
// It is the package's only quartile definition.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := sorted(xs)
	ld := len(asc)
	if ld < 2 {
		if ld == 1 {
			return asc[0], asc[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the run-to-run noise figure every bound is compared with:
// the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(med)
}
