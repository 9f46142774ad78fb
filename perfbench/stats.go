package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// median returns the median of xs without reordering it (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-th quantile of xs by linear interpolation between
// order statistics (0 when empty). xs is not reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latHist is a log-linear latency histogram: 128 sub-buckets per power of
// two of nanoseconds (under 1% relative width), each keeping its count and
// the sum of its samples. A quantile reports the mean of the samples in the
// bucket that holds its rank, so it moves continuously with the data instead
// of snapping to bucket bounds. Not safe for concurrent use: each goroutine
// records into its own and the owner merges them.
type latHist struct {
	count [latBuckets]int64
	sum   [latBuckets]float64
	n     int64
}

const (
	latSubBits = 7
	latBuckets = (64 - latSubBits + 1) << latSubBits
)

func latBucket(ns int64) int {
	if ns < 1<<latSubBits {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - latSubBits - 1
	return (shift+1)<<latSubBits | int(ns>>shift)&(1<<latSubBits-1)
}

// record adds one latency sample.
func (h *latHist) record(d time.Duration) {
	b := latBucket(int64(d))
	h.count[b]++
	h.sum[b] += float64(d)
	h.n++
}

// merge folds o into h.
func (h *latHist) merge(o *latHist) {
	for i := range h.count {
		h.count[i] += o.count[i]
		h.sum[i] += o.sum[i]
	}
	h.n += o.n
}

// quantileUS returns the q-th quantile in microseconds (0 when empty).
func (h *latHist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.count {
		cum += c
		if cum >= rank {
			return h.sum[i] / float64(c) / 1e3
		}
	}
	return 0
}

// meanUS returns the mean sample in microseconds (0 when empty).
func (h *latHist) meanUS() float64 {
	if h.n == 0 {
		return 0
	}
	var s float64
	for _, v := range h.sum {
		s += v
	}
	return s / float64(h.n) / 1e3
}
