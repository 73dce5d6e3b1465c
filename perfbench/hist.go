package main

import "math/bits"

// hist is a log-linear histogram of non-negative values (ns or µs): exact
// below 64, then 64 buckets per power of two, so no bucket is wider than
// 1/64 of its lower edge. Its size does not depend on how many values it
// holds, which keeps the harness's share of the live heap the same
// whatever the program's throughput.
type hist struct {
	n      uint64
	counts [histLen]uint64
}

const (
	histSub = 64
	histLen = histSub + histSub*35 // values up to 2^41
)

func histIndex(v int64) int {
	if v < histSub {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 7 // v>>e is in [64, 128)
	return min(histSub+e*histSub+int(uint64(v)>>e)-histSub, histLen-1)
}

// histBounds returns bucket i's lower edge and width.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := (i - histSub) / histSub
	m := histSub + (i-histSub)%histSub
	return float64(uint64(m) << e), float64(uint64(1) << e)
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

// quantile returns the q-quantile, interpolating inside its bucket as if
// the bucket's values were spread evenly; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1) // 0-based, as quantile on a sorted slice
	var below float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < below+float64(c) {
			lo, width := histBounds(i)
			return lo + (rank-below+0.5)/float64(c)*width
		}
		below += float64(c)
	}
	lo, width := histBounds(histLen - 1)
	return lo + width
}
