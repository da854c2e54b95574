package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between the two nearest ranks; NaN when empty.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of vals without reordering the caller's
// slice; NaN when empty.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// sampleWindows files latency samples into fixed-width windows of the
// measured phase. Every gated latency figure is the median over
// windows of the per-window percentile, so a host stall moves one
// window, not the result.
type sampleWindows struct {
	width int64 // ns
	win   [][]float64
}

func newSampleWindows(n int, width int64, capPerWindow int) *sampleWindows {
	w := &sampleWindows{width: width, win: make([][]float64, n)}
	for i := range w.win {
		w.win[i] = make([]float64, 0, capPerWindow)
	}
	return w
}

// add files v under the window containing offset t (ns since the
// measured phase began); samples outside the phase are dropped.
func (w *sampleWindows) add(t int64, v float64) {
	if t < 0 {
		return
	}
	i := int(t / w.width)
	if i >= len(w.win) {
		return
	}
	w.win[i] = append(w.win[i], v)
}

// count returns the number of filed samples.
func (w *sampleWindows) count() int {
	n := 0
	for _, s := range w.win {
		n += len(s)
	}
	return n
}

// perWindow returns each non-empty window's q-quantile. It sorts the
// windows in place.
func (w *sampleWindows) perWindow(q float64) []float64 {
	var per []float64
	for _, s := range w.win {
		if len(s) == 0 {
			continue
		}
		sort.Float64s(s)
		per = append(per, percentile(s, q))
	}
	return per
}

// windowCounter counts events per fixed-width window; rates are the
// median over windows of count/width.
type windowCounter struct {
	width int64
	n     []int64
}

func newWindowCounter(n int, width int64) *windowCounter {
	return &windowCounter{width: width, n: make([]int64, n)}
}

func (c *windowCounter) add(t int64, k int64) {
	if t < 0 {
		return
	}
	i := int(t / c.width)
	if i >= len(c.n) {
		return
	}
	c.n[i] += k
}

// rates returns each window's events per second.
func (c *windowCounter) rates() []float64 {
	per := make([]float64, len(c.n))
	for i, k := range c.n {
		per[i] = float64(k) / (float64(c.width) / 1e9)
	}
	return per
}

// splitWindows chooses how many windows of what width cover a measured
// phase of d ns: one-second windows, or a single shorter one when the
// phase is under a second (smoke tests and reference slices).
func splitWindows(d int64) (n int, width int64) {
	n = int(d / 1e9)
	if n < 1 {
		n = 1
	}
	return n, d / int64(n)
}

// safeDiv is a/b, or 0 when b is 0 (a share of nothing).
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
