// Package metrics provides the statistical machinery the evaluation
// harness uses to reproduce the paper's figures: running mean/stddev
// (Welford), windowed estimators backing the Dynatune tuner plots,
// empirical CDFs (Figs. 4 and 8), percentiles, and fixed-interval time
// series (Figs. 6 and 7).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Welford accumulates a running mean and variance without storing samples.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples seen.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance (0 with fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// SampleStd returns the sample (n-1) standard deviation.
func (w *Welford) SampleStd() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// Window is a fixed-capacity sliding window over float64 samples that
// maintains sum and sum-of-squares incrementally, giving O(1) mean and
// standard deviation. It backs the Dynatune RTTs list (paper §III-C1,
// §III-E: minListSize / maxListSize): when full, the oldest sample is
// discarded.
type Window struct {
	buf  []float64
	head int // index of oldest
	n    int
	sum  float64
	sum2 float64
}

// NewWindow returns a window holding at most capacity samples.
// Capacity must be positive.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic(fmt.Sprintf("metrics: NewWindow capacity %d", capacity))
	}
	return &Window{buf: make([]float64, capacity)}
}

// Add appends a sample, evicting the oldest if the window is full.
func (w *Window) Add(x float64) {
	if w.n == len(w.buf) {
		old := w.buf[w.head]
		w.sum -= old
		w.sum2 -= old * old
		w.buf[w.head] = x
		w.head = (w.head + 1) % len(w.buf)
	} else {
		w.buf[(w.head+w.n)%len(w.buf)] = x
		w.n++
	}
	w.sum += x
	w.sum2 += x * x
}

// Reset discards all samples.
func (w *Window) Reset() {
	w.head, w.n, w.sum, w.sum2 = 0, 0, 0, 0
}

// Len returns the number of held samples.
func (w *Window) Len() int { return w.n }

// Max returns the largest held sample (0 when empty). O(n) scan — the
// window is small (≤ maxListSize) and callers run at heartbeat frequency.
func (w *Window) Max() float64 {
	if w.n == 0 {
		return 0
	}
	max := w.buf[w.head]
	for i := 1; i < w.n; i++ {
		if v := w.buf[(w.head+i)%len(w.buf)]; v > max {
			max = v
		}
	}
	return max
}

// Mean returns the mean of held samples (0 when empty).
func (w *Window) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

// Std returns the population standard deviation of held samples.
// Floating-point cancellation can drive the variance fractionally
// negative; it is clamped at zero.
func (w *Window) Std() float64 {
	if w.n < 2 {
		return 0
	}
	m := w.Mean()
	v := w.sum2/float64(w.n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Sample is one empirical measurement expressed in seconds or any other
// unit the caller chooses.
type Sample = float64

// Summary holds the descriptive statistics the paper reports for a set of
// trials.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
	P50  float64
	P90  float64
	P99  float64
}

// Summarize computes a Summary over xs. An empty slice yields a zero
// Summary. It copies and sorts xs; callers that already hold sorted data
// (or need several statistics from one sample set) should sort once and
// use SummarizeSorted / QuantileSorted instead.
func Summarize(xs []float64) Summary {
	return SummarizeSorted(SortedCopy(xs))
}

// SummarizeSorted computes a Summary over already-sorted data without
// copying. This is the sort-once path the experiment result aggregators
// use: one SortedCopy feeds the mean, extrema, and every quantile.
func SummarizeSorted(sorted []float64) Summary {
	if len(sorted) == 0 {
		return Summary{}
	}
	var w Welford
	for _, x := range sorted {
		w.Add(x)
	}
	return Summary{
		N:    len(sorted),
		Mean: w.Mean(),
		Std:  w.Std(),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		P50:  quantileSorted(sorted, 0.50),
		P90:  quantileSorted(sorted, 0.90),
		P99:  quantileSorted(sorted, 0.99),
	}
}

// SortedCopy returns an ascending copy of xs (nil stays an empty,
// non-nil-safe-to-use slice).
func SortedCopy(xs []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It copies and sorts xs; for
// several quantiles of one sample set use Quantiles or QuantileSorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantileSorted(SortedCopy(xs), q)
}

// QuantileSorted returns the q-quantile of already-sorted data.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return quantileSorted(sorted, q)
}

// Quantiles returns the requested quantiles from a single sorted copy of
// xs — one sort for any number of quantiles, where repeated Quantile
// calls would re-copy and re-sort per call.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sorted := SortedCopy(xs)
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// of xs under the normal approximation (1.96·s/√n with the sample
// standard deviation), or 0 with fewer than two samples. The sweep
// engine reports it per grid cell over the per-repetition means, so a
// campaign diff can tell a real regression from rep-to-rep noise.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return 1.96 * w.SampleStd() / math.Sqrt(float64(len(xs)))
}

// DurationsToMillis converts durations to float64 milliseconds, the unit
// the paper reports everywhere.
func DurationsToMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
