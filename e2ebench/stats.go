package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowSize is the number of requests in one latency window: enough
// for a p99 with ten samples beyond it.
const windowSize = 1000

// windowed splits xs, in schedule order, into consecutive windows of
// windowSize samples and returns the median over the full windows of
// each window's q-quantile. A stall that hits one window moves one
// entry of the median instead of the whole run's tail, which keeps the
// figure steady from run to run on a shared machine. With fewer than
// one full window it falls back to the quantile of all samples.
func windowed(xs []float64, q float64) float64 {
	if len(xs) < windowSize {
		return quantile(xs, q)
	}
	var per []float64
	for lo := 0; lo+windowSize <= len(xs); lo += windowSize {
		per = append(per, quantile(xs[lo:lo+windowSize], q))
	}
	return median(per)
}

// tail returns the highest of p90/p99/p99.9 that still has at least
// ten samples beyond it, with its label; ok is false below 100 samples.
func tail(xs []float64) (label string, v float64, ok bool) {
	for _, t := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(len(xs))*(1-t.q) >= 10 {
			return t.label, quantile(xs, t.q), true
		}
	}
	return "", 0, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// scaled converts durations to floats in the given unit.
func scaled(unit time.Duration, ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// liveHeapMiB forces a collection and returns the bytes of live heap
// objects in MiB. Workloads report the difference between a reading
// taken with the harness's inputs alone and one taken with the
// program's long-lived state added, so generated inputs never count.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's figures. Every figure is printed as a
// "name value unit" line; the ones named in the result set also go
// into the final JSON object.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func newReport(w io.Writer) *report { return &report{w: w, metrics: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "%-34s %14.4f %s\n", name, v, unit)
}

// note prints an informational line that is not a metric.
func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// timing reports a latency distribution the way the benchmark reports
// every timing: median, the highest percentile with at least ten
// samples beyond it, and the sample count.
func (r *report) timing(name string, xs []float64, unit string) {
	label, v, ok := tail(xs)
	if !ok {
		r.note("%-34s p50 %.4f %s (n=%d)", name, median(xs), unit, len(xs))
		return
	}
	r.note("%-34s p50 %.4f %s, %s %.4f %s (n=%d)", name, median(xs), unit, label, v, unit, len(xs))
}
