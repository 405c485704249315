package benchkit

import (
	"testing"
	"time"
)

func report(pairs ...[2]any) *Report {
	r := &Report{}
	for _, p := range pairs {
		r.Results = append(r.Results, Result{Name: p[0].(string), NsPerOp: p[1].(float64)})
	}
	return r
}

func TestCompareReports(t *testing.T) {
	base := report(
		[2]any{"ingest/sequential", 1000.0},
		[2]any{"join/flat", 100.0},
		[2]any{"gone/benchmark", 50.0},
	)
	current := report(
		[2]any{"ingest/sequential", 2500.0}, // 2.5x: regressed
		[2]any{"join/flat", 180.0},          // 1.8x: within bounds
		[2]any{"new/benchmark", 75.0},       // absent from baseline: skipped
	)
	regs := CompareReports(base, current, RegressionRatio)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %v", len(regs), regs)
	}
	r := regs[0]
	if r.Name != "ingest/sequential" || r.Ratio < 2.49 || r.Ratio > 2.51 {
		t.Errorf("regression = %+v", r)
	}
	if r.String() == "" {
		t.Error("empty regression description")
	}

	// Identical reports never regress, whatever the threshold.
	if regs := CompareReports(base, base, 1.0); len(regs) != 0 {
		t.Errorf("self-comparison flagged %v", regs)
	}
	// A zero-ns baseline entry (malformed or hand-edited) is skipped
	// rather than dividing by zero.
	zero := report([2]any{"join/flat", 0.0})
	if regs := CompareReports(zero, current, RegressionRatio); len(regs) != 0 {
		t.Errorf("zero baseline flagged %v", regs)
	}
}

// TestMeasureInterleaves pins the sampling order behind the gated
// comparisons: each benchmark's warm-up batch, then one batch of each
// in turn per round, with the median of each row's batches reported.
// A nanosecond budget sizes every batch at one call.
func TestMeasureInterleaves(t *testing.T) {
	var calls []string
	rs := measure(Options{Benchtime: time.Nanosecond},
		bench{name: "a", fn: func() { calls = append(calls, "a") }},
		bench{name: "b", fn: func() { calls = append(calls, "b") }, bytes: 10})
	if len(calls) != 2*(samples+1) {
		t.Fatalf("%d calls, want %d", len(calls), 2*(samples+1))
	}
	for i, c := range calls {
		if want := []string{"a", "b"}[i%2]; c != want {
			t.Fatalf("call %d ran %s, want %s: %v", i, c, want, calls)
		}
	}
	if len(rs) != 2 || rs[0].Name != "a" || rs[1].Name != "b" || rs[0].Iters != samples || rs[1].Iters != samples || rs[0].NsPerOp <= 0 || rs[1].InputBytes != 10 {
		t.Errorf("results %+v", rs)
	}
	calls = nil
	if rs := measure(Options{Once: true}, bench{name: "a", fn: func() { calls = append(calls, "a") }}); rs[0].Iters != 1 || len(calls) != 1 {
		t.Errorf("Once mode: %d iterations, %d calls; want 1 and 1", rs[0].Iters, len(calls))
	}
}

// TestCompareMmapTierPerByte pins the tier gate to cost per byte of
// file: a 10k-tier map ten times slower on a file ten times larger
// meets it; the same time per op on a file of equal size, or a 10k
// map that allocates half as much again, does not.
func TestCompareMmapTierPerByte(t *testing.T) {
	tier := func(ns600, ns10k float64, bytes10k int64, allocs10k float64) Comparison {
		for _, c := range compare([]Result{
			{Name: "snapshot/load-mmap-600", NsPerOp: ns600, AllocsPerOp: 10, InputBytes: 1000},
			{Name: "snapshot/load-mmap-10k", NsPerOp: ns10k, AllocsPerOp: allocs10k, InputBytes: bytes10k},
		}) {
			if c.Name == "mmap-tier" {
				return c
			}
		}
		t.Fatal("no mmap-tier comparison")
		return Comparison{}
	}
	if c := tier(100, 1000, 10000, 10); !c.MeetsTargets || c.Speedup != 1 {
		t.Errorf("linear growth: %+v", c)
	}
	if c := tier(100, 1000, 1000, 10); c.MeetsTargets {
		t.Errorf("10x per byte passed: %+v", c)
	}
	if c := tier(100, 1000, 10000, 15); c.MeetsTargets {
		t.Errorf("growing allocations passed: %+v", c)
	}
}
