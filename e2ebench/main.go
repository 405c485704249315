// Command e2ebench is the repository's end-to-end benchmark. It imports
// the module's packages and times calls into each layer's public
// functions from outside, over three workloads:
//
//   - pipeline-12k: collector archives on disk → pipeline → snapshot
//     v2 → mmap → serve → first correct answer over loopback TCP;
//   - serve-100k: an internet-scale snapshot mapped and served to
//     open-loop zipf-keyed reads at a ladder of rates;
//   - live-churn-10k: a live update feed re-inferred incrementally and
//     hot-swapped into the server while reads run beside it.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload serve-100k --seed 1 --seconds 10 --trace 0
//	cd e2ebench && go run . --workload all --seed 1 --seconds 10
//
// Every figure is printed as a "name value unit" line; the last line
// of standard output is one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). The exit status is
// non-zero when any output check fails. See README.md for the metric
// definitions and the per-layer → end-to-end map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every untraced run puts in its result line,
// on every workload (BENCHMARK.json's end_to_end list). The other
// end-to-end figures — read_p50_ms, read_p99_ms, archives_to_answer_s,
// read_max_rps, visible_lag_*, churn_updates_per_s, error_share — are
// printed by the workloads they apply to; see README.md for why they
// stay out of the result line.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"heap_mib", "MiB"},
	{"time_to_answer_s", "s"},
}

// perLayer are the metrics every traced run reports (BENCHMARK.json's
// per_layer list). A layer a workload bypasses reports 0.
var perLayer = []metricSpec{
	{"pipeline.ingest_s", "s"},
	{"dataset.observations", "count"},
	{"dataset.unique_paths", "count"},
	{"dataset.dedup_ratio", "ratio"},
	{"communities.infer_s", "s"},
	{"locpref.infer_s", "s"},
	{"communities.classified_share", "ratio"},
	{"core.products_s", "s"},
	{"core.dual_stack_links", "count"},
	{"core.hybrids", "count"},
	{"snapshot.capture_s", "s"},
	{"snapshot.encode_s", "s"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.map_s", "s"},
	{"serve.index_s", "s"},
	{"serve.index_heap_mib", "MiB"},
	{"serve.load_ms", "ms"},
	{"serve.changes", "count"},
	{"serve.rel.handler_p50_us", "us"},
	{"serve.rel.handler_p99_us", "us"},
	{"serve.as.handler_p50_us", "us"},
	{"serve.as.handler_p99_us", "us"},
	{"serve.hybrids.handler_p50_us", "us"},
	{"serve.hybrids.handler_p99_us", "us"},
	{"serve.as.resp_bytes", "bytes"},
	{"net.wire_p50_us", "us"},
	{"live.apply_us", "us"},
	{"live.resolve_ms", "ms"},
	{"live.incremental_share", "ratio"},
	{"live.capture_ms", "ms"},
	{"live.swaps", "count"},
	{"live.backlog_max", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.failed", "count"},
	{"trace.overhead_s", "s"},
}

var workloads = map[string]func(context.Context, *env) error{
	"pipeline-12k":   runPipeline,
	"serve-100k":     runServe,
	"live-churn-10k": runLive,
}

var workloadOrder = []string{"pipeline-12k", "serve-100k", "live-churn-10k"}

// env is one workload run's context: its inputs' seed and time budget,
// the tracer (nil when untraced), where figures go, and the tally of
// operations and failed output checks.
type env struct {
	seed    int64
	seconds float64
	tr      *tracer
	rep     *report
	work    string // scratch directory for generated inputs
	conns   int    // client connections: one per CPU

	attempted, failed int
	problems          []string
}

// ops adds operations to the attempted/failed tally.
func (e *env) ops(attempted, failed int) {
	e.attempted += attempted
	e.failed += failed
}

// check records a failed output check; the run then exits non-zero.
func (e *env) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	msg := fmt.Sprintf(format, args...)
	e.problems = append(e.problems, msg)
	e.rep.note("CHECK FAILED: %s", msg)
}

// phase returns a share of the run's measuring time.
func (e *env) phase(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		var ce checkError
		if errors.As(err, &ce) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// checkError reports output checks that failed; the result line has
// already been printed.
type checkError struct{ n int }

func (c checkError) Error() string { return fmt.Sprintf("%d output check(s) failed", c.n) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "pipeline-12k | serve-100k | live-churn-10k | all")
		seed     = fs.Int64("seed", 1, "seed for the world, the feed and the key draws")
		seconds  = fs.Float64("seconds", 10, "measuring time per run")
		trace    = fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		outDir   = fs.String("out", ".bench_build/e2ebench", "directory for generated inputs (removed after the run) and span dumps")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}

	failedChecks := 0
	for _, n := range names {
		// Every workload ends well within the 180 s a run may take.
		ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
		res, err := runWorkload(ctx, n, *seed, *seconds, *trace == 1, *outDir, stdout)
		cancel()
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			failedChecks++
		}
	}
	if failedChecks > 0 {
		return checkError{failedChecks}
	}
	return nil
}

func runWorkload(ctx context.Context, name string, seed int64, seconds float64, traced bool, outDir string, stdout io.Writer) (*result, error) {
	work, err := os.MkdirTemp(mkdir(outDir), "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	e := &env{seed: seed, seconds: seconds, rep: newReport(stdout), work: work, conns: runtime.NumCPU()}
	if traced {
		e.tr = newTracer()
	}
	e.rep.note("workload %s seed %d seconds %g trace %v", name, seed, seconds, traced)
	e.rep.note("env nproc=%d GOMAXPROCS=%d go=%s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	specs := endToEnd
	if traced {
		specs = perLayer
		for _, m := range perLayer {
			e.rep.metrics[m.name] = metric{Unit: m.unit}
		}
	}
	if err := workloads[name](ctx, e); err != nil {
		return nil, err
	}
	if e.attempted > 0 {
		e.rep.set("error_share", float64(e.failed)/float64(e.attempted), "ratio")
	}
	if traced {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := e.tr.dump(path, stdout); err != nil {
			return nil, err
		}
	}

	res := &result{Correct: len(e.problems) == 0 && e.failed == 0, Attempted: e.attempted, Failed: e.failed,
		Metrics: make(map[string]metric, len(specs))}
	for _, m := range specs {
		v, ok := e.rep.metrics[m.name]
		if !ok || v.Unit != m.unit {
			return nil, fmt.Errorf("metric %s (%s) was not reported", m.name, m.unit)
		}
		res.Metrics[m.name] = v
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operations attempted")
	}
	return res, nil
}

func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}
