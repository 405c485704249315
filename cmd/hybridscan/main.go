// Command hybridscan runs the paper's pipeline over MRT archives and an
// IRR database from disk: it recovers per-plane relationships from
// Communities and LocPrf, joins the planes, and reports the hybrid
// links, their census, and the valley-path statistics.
//
// Archives are ingested concurrently through the v2 pipeline; each -v4
// / -v6 element may be a file or a directory (every regular file inside
// is taken as an archive). Interrupting the scan (Ctrl-C) cancels the
// pipeline mid-ingest.
//
// Results can leave the process in machine form: -export writes the
// versioned binary snapshot cmd/hybridserve serves, -export-v2 writes
// the fixed-width artifact (format v3, tables plus serve index)
// hybridserve -mmap maps in place,
// and -json prints the same structs the serving API returns, so the
// batch and serving schemas stay in sync.
//
// Usage:
//
//	hybridscan -irr irr.db -v4 'a.mrt,b.mrt' -v6 'ribs6/' [-top N] [-parallel N] [-progress] [-export out.bin] [-export-v2 out.snap2] [-json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"

	"hybridrel"
	"hybridrel/internal/cli"
	"hybridrel/internal/report"
	"hybridrel/internal/serve"
)

// scanJSON is the -json document: the serving API's stats schema plus
// the full hybrid list, exactly as GET /v1/stats and /v1/hybrids
// would render them.
type scanJSON struct {
	Stats   serve.StatsResponse `json:"stats"`
	Hybrids []serve.HybridJSON  `json:"hybrids"`
}

func main() { cli.Main("hybridscan", run) }

// run is the testable entry point: it parses args, writes results to
// stdout and progress to stderr, and returns instead of exiting.
func run(args []string, stdout, stderr io.Writer) error {
	logger := log.New(stderr, "hybridscan: ", 0)
	fs := flag.NewFlagSet("hybridscan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		irrPath  = fs.String("irr", "", "IRR database (RPSL)")
		v4List   = fs.String("v4", "", "comma-separated IPv4 MRT archives or directories")
		v6List   = fs.String("v6", "", "comma-separated IPv6 MRT archives or directories")
		top      = fs.Int("top", 15, "hybrid links to list")
		parallel = fs.Int("parallel", 0, "pipeline workers (0 = all cores)")
		progress = fs.Bool("progress", false, "log pipeline progress to stderr")
		export   = fs.String("export", "", "write the analysis snapshot to this file")
		exportV2 = fs.String("export-v2", "", "write the snapshot in the fixed-width format (v3: tables plus serve index, mmap-servable via hybridserve -mmap) to this file")
		jsonOut  = fs.Bool("json", false, "print machine-readable JSON instead of tables")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *v6List == "" || *v4List == "" {
		fmt.Fprintln(stderr, "usage: hybridscan -irr irr.db -v4 a.mrt[,b.mrt] -v6 ribs6/ [-parallel N] [-progress] [-export out.bin] [-json]")
		return cli.ErrUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var in hybridrel.Sources
	var err error
	if in.MRT4, err = hybridrel.SourceMRTList(*v4List); err != nil {
		return err
	}
	if in.MRT6, err = hybridrel.SourceMRTList(*v6List); err != nil {
		return err
	}
	if *irrPath != "" {
		in.IRR = hybridrel.SourceFile(*irrPath)
	}

	opts := []hybridrel.Option{hybridrel.WithParallelism(*parallel)}
	if *progress {
		opts = append(opts, hybridrel.WithProgress(func(st hybridrel.Stage, ev hybridrel.Event) {
			logger.Printf("%s: %s (%d/%d)", st, ev.Item, ev.Done, ev.Total)
		}))
	}
	analysis, err := hybridrel.RunPipeline(ctx, in, opts...)
	if err != nil {
		return err
	}

	if *export != "" {
		if err := hybridrel.WriteSnapshotFile(*export, analysis); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "snapshot exported to %s\n\n", *export)
		}
	}
	if *exportV2 != "" {
		if err := hybridrel.WriteSnapshotFileV2(*exportV2, analysis); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "fixed-width (v3) snapshot exported to %s\n\n", *exportV2)
		}
	}

	if *jsonOut {
		snap := hybridrel.CaptureSnapshot(analysis)
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(scanJSON{
			Stats:   serve.StatsOf(snap),
			Hybrids: serve.HybridsOf(snap.Hybrids),
		})
	}

	cov := analysis.Coverage()
	t := report.NewTable("dataset", "quantity", "value")
	t.Row("IPv6 unique AS paths", cov.Paths6)
	t.Row("IPv6 links", cov.Links6)
	t.Row("IPv4 links", cov.Links4)
	t.Row("dual-stack links", cov.DualStack)
	t.Row("IPv6 ToR coverage", report.Pct(cov.Share6()))
	t.Row("dual-stack ToR coverage", report.Pct(cov.ShareDual()))
	if err := t.Write(stdout); err != nil {
		return err
	}

	census := analysis.HybridCensus()
	fmt.Fprintf(stdout, "hybrid links: %d of %d classified dual-stack links (%s)\n\n",
		census.Hybrid, census.DualClassified, report.Pct(census.HybridShare()))

	hybrids := analysis.Hybrids()
	if *top < 0 {
		*top = 0
	}
	if *top > len(hybrids) {
		*top = len(hybrids)
	}
	ht := report.NewTable(fmt.Sprintf("top %d hybrids by IPv6 path visibility", *top),
		"link", "v4", "v6", "class", "paths")
	for _, h := range hybrids[:*top] {
		ht.Row(h.Key.String(), h.V4.String(), h.V6.String(), h.Class.String(), h.Visibility)
	}
	if err := ht.Write(stdout); err != nil {
		return err
	}

	st := analysis.ValleyReport()
	fmt.Fprintf(stdout, "valley paths: %s of classifiable IPv6 paths (%d total); %s of them necessary for reachability\n",
		report.Pct(st.ValleyShare()), st.Valley, report.Pct(st.NecessaryShare()))
	return nil
}
