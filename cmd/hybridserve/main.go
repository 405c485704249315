// Command hybridserve exposes hybrid-relationship analysis results
// over the HTTP JSON API. It serves from one of three sources:
//
//   - an exported snapshot file (-snapshot out.bin), the production
//     path: the batch pipeline (hybridscan -export) produces the
//     artifact, hybridserve loads and indexes it; with -mmap a
//     fixed-width artifact (hybridscan -export-v2) is validated,
//     memory-mapped and served in place — a v3 file carries its serve
//     index, so nothing is sorted or copied on load, a corrupt file
//     fails the load or reload instead of being served, and hot
//     reloads unmap a retired generation only after its last
//     in-flight reader finishes;
//   - raw measurement data (-irr, -v4, -v6), running the v2 pipeline
//     once at startup and serving the result;
//   - a synthetic world (-synth small|default), handy for demos and
//     load tests with no data on disk;
//   - a live synthetic BGP feed (-live small|default): the world's
//     routing table is converged once, then churned forever as a
//     paced stream of UPDATE announcements and withdrawals through
//     the internal/live ingester, with the re-inferred snapshot
//     hot-swapped into the serving state on a cadence;
//   - real BGP4MP UPDATE archives (-live-mrt 'updates.*'): RIS /
//     RouteViews update files replayed through the same live
//     ingester in timestamp order, optionally with -irr for the
//     community dictionary.
//
// With -history N the server keeps the last N installed snapshots and
// answers ?at=<RFC3339|unix> time-travel queries on /v1/rel and
// /v1/as/{asn}; every hot-swap also diffs consecutive snapshots onto
// the GET /v1/changes relationship-change feed (journal bounded in
// memory; no flag needed). Malformed events on a live stream are
// counted (hybridrel_live_parse_errors_total) and dropped, never
// fatal.
//
// The process hot-reloads without dropping a request: SIGHUP or POST
// /v1/reload re-runs the loader (re-reads the snapshot file or re-runs
// the pipeline) and atomically swaps the indexed state; in -live mode
// the stream itself drives the swaps and /v1/stats exposes the swap
// generation and snapshot age.  SIGINT/SIGTERM shut down gracefully —
// live mode drains buffered updates and installs one final snapshot
// before the listener closes.
//
// Every run is production-instrumented: GET /metrics exposes the
// serving, live-ingest, and pipeline series in the Prometheus text
// format, /healthz answers the instant the listener is up (liveness)
// while /readyz flips only once a snapshot is installed (readiness),
// -request-timeout bounds each data-plane request, -reload-timeout
// bounds snapshot reloads, -max-inflight sheds excess concurrency with
// 429 + Retry-After, -log-json streams one JSON access record per
// request to stdout, and -pprof mounts net/http/pprof under
// /debug/pprof/ for on-demand profiling.
//
// Usage:
//
//	hybridserve -snapshot out.bin [-mmap] [-addr :8080]
//	hybridserve -irr irr.db -v4 ribs4/ -v6 ribs6/ [-addr :8080] [-parallel N]
//	hybridserve -synth small [-addr :8080]
//	hybridserve -live small [-addr :8080] [-live-rate 200] [-live-every 256] [-live-interval 2s]
//	hybridserve -live-mrt 'ris/updates.*' [-irr irr.db] [-live-rate 0] [-history 16]
//	hybridserve ... [-history 16] [-log-json] [-request-timeout 30s] [-reload-timeout 5m] [-max-inflight 1024] [-pprof]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hybridrel"
	"hybridrel/internal/bgpsim"
	"hybridrel/internal/cli"
	"hybridrel/internal/community"
	"hybridrel/internal/gen"
	"hybridrel/internal/live"
	"hybridrel/internal/obs"
	"hybridrel/internal/rpsl"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
)

func main() { cli.Main("hybridserve", run) }

// baseContext is the root the signal-handling context derives from.
// The end-to-end test swaps it for a cancelable context so it can
// drive a clean shutdown without signaling the whole test process.
var baseContext = context.Background

// run is the testable entry point: it parses args, loads the snapshot
// source, and serves until interrupted. Mode and flag errors return
// before anything listens.
func run(args []string, stdout, stderr io.Writer) error {
	logger := log.New(stderr, "hybridserve: ", 0)
	fs := flag.NewFlagSet("hybridserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		snapPath   = fs.String("snapshot", "", "serve an exported snapshot file")
		mmapOn     = fs.Bool("mmap", false, "memory-map the -snapshot file instead of decoding it (requires a fixed-width artifact from -export-v2; validated on load, a v3 file's serve index is used in place)")
		irrPath    = fs.String("irr", "", "IRR database (RPSL), pipeline mode")
		v4List     = fs.String("v4", "", "comma-separated IPv4 MRT archives or directories, pipeline mode")
		v6List     = fs.String("v6", "", "comma-separated IPv6 MRT archives or directories, pipeline mode")
		synth      = fs.String("synth", "", "serve a synthetic world: small | default")
		liveMode   = fs.String("live", "", "stream a live synthetic BGP feed: small | default")
		liveMRT    = fs.String("live-mrt", "", "replay BGP4MP UPDATE archives matching this glob through the live ingester")
		history    = fs.Int("history", 0, "keep the last N installed snapshots for ?at= time-travel queries (0 disables)")
		liveRate   = fs.Int("live-rate", 200, "live mode: updates per second streamed into the ingester")
		liveEvr    = fs.Int("live-every", 256, "live mode: hot-swap a snapshot after this many applied updates")
		liveIvl    = fs.Duration("live-interval", 2*time.Second, "live mode: also hot-swap on this timer when updates arrived")
		parallel   = fs.Int("parallel", 0, "pipeline workers (0 = all cores)")
		grace      = fs.Duration("grace", 10*time.Second, "graceful-shutdown timeout")
		logJSON    = fs.Bool("log-json", false, "write one JSON access record per request to stdout")
		reqTimeout = fs.Duration("request-timeout", 30*time.Second, "per-request handler deadline; exceeded requests answer 503 (0 disables)")
		relTimeout = fs.Duration("reload-timeout", 5*time.Minute, "snapshot-reload deadline; exceeded reloads answer 504 and keep the old snapshot (0 disables)")
		maxInfl    = fs.Int("max-inflight", 1024, "concurrent-request ceiling; excess requests answer 429 with Retry-After (0 disables)")
		pprofOn    = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	// One registry per invocation: run() is re-entered by tests, and
	// series registration is deliberately panic-on-duplicate.
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	serveOpts := []serve.Option{
		serve.WithMetrics(reg),
		serve.WithRequestTimeout(*reqTimeout),
		serve.WithReloadTimeout(*relTimeout),
		serve.WithMaxInflight(*maxInfl),
		serve.WithHistory(*history),
	}
	if *logJSON {
		serveOpts = append(serveOpts, serve.WithAccessLog(stdout))
	}

	if *liveMode != "" {
		if *snapPath != "" || *irrPath != "" || *v4List != "" || *v6List != "" || *synth != "" || *liveMRT != "" {
			fmt.Fprintln(stderr, "hybridserve: -live cannot be combined with other source modes")
			return cli.ErrUsage
		}
		return runLive(liveOptions{
			scale:     *liveMode,
			addr:      *addr,
			rate:      *liveRate,
			every:     *liveEvr,
			interval:  *liveIvl,
			grace:     *grace,
			reg:       reg,
			serveOpts: serveOpts,
			pprof:     *pprofOn,
		}, logger)
	}

	if *liveMRT != "" {
		// -irr is allowed: it supplies the community dictionary the
		// inference stage mines; everything else is a different source.
		if *snapPath != "" || *v4List != "" || *v6List != "" || *synth != "" {
			fmt.Fprintln(stderr, "hybridserve: -live-mrt cannot be combined with other source modes")
			return cli.ErrUsage
		}
		return runLiveMRT(liveOptions{
			glob:      *liveMRT,
			irr:       *irrPath,
			addr:      *addr,
			rate:      *liveRate,
			every:     *liveEvr,
			interval:  *liveIvl,
			grace:     *grace,
			reg:       reg,
			serveOpts: serveOpts,
			pprof:     *pprofOn,
		}, logger)
	}

	if *mmapOn && *snapPath == "" {
		fmt.Fprintln(stderr, "hybridserve: -mmap needs -snapshot")
		return cli.ErrUsage
	}
	load, err := loader(*snapPath, *mmapOn, *irrPath, *v4List, *v6List, *synth, *parallel,
		hybridrel.NewPipelineMetrics(reg))
	if err != nil {
		fmt.Fprintf(stderr, "hybridserve: %v\n", err)
		fmt.Fprintln(stderr, "usage: hybridserve -snapshot out.bin | -irr irr.db -v4 ribs4/ -v6 ribs6/ | -synth small")
		return cli.ErrUsage
	}

	ctx, stop := signal.NotifyContext(baseContext(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	snap, err := load(ctx)
	if err != nil {
		return err
	}
	logger.Printf("snapshot ready in %v: %d hybrids, %d IPv4 links, %d IPv6 links",
		time.Since(start).Round(time.Millisecond),
		len(snap.Hybrids), len(snap.Links4), len(snap.Links6))

	srv := hybridrel.NewServer(snap, append(serveOpts, hybridrel.WithReload(load))...)

	// SIGHUP hot-reloads: the loader re-runs and the indexed state swaps
	// atomically, so in-flight requests never observe a partial load.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	// Stop then close so the reload goroutine's range loop terminates
	// with run() — callers of the reusable entry point must not leak a
	// goroutine per invocation. Stop guarantees no send after return,
	// so the close cannot race a delivery.
	defer func() {
		signal.Stop(hup)
		close(hup)
	}()
	go func() {
		for range hup {
			if err := srv.Reload(ctx); err != nil {
				logger.Printf("reload failed (still serving previous snapshot): %v", err)
				continue
			}
			// Summary, not Snapshot(): with -mmap a borrowed snapshot
			// could be unmapped by a racing reload mid-read.
			_, l4, l6, hyb, _ := srv.Summary()
			logger.Printf("reloaded: %d hybrids, %d IPv4 links, %d IPv6 links", hyb, l4, l6)
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("serving on http://%s (GET /v1/rel /v1/as/{asn} /v1/hybrids /v1/stats /healthz /readyz /metrics, POST /v1/reload)", ln.Addr())

	hs := &http.Server{Handler: withPprof(srv, *pprofOn)}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		logger.Printf("shutting down (in-flight requests get %v)...", *grace)
		shCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		return hs.Shutdown(shCtx)
	}
}

// withPprof mounts the net/http/pprof handlers in front of h when
// enabled. Profiling stays opt-in: the endpoints expose internals and
// cost CPU while sampling, so production runs choose them explicitly.
func withPprof(h http.Handler, enabled bool) http.Handler {
	if !enabled {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	mux.Handle("/", h)
	return mux
}

// liveOptions bundles the -live and -live-mrt mode configuration.
type liveOptions struct {
	scale     string // -live: synthetic world scale
	glob      string // -live-mrt: archive glob
	irr       string // -live-mrt: optional IRR database for the dictionary
	addr      string
	rate      int
	every     int
	interval  time.Duration
	grace     time.Duration
	reg       *obs.Registry
	serveOpts []serve.Option
	pprof     bool
}

// runLive is the -live mode: build a synthetic world, converge its
// routing table through the streaming ingester, then churn it forever
// as a paced UPDATE stream, hot-swapping a freshly re-inferred
// snapshot into the serving state on the configured cadence.
//
// The listener comes up before the world is built: /healthz and
// /metrics answer immediately, data endpoints answer 503 and /readyz
// stays not-ready until the converged table is installed. Shutdown
// drains: buffered updates are applied and one final snapshot is
// installed before the listener closes.
func runLive(lo liveOptions, logger *log.Logger) error {
	cfg := gen.DefaultConfig()
	switch lo.scale {
	case "small":
		cfg = gen.SmallConfig()
	case "default":
	default:
		return fmt.Errorf("unknown -live scale %q (want small or default)", lo.scale)
	}

	ctx, stop := signal.NotifyContext(baseContext(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen first, serve the pre-load window: liveness and metrics are
	// observable while the table converges.
	srv := serve.New(nil, lo.serveOpts...)
	ln, err := net.Listen("tcp", lo.addr)
	if err != nil {
		return err
	}
	logger.Printf("serving live on http://%s (converging table; /readyz flips after the first snapshot; ~%d updates/s, swap every %d updates or %v)",
		ln.Addr(), lo.rate, lo.every, lo.interval)
	hs := &http.Server{Handler: withPprof(srv, lo.pprof)}
	defer hs.Close()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	start := time.Now()
	in, err := gen.Build(cfg)
	if err != nil {
		return err
	}
	var irr bytes.Buffer
	if err := in.WriteIRR(&irr); err != nil {
		return err
	}
	objs, _, err := rpsl.Parse(&irr)
	if err != nil {
		return err
	}
	ap := live.NewApplier(live.Config{
		Dict: community.FromIRR(objs),
		// Zero now means "always recompute in full"; the serving loop
		// wants the incremental steady state, so say so explicitly.
		DirtyThreshold: live.DefaultDirtyThreshold,
		Metrics:        live.NewMetrics(lo.reg),
	})

	// Converge once synchronously so the server starts with a full
	// table, then stream only churn.
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: cfg.Seed ^ 0x11fe, ChurnEvents: 1000})
	if err != nil {
		return err
	}
	n := feed.NumRoutes()
	for _, ev := range feed.Events[:n] {
		if err := ap.Apply(live.Event{Vantage: ev.Vantage, Data: ev.Data}); err != nil {
			return err
		}
	}
	snap := ap.Snapshot()
	srv.Load(snap)
	logger.Printf("live table converged in %v: %d routes, %d hybrids, %d IPv4 links, %d IPv6 links",
		time.Since(start).Round(time.Millisecond), n,
		len(snap.Hybrids), len(snap.Links4), len(snap.Links6))

	// Producer: pace the churn tail into the ingester; when a feed is
	// exhausted, generate the next cycle's flaps against the same
	// (already converged) table.
	events := make(chan live.Event, 256)
	go func() {
		defer close(events)
		var pace <-chan time.Time
		if lo.rate > 0 {
			t := time.NewTicker(time.Second / time.Duration(lo.rate))
			defer t.Stop()
			pace = t.C
		}
		for cycle := int64(0); ; cycle++ {
			f := feed
			if cycle > 0 {
				var err error
				f, err = bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: cfg.Seed ^ 0x11fe ^ cycle, ChurnEvents: 1000})
				if err != nil {
					logger.Printf("live feed generation failed, stream ends: %v", err)
					return
				}
			}
			// Skip the announcement phase: those routes are already
			// active, re-announcing them would be a no-op.
			for _, ev := range f.Events[f.NumRoutes():] {
				if pace != nil {
					select {
					case <-ctx.Done():
						return
					case <-pace:
					}
				}
				select {
				case <-ctx.Done():
					return
				case events <- live.Event{Vantage: ev.Vantage, Data: ev.Data}:
				}
			}
		}
	}()

	runner := &live.Runner{
		Applier: ap,
		Swap: func(s *snapshot.Snapshot) error {
			srv.Load(s)
			logger.Printf("hot-swapped snapshot generation %d: %d hybrids, %d IPv4 links, %d IPv6 links",
				srv.Generation(), len(s.Hybrids), len(s.Links4), len(s.Links6))
			return nil
		},
		Every:    lo.every,
		Interval: lo.interval,
		Log:      logger.Printf,
	}
	runnerDone := make(chan error, 1)
	go func() { runnerDone <- runner.Run(ctx, events) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		// Drain the ingester first: Run applies whatever the feed
		// buffered and installs one final snapshot before returning.
		if err := <-runnerDone; err != nil {
			logger.Printf("live ingest ended with: %v", err)
		}
		applied, withdrawals := ap.Applied()
		logger.Printf("drained: %d updates applied (%d withdrawals), final generation %d",
			applied, withdrawals, srv.Generation())
		logger.Printf("shutting down (in-flight requests get %v)...", lo.grace)
		shCtx, cancel := context.WithTimeout(context.Background(), lo.grace)
		defer cancel()
		return hs.Shutdown(shCtx)
	}
}

// runLiveMRT is the -live-mrt mode: load BGP4MP UPDATE archives,
// replay them through the streaming ingester in timestamp order at the
// configured rate, and hot-swap re-inferred snapshots on the cadence.
// When the replay is exhausted the final snapshot stays up and the
// process keeps serving until a signal arrives — an archive replay is
// a bounded stream, not an error.
//
// As in -live mode, the listener comes up before any data: /healthz
// and /metrics answer while the archives load, and /readyz flips on
// the first installed snapshot.
func runLiveMRT(lo liveOptions, logger *log.Logger) error {
	ctx, stop := signal.NotifyContext(baseContext(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := serve.New(nil, lo.serveOpts...)
	ln, err := net.Listen("tcp", lo.addr)
	if err != nil {
		return err
	}
	logger.Printf("serving live on http://%s (loading MRT archives %q; /readyz flips after the first snapshot)",
		ln.Addr(), lo.glob)
	hs := &http.Server{Handler: withPprof(srv, lo.pprof)}
	defer hs.Close()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	start := time.Now()
	feed, err := live.LoadMRTFeed(lo.glob)
	if err != nil {
		return err
	}
	var objs []rpsl.AutNum
	if lo.irr != "" {
		f, err := os.Open(lo.irr)
		if err != nil {
			return err
		}
		objs, _, err = rpsl.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	logger.Printf("loaded %d UPDATE events from %d archive(s) in %v (%d non-UPDATE records skipped)",
		len(feed.Events), len(feed.Files), time.Since(start).Round(time.Millisecond), feed.Skipped)

	ap := live.NewApplier(live.Config{
		Dict:           community.FromIRR(objs),
		DirtyThreshold: live.DefaultDirtyThreshold,
		Metrics:        live.NewMetrics(lo.reg),
	})

	events := make(chan live.Event, 256)
	go func() {
		defer close(events)
		var pace <-chan time.Time
		if lo.rate > 0 {
			t := time.NewTicker(time.Second / time.Duration(lo.rate))
			defer t.Stop()
			pace = t.C
		}
		for _, e := range feed.Events {
			if pace != nil {
				select {
				case <-ctx.Done():
					return
				case <-pace:
				}
			}
			select {
			case <-ctx.Done():
				return
			case events <- e.Event:
			}
		}
	}()

	runner := &live.Runner{
		Applier: ap,
		Swap: func(s *snapshot.Snapshot) error {
			srv.Load(s)
			logger.Printf("hot-swapped snapshot generation %d: %d hybrids, %d IPv4 links, %d IPv6 links",
				srv.Generation(), len(s.Hybrids), len(s.Links4), len(s.Links6))
			return nil
		},
		Every:    lo.every,
		Interval: lo.interval,
		Log:      logger.Printf,
	}
	runnerDone := make(chan error, 1)
	go func() { runnerDone <- runner.Run(ctx, events) }()

	shutdown := func() error {
		stop()
		applied, withdrawals := ap.Applied()
		logger.Printf("drained: %d updates applied (%d withdrawals), final generation %d",
			applied, withdrawals, srv.Generation())
		logger.Printf("shutting down (in-flight requests get %v)...", lo.grace)
		shCtx, cancel := context.WithTimeout(context.Background(), lo.grace)
		defer cancel()
		return hs.Shutdown(shCtx)
	}

	for {
		select {
		case err := <-errc:
			return err
		case err := <-runnerDone:
			if err != nil {
				logger.Printf("live ingest ended with: %v", err)
			} else {
				applied, withdrawals := ap.Applied()
				logger.Printf("replay complete: %d updates applied (%d withdrawals), final generation %d; serving until interrupted",
					applied, withdrawals, srv.Generation())
			}
			runnerDone = nil // keep serving; wait for errc or signal
		case <-ctx.Done():
			if runnerDone != nil {
				if err := <-runnerDone; err != nil {
					logger.Printf("live ingest ended with: %v", err)
				}
			}
			return shutdown()
		}
	}
}

// loader builds the snapshot source for the selected mode; the same
// function serves the initial load and every hot reload, folding each
// pipeline run's ingest tallies into pm.
func loader(snapPath string, mmapOn bool, irrPath, v4List, v6List, synth string, parallel int, pm *hybridrel.PipelineMetrics) (serve.LoadFunc, error) {
	modes := 0
	for _, on := range []bool{snapPath != "", v4List != "" || v6List != "" || irrPath != "", synth != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return nil, errors.New("pick exactly one of -snapshot, -v4/-v6/-irr, or -synth")
	}

	switch {
	case snapPath != "":
		if mmapOn {
			// Map instead of decode: the serving layer refcounts mapped
			// snapshots, so hot reloads unmap a retired generation only
			// after its last reader finishes.
			return func(context.Context) (*hybridrel.Snapshot, error) {
				return hybridrel.MapSnapshot(snapPath)
			}, nil
		}
		return func(context.Context) (*hybridrel.Snapshot, error) {
			return hybridrel.OpenSnapshot(snapPath)
		}, nil

	case synth != "":
		cfg := hybridrel.DefaultWorldConfig()
		switch synth {
		case "small":
			cfg = hybridrel.SmallWorldConfig()
		case "default":
		default:
			return nil, fmt.Errorf("unknown -synth scale %q (want small or default)", synth)
		}
		return func(ctx context.Context) (*hybridrel.Snapshot, error) {
			w, err := hybridrel.Synthesize(cfg)
			if err != nil {
				return nil, err
			}
			a, err := hybridrel.RunPipeline(ctx, w.Sources(),
				hybridrel.WithParallelism(parallel), hybridrel.WithPipelineMetrics(pm))
			if err != nil {
				return nil, err
			}
			return hybridrel.CaptureSnapshot(a), nil
		}, nil

	default:
		if v4List == "" || v6List == "" {
			return nil, errors.New("pipeline mode needs both -v4 and -v6")
		}
		return func(ctx context.Context) (*hybridrel.Snapshot, error) {
			var in hybridrel.Sources
			var err error
			if in.MRT4, err = hybridrel.SourceMRTList(v4List); err != nil {
				return nil, err
			}
			if in.MRT6, err = hybridrel.SourceMRTList(v6List); err != nil {
				return nil, err
			}
			if irrPath != "" {
				in.IRR = hybridrel.SourceFile(irrPath)
			}
			a, err := hybridrel.RunPipeline(ctx, in,
				hybridrel.WithParallelism(parallel), hybridrel.WithPipelineMetrics(pm))
			if err != nil {
				return nil, err
			}
			return hybridrel.CaptureSnapshot(a), nil
		}, nil
	}
}
