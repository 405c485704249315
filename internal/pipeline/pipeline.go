// Package pipeline is the staged, context-aware v2 execution engine of
// the measurement methodology: it ingests MRT archives concurrently
// (one worker per archive, per-archive dataset shards merged in archive
// order so the result is byte-identical to sequential ingestion), mines
// the IRR database in parallel, and runs both per-plane inference
// stacks (communities first, then the LocPrf calibration) side by side.
//
// The package deliberately stops at the inference products; package
// core assembles them into the memoized Analysis. That keeps the
// dependency arrow pointing one way — core wraps pipeline, never the
// reverse — so core.Run can stay a thin compatibility shim.
//
// Package internal/live is this pipeline's streaming counterpart: the
// same ingestion, inference, and assembly primitives driven by a
// continuous BGP UPDATE feed instead of finished archives, contracted
// to produce byte-identical snapshots at any quiescent point (the
// scenario matrix's live-batch-equivalence invariant enforces this on
// every family).
package pipeline

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"hybridrel/internal/asrel"
	"hybridrel/internal/community"
	"hybridrel/internal/dataset"
	communityinfer "hybridrel/internal/infer/communities"
	"hybridrel/internal/infer/locpref"
	"hybridrel/internal/rpsl"
)

// Stage identifies a pipeline stage in progress events.
type Stage int

const (
	// StageIngest decodes MRT archives into per-plane datasets.
	StageIngest Stage = iota
	// StageIRR parses the IRR database into the community dictionary.
	StageIRR
	// StageInfer runs the per-plane relationship inference stacks.
	StageInfer
	// StageAnalyze assembles the final analysis (emitted by core).
	StageAnalyze
)

func (s Stage) String() string {
	switch s {
	case StageIngest:
		return "ingest"
	case StageIRR:
		return "irr"
	case StageInfer:
		return "infer"
	case StageAnalyze:
		return "analyze"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Event is one progress notification. Done/Total count completed units
// within the stage (archives for StageIngest, planes for StageInfer).
type Event struct {
	// Item names what just finished: an archive source, a plane, ...
	Item string
	// Plane is the address family the unit belongs to, when meaningful.
	Plane asrel.AF
	Done  int
	Total int
}

// ProgressFunc observes pipeline progress. Calls are serialized by the
// pipeline, so the callback needs no locking of its own.
type ProgressFunc func(Stage, Event)

// Config is the resolved pipeline configuration.
type Config struct {
	// LocPref tunes the LocPrf calibration step.
	LocPref locpref.Config
	// Parallelism bounds concurrent workers; values < 1 mean GOMAXPROCS.
	Parallelism int
	// Progress, when set, observes stage completion events.
	Progress ProgressFunc
	// Metrics, when set, receives ingest tallies (WithMetrics).
	Metrics *Metrics
}

// Option customizes a pipeline, functional-options style.
type Option func(*Config)

// WithLocPref overrides the LocPrf calibration configuration.
func WithLocPref(cfg locpref.Config) Option {
	return func(c *Config) { c.LocPref = cfg }
}

// WithParallelism bounds the number of concurrent pipeline workers.
// One means fully sequential execution; values < 1 restore the default
// (GOMAXPROCS). Output is deterministic at every setting.
func WithParallelism(n int) Option {
	return func(c *Config) { c.Parallelism = n }
}

// WithProgress installs a progress observer.
func WithProgress(fn ProgressFunc) Option {
	return func(c *Config) { c.Progress = fn }
}

// NewConfig resolves options over the paper-faithful defaults.
func NewConfig(opts ...Option) Config {
	c := Config{
		LocPref:     locpref.DefaultConfig(),
		Parallelism: runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	if c.Parallelism < 1 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// Result carries everything the pipeline produces: the ingested
// per-plane datasets, the community dictionary, and the per-plane
// inference results. Package core folds a Result into an Analysis.
type Result struct {
	D4, D6 *dataset.Dataset
	Dict   *community.Dictionary

	Comm4, Comm6 *communityinfer.Result
	Loc4, Loc6   *locpref.Result
}

// Pipeline executes the staged methodology under one configuration.
// A Pipeline is reusable and safe for concurrent use as long as its
// input sources are (Bytes and File sources are; Reader sources are
// one-shot).
type Pipeline struct {
	cfg Config
}

// New builds a pipeline from options over the defaults.
func New(opts ...Option) *Pipeline { return &Pipeline{cfg: NewConfig(opts...)} }

// Config returns the resolved configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// emit serializes progress callbacks.
func (p *Pipeline) emit(mu *sync.Mutex, stage Stage, ev Event) {
	if p.cfg.Progress == nil {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	p.cfg.Progress(stage, ev)
}

// group is a minimal errgroup: parallelism-bounded goroutines, first
// error wins, the shared context is canceled on failure.
type group struct {
	wg     sync.WaitGroup
	sem    chan struct{}
	cancel context.CancelFunc

	mu  sync.Mutex
	err error
}

func newGroup(parallelism int, cancel context.CancelFunc) *group {
	return &group{sem: make(chan struct{}, parallelism), cancel: cancel}
}

func (g *group) fail(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err == nil {
		g.err = err
		g.cancel()
	}
}

func (g *group) go_(ctx context.Context, fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		select {
		case g.sem <- struct{}{}:
			defer func() { <-g.sem }()
		case <-ctx.Done():
			g.fail(ctx.Err())
			return
		}
		if err := ctx.Err(); err != nil {
			g.fail(err)
			return
		}
		if err := fn(); err != nil {
			g.fail(err)
		}
	}()
}

func (g *group) wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// ctxReader aborts reads once the context is canceled, so ingestion
// stops mid-archive rather than at the next archive boundary.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(b []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(b)
}

// Ingest runs the ingestion stage: every archive of both planes is
// decoded by its own worker into a dataset shard — each shard with its
// own path arena and link accumulator, so workers share no
// state — the IRR database is parsed alongside, and the frozen shards
// are merged in archive order with linear two-pointer walks, which
// makes the merged datasets identical to sequential ingestion. At
// parallelism one the stage skips the shards and workers entirely and
// ingests straight into the final datasets in archive order — the same
// result without the merge cost. The returned Result has D4, D6 and
// Dict populated; the inference fields are nil.
func (p *Pipeline) Ingest(ctx context.Context, in Sources) (*Result, error) {
	if p.cfg.Parallelism == 1 {
		return p.ingestSequential(ctx, in)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	g := newGroup(p.cfg.Parallelism, cancel)

	var progressMu sync.Mutex
	totalArchives := len(in.MRT4) + len(in.MRT6)
	ingested := 0
	// The counter increment and the callback share one critical section
	// so observers never see Done values out of order.
	archiveDone := func(name string, af asrel.AF) {
		progressMu.Lock()
		defer progressMu.Unlock()
		ingested++
		if p.cfg.Progress != nil {
			p.cfg.Progress(StageIngest, Event{Item: name, Plane: af, Done: ingested, Total: totalArchives})
		}
	}

	shards4 := make([]*dataset.Dataset, len(in.MRT4))
	shards6 := make([]*dataset.Dataset, len(in.MRT6))
	ingest := func(af asrel.AF, src Source, slot **dataset.Dataset) func() error {
		return func() error {
			d := dataset.New(af)
			if err := p.ingestOne(ctx, af, src, d); err != nil {
				return err
			}
			// Freeze the shard inside the worker: the flat link fold and
			// the canonical path sort happen in parallel across shards,
			// leaving only linear two-pointer walks for the ordered
			// merge below.
			d.Freeze()
			*slot = d
			archiveDone(src.Name(), af)
			return nil
		}
	}
	for i, src := range in.MRT4 {
		g.go_(ctx, ingest(asrel.IPv4, src, &shards4[i]))
	}
	for i, src := range in.MRT6 {
		g.go_(ctx, ingest(asrel.IPv6, src, &shards6[i]))
	}

	dict := community.NewDictionary()
	if in.IRR != nil {
		g.go_(ctx, func() error {
			d, err := p.parseIRR(ctx, in.IRR)
			if err != nil {
				return err
			}
			dict = d
			p.emit(&progressMu, StageIRR, Event{Item: in.IRR.Name(), Done: 1, Total: 1})
			return nil
		})
	}

	if err := g.wait(); err != nil {
		return nil, err
	}

	// Merge in archive order: deterministic regardless of which worker
	// finished first, and exactly equal to sequential ingestion. The
	// first shard of each plane is adopted as the merge base rather
	// than re-inserted path by path.
	res := &Result{Dict: dict}
	var err error
	if res.D4, err = mergeShards(asrel.IPv4, shards4); err != nil {
		return nil, err
	}
	if res.D6, err = mergeShards(asrel.IPv6, shards6); err != nil {
		return nil, err
	}
	p.recordIngest(in, res)
	return res, nil
}

func mergeShards(af asrel.AF, shards []*dataset.Dataset) (*dataset.Dataset, error) {
	if len(shards) == 0 {
		return dataset.New(af), nil
	}
	base := shards[0]
	for _, s := range shards[1:] {
		if err := base.Merge(s); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
	}
	return base, nil
}

// ingestOne decodes one archive into d through a context-aware reader.
func (p *Pipeline) ingestOne(ctx context.Context, af asrel.AF, src Source, d *dataset.Dataset) error {
	rc, err := src.Open(ctx)
	if err != nil {
		return fmt.Errorf("pipeline: open %s archive %s: %w", af, src.Name(), err)
	}
	defer rc.Close()
	if err := d.AddMRT(&ctxReader{ctx: ctx, r: rc}); err != nil {
		return fmt.Errorf("pipeline: %s archive %s: %w", af, src.Name(), err)
	}
	return nil
}

func (p *Pipeline) parseIRR(ctx context.Context, src Source) (*community.Dictionary, error) {
	rc, err := src.Open(ctx)
	if err != nil {
		return nil, fmt.Errorf("pipeline: open IRR %s: %w", src.Name(), err)
	}
	defer rc.Close()
	objs, _, err := rpsl.Parse(&ctxReader{ctx: ctx, r: rc})
	if err != nil {
		return nil, fmt.Errorf("pipeline: IRR %s: %w", src.Name(), err)
	}
	return community.FromIRR(objs), nil
}

// ingestSequential is the parallelism-one fast path: no workers, no
// shards, no merge — archives stream straight into the final datasets
// in archive order, still honoring cancellation mid-archive.
func (p *Pipeline) ingestSequential(ctx context.Context, in Sources) (*Result, error) {
	var progressMu sync.Mutex
	totalArchives := len(in.MRT4) + len(in.MRT6)
	ingested := 0
	res := &Result{D4: dataset.New(asrel.IPv4), D6: dataset.New(asrel.IPv6), Dict: community.NewDictionary()}
	for _, plane := range []struct {
		af   asrel.AF
		srcs []Source
		d    *dataset.Dataset
	}{
		{asrel.IPv4, in.MRT4, res.D4},
		{asrel.IPv6, in.MRT6, res.D6},
	} {
		for _, src := range plane.srcs {
			if err := p.ingestOne(ctx, plane.af, src, plane.d); err != nil {
				return nil, err
			}
			ingested++
			p.emit(&progressMu, StageIngest, Event{Item: src.Name(), Plane: plane.af, Done: ingested, Total: totalArchives})
		}
	}
	if in.IRR != nil {
		dict, err := p.parseIRR(ctx, in.IRR)
		if err != nil {
			return nil, err
		}
		res.Dict = dict
		p.emit(&progressMu, StageIRR, Event{Item: in.IRR.Name(), Done: 1, Total: 1})
	}
	p.recordIngest(in, res)
	return res, nil
}

// Run executes ingestion followed by the per-plane inference stacks,
// the two planes inferring in parallel. Within one plane the stack is
// ordered: the communities miner runs first, then the LocPrf
// calibration extends its table.
func (p *Pipeline) Run(ctx context.Context, in Sources) (*Result, error) {
	res, err := p.Ingest(ctx, in)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	g := newGroup(p.cfg.Parallelism, cancel)
	var progressMu sync.Mutex
	var inferred int
	infer := func(af asrel.AF, d *dataset.Dataset, comm **communityinfer.Result, loc **locpref.Result) func() error {
		return func() error {
			paths := d.Paths()
			c := communityinfer.Infer(paths, res.Dict)
			if err := ctx.Err(); err != nil {
				return err
			}
			l := locpref.Infer(paths, res.Dict, c.Table, p.cfg.LocPref)
			*comm, *loc = c, l
			progressMu.Lock()
			defer progressMu.Unlock()
			inferred++
			if p.cfg.Progress != nil {
				p.cfg.Progress(StageInfer, Event{Item: af.String(), Plane: af, Done: inferred, Total: 2})
			}
			return nil
		}
	}
	g.go_(ctx, infer(asrel.IPv4, res.D4, &res.Comm4, &res.Loc4))
	g.go_(ctx, infer(asrel.IPv6, res.D6, &res.Comm6, &res.Loc6))
	if err := g.wait(); err != nil {
		return nil, err
	}
	return res, nil
}
