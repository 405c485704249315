package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hybridrel/internal/bgpsim"
	"hybridrel/internal/community"
	"hybridrel/internal/gen"
	"hybridrel/internal/live"
	"hybridrel/internal/rpsl"
	"hybridrel/internal/scenario"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
)

// The live workload's cadence: hybridserve's -live swap defaults, the
// issue's paced churn rate, and the read rate beside it.
const (
	liveRate     = 400 // paced updates/s
	liveEvery    = 256
	liveInterval = 2 * time.Second
	liveReadRate = 500
	liveDrain    = 4096 // updates applied unpaced after the paced phase
)

// liveInputs is the generated feed, split into the announcement phase
// that converges the table and the churn that follows.
type liveInputs struct {
	dict     *community.Dictionary
	converge []live.Event
	churn    []live.Event
}

// buildLiveInputs generates the world and its update feed, keeping
// churnUpdates churn events; bias steers the flaps onto the planted
// hybrid links. The dictionary comes from the IRR, as hybridserve
// -live builds it.
func buildLiveInputs(cfg gen.Config, feedSeed int64, churnUpdates int, bias bool) (*liveInputs, error) {
	in, err := gen.Build(cfg)
	if err != nil {
		return nil, err
	}
	// Each flap is a withdrawal and a re-announcement.
	fc := bgpsim.FeedConfig{Seed: feedSeed, ChurnEvents: churnUpdates/2 + 1}
	if bias {
		for _, h := range in.Hybrids {
			fc.Bias = append(fc.Bias, h.Key)
		}
	}
	feed, err := bgpsim.GenerateFeed(in, fc)
	if err != nil {
		return nil, err
	}
	var irr bytes.Buffer
	if err := in.WriteIRR(&irr); err != nil {
		return nil, err
	}
	objs, _, err := rpsl.Parse(&irr)
	if err != nil {
		return nil, err
	}
	li := &liveInputs{dict: community.FromIRR(objs)}
	n := feed.NumRoutes()
	for i, ev := range feed.Events {
		le := live.Event{Vantage: ev.Vantage, Data: ev.Data}
		if i < n {
			li.converge = append(li.converge, le)
		} else {
			li.churn = append(li.churn, le)
		}
	}
	if len(li.churn) < churnUpdates {
		return nil, fmt.Errorf("feed has %d churn events, want %d", len(li.churn), churnUpdates)
	}
	li.churn = li.churn[:churnUpdates]
	return li, nil
}

// liveServer is a converged applier and the server its snapshots are
// installed on.
type liveServer struct {
	ap   *live.Applier
	srv  *serve.Server
	lb   *loopback
	base int // updates applied by convergence
}

// liveSetup converges a fresh applier over the announcement phase,
// installs its first snapshot on a new server, and waits for the first
// 200.
func liveSetup(ctx context.Context, tr *tracer, li *liveInputs) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	reg := newRegistry()
	ap := live.NewApplier(live.Config{
		Dict:           li.dict,
		DirtyThreshold: live.DefaultDirtyThreshold,
		Metrics:        live.NewMetrics(reg),
	})
	for _, ev := range li.converge {
		if err := ap.Apply(ev); err != nil {
			return nil, 0, err
		}
	}
	srv := serve.New(nil, serveOptions(reg)...)
	lb, err := listen(srv, tr)
	if err != nil {
		return nil, 0, err
	}
	srv.Load(ap.Snapshot())
	ls := &liveServer{ap: ap, srv: srv, lb: lb}
	ls.base, _ = ap.Applied()
	status, _, err := get(ctx, lb.base+"/v1/stats")
	if err == nil && status != 200 {
		err = fmt.Errorf("first answer: status %d", status)
	}
	if err != nil {
		lb.stop()
		return nil, 0, err
	}
	return ls, time.Since(t0), nil
}

// swapRecord is one installed snapshot: how many churn updates it
// contains and when Server.Load returned.
type swapRecord struct {
	applied int
	at      time.Time
}

// churnResult is one churn run: the paced phase's visibility record
// and reads, and the drain phase's throughput.
type churnResult struct {
	start      time.Time // due time of churn update 0
	paced      int
	swaps      []swapRecord
	reads      *loadResult
	drainSecs  float64
	drainCount int
}

// lagMS returns each paced update's visible lag: from its due time to
// the return of the first Load whose snapshot contains it. ok is false
// if some paced update never became visible.
func (c *churnResult) lagMS() (lags []float64, ok bool) {
	period := time.Second / liveRate
	j := 0
	for i := 0; i < c.paced; i++ {
		for j < len(c.swaps) && c.swaps[j].applied <= i {
			j++
		}
		if j == len(c.swaps) {
			return lags, false
		}
		due := c.start.Add(time.Duration(i) * period)
		lags = append(lags, ms(c.swaps[j].at.Sub(due)))
	}
	return lags, true
}

// installFunc installs a captured snapshot; the workload's is
// Server.Load, and tests substitute faulty ones.
type installFunc func(*serve.Server, *snapshot.Snapshot)

func load(srv *serve.Server, s *snapshot.Snapshot) { srv.Load(s) }

// liveReads draws the reads that run beside the churn.
func liveReads(e *env, ex *expect, n int) []request {
	return ex.reads(rand.New(rand.NewSource(e.seed^0x5eed)), n, liveMix, false)
}

// churn streams paced updates through live.Runner into the server with
// reads beside them, then drains the rest unpaced.
func churn(ctx context.Context, e *env, ls *liveServer, li *liveInputs, reads []request, paced int, install installFunc) (*churnResult, error) {
	res := &churnResult{paced: paced}
	events := make(chan live.Event, 256) // hybridserve's feed buffer
	runner := &live.Runner{
		Applier:  ls.ap,
		Every:    liveEvery,
		Interval: liveInterval,
		Swap: func(s *snapshot.Snapshot) error {
			install(ls.srv, s)
			applied, _ := ls.ap.Applied()
			res.swaps = append(res.swaps, swapRecord{applied: applied - ls.base, at: time.Now()})
			return nil
		},
	}
	done := make(chan error, 1)
	go func() { done <- runner.Run(ctx, events) }()

	lg := &openLoop{base: ls.lb.base, conns: e.conns, tr: e.tr}
	readsDone := make(chan *loadResult, 1)
	res.start = time.Now()
	go func() { readsDone <- lg.run(ctx, reads, liveReadRate) }()
	period := time.Second / liveRate
	send := func(ev live.Event) bool {
		select {
		case events <- ev:
			return true
		case <-ctx.Done():
			return false
		}
	}
	for i, ev := range li.churn[:paced] {
		sleepUntil(res.start.Add(time.Duration(i) * period))
		if !send(ev) {
			break
		}
	}
	res.reads = <-readsDone
	drainStart := time.Now()
	for _, ev := range li.churn[paced:] {
		if !send(ev) {
			break
		}
	}
	close(events)
	err := <-done
	res.drainSecs = time.Since(drainStart).Seconds()
	res.drainCount = len(li.churn) - paced
	return res, err
}

// verifyLive runs the live workload's output checks and returns the
// served snapshot's v2 bytes: no swap went missing, every paced update
// became visible, and the served snapshot equals a full recompute of
// the applier's state (the live-batch equivalence).
func verifyLive(e *env, ls *liveServer, cr *churnResult) ([]byte, error) {
	e.check(int(ls.srv.Generation()) == 1+len(cr.swaps),
		"served generation %d after %d swaps: a captured snapshot was not installed", ls.srv.Generation(), len(cr.swaps))
	if _, ok := cr.lagMS(); !ok {
		e.check(false, "a paced update never became visible")
	}
	var served, want bytes.Buffer
	if err := snapshot.EncodeV2(&served, ls.srv.Snapshot()); err != nil {
		return nil, err
	}
	ls.ap.Recompute()
	if err := snapshot.EncodeV2(&want, ls.ap.Snapshot()); err != nil {
		return nil, err
	}
	e.check(bytes.Equal(served.Bytes(), want.Bytes()), "the live snapshot differs from Applier.Recompute() after the drain")
	return served.Bytes(), nil
}

func runLive(ctx context.Context, e *env) error {
	// Harness: the churn-heavy family at the 10k tier and its feed.
	h0 := time.Now()
	sc, err := scenario.Find("churn-heavy")
	if err != nil {
		return err
	}
	cfg := sc.Config(scenario.Tier10k)
	cfg.Seed = e.seed
	paced := int(liveRate * e.phase(1.5).Seconds())
	li, err := buildLiveInputs(cfg, e.seed^0x1ee7, paced+liveDrain, sc.FlapBias)
	if err != nil {
		return err
	}
	e.rep.set("harness_s", time.Since(h0).Seconds(), "s")
	e.rep.note("inputs: %d routes converge the table, %d churn updates", len(li.converge), len(li.churn))

	// Set-up: converge and serve, several times, keeping the last.
	base := liveHeapMiB()
	var setup []float64
	var ls *liveServer
	for i := 0; i < setupReps; i++ {
		s, d, err := liveSetup(ctx, e.tr, li)
		if err != nil {
			return err
		}
		setup = append(setup, d.Seconds())
		if ls != nil {
			if err := ls.lb.stop(); err != nil {
				return err
			}
		}
		ls = s
	}
	e.rep.set("setup_s", median(setup), "s")
	e.rep.set("heap_mib", liveHeapMiB()-base, "MiB")
	e.ops(setupReps, 0)

	if e.tr == nil {
		li.converge = nil // only the traced replay converges again
	}

	// Harness: read keys from the converged snapshot.
	ex := newExpect(ls.srv.Snapshot())
	reads := liveReads(e, ex, int(liveReadRate*e.phase(1.5).Seconds()))

	// Timed: paced churn with reads beside it, then the drain.
	runtime.GC()
	cr, err := churn(ctx, e, ls, li, reads, paced, load)
	if err != nil {
		return err
	}
	untracedBytes, err := verifyLive(e, ls, cr)
	if err != nil {
		return err
	}
	if err := ls.lb.stop(); err != nil {
		return err
	}
	reportChurn(e, cr)

	if e.tr == nil {
		return nil
	}
	// Traced: converge a fresh applier and replay the same churn with a
	// span around each call Runner makes.
	ls2, _, err := liveSetup(ctx, e.tr, li)
	if err != nil {
		return err
	}
	li.converge = nil
	defer ls2.lb.stop()
	tc, err := replayTraced(ctx, e, ls2, li, reads, paced)
	if err != nil {
		return err
	}
	tracedBytes, err := verifyLive(e, ls2, tc)
	if err != nil {
		return err
	}
	e.check(bytes.Equal(tracedBytes, untracedBytes), "the traced live run ended on a snapshot that differs from the untraced run's")
	e.ops(len(tc.reads.outcomes)+paced+liveDrain, tc.reads.failed)
	e.rep.set("trace.overhead_s", tc.drainSecs-cr.drainSecs, "s")
	return nil
}

// reportChurn reports the untraced churn run's figures.
func reportChurn(e *env, cr *churnResult) {
	e.ops(cr.paced+cr.drainCount, 0)
	reportReads(e, "read", cr.reads)
	setReadMetrics(e, cr.reads)
	lags, _ := cr.lagMS()
	e.rep.timing("visible_lag", lags, "ms")
	e.rep.set("visible_lag_p50_ms", median(lags), "ms")
	e.rep.set("visible_lag_p99_ms", quantile(lags, 0.99), "ms")
	e.rep.set("time_to_answer_s", median(lags)/1000, "s")
	e.rep.set("churn_updates_per_s", float64(cr.drainCount)/cr.drainSecs, "updates/s")
	e.rep.note("swaps %d over %d churn updates", len(cr.swaps), cr.paced+cr.drainCount)
}

// replayTraced replays the churn the way live.Runner drives it — Apply
// per update, and every liveEvery updates (or liveInterval) Resolve,
// Snapshot and Server.Load — with a span around each call.
func replayTraced(ctx context.Context, e *env, ls *liveServer, li *liveInputs, reads []request, paced int) (*churnResult, error) {
	tr := e.tr
	res := &churnResult{paced: paced, drainCount: len(li.churn) - paced}
	lg := &openLoop{base: ls.lb.base, conns: e.conns, tr: tr, reqBase: 1 << 40}
	readsDone := make(chan *loadResult, 1)
	inc0, full0 := ls.ap.Resolves()
	prev := ls.srv.Snapshot()
	changes, pending, backlogMax := 0, 0, 0
	var drainStart time.Time
	period := time.Second / liveRate

	res.start = time.Now()
	lastSwap := res.start
	go func() { readsDone <- lg.run(ctx, reads, liveReadRate) }()
	defer func() {
		if res.reads == nil { // an error ended the replay early
			<-readsDone
		}
	}()
	swap := func() {
		root := tr.begin("live.swap", 0, 0)
		sp := tr.begin("live.resolve", root, 0)
		ls.ap.Resolve()
		tr.end(sp)
		sp = tr.begin("live.capture", root, 0)
		s := ls.ap.Snapshot()
		tr.end(sp)
		sp = tr.begin("serve.load", root, 0)
		ls.srv.Load(s)
		tr.end(sp)
		tr.end(root)
		applied, _ := ls.ap.Applied()
		res.swaps = append(res.swaps, swapRecord{applied: applied - ls.base, at: time.Now()})
		changes += len(snapshot.Diff(prev, s))
		prev, pending, lastSwap = s, 0, time.Now()
	}
	for i, ev := range li.churn {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if i < paced {
			sleepUntil(res.start.Add(time.Duration(i) * period))
			backlogMax = max(backlogMax, int(time.Since(res.start)/period)-i)
		} else if i == paced {
			res.reads = <-readsDone
			drainStart = time.Now()
		}
		sp := tr.begin("live.apply", 0, 0)
		err := ls.ap.Apply(ev)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		pending++
		if pending >= liveEvery || time.Since(lastSwap) >= liveInterval {
			swap()
		}
	}
	if res.reads == nil {
		res.reads = <-readsDone
		drainStart = time.Now()
	}
	if pending > 0 {
		swap()
	}
	res.drainSecs = time.Since(drainStart).Seconds()

	inc, full := ls.ap.Resolves()
	resolves := (inc - inc0) + (full - full0)
	e.rep.set("live.apply_us", median(scaled(time.Microsecond, tr.durations("live.apply"))), "us")
	e.rep.set("live.resolve_ms", median(scaled(time.Millisecond, tr.durations("live.resolve"))), "ms")
	e.rep.set("live.incremental_share", float64(inc-inc0)/float64(max(resolves, 1)), "ratio")
	e.rep.set("live.capture_ms", median(scaled(time.Millisecond, tr.durations("live.capture"))), "ms")
	e.rep.set("live.swaps", float64(len(res.swaps)), "count")
	e.rep.set("live.backlog_max", float64(backlogMax), "count")
	e.rep.set("serve.load_ms", median(scaled(time.Millisecond, tr.durations("serve.load"))), "ms")
	e.rep.set("serve.changes", float64(changes), "count")
	reportLoadgen(e, lg, res.reads)
	return res, nil
}
