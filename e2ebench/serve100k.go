package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hybridrel/internal/scale"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
)

// ladder is the offered-rate ladder of serve-100k, in the order it
// runs, with each step's share of the measuring time. The reference
// rate (readRate, where the read_* metrics come from) runs in four
// slices between the other rungs, so its figures sample the whole run
// rather than one stretch of it.
var ladder = []struct {
	rate, share float64
}{
	{readRate, 0.35}, {1000, 0.1}, {readRate, 0.35}, {4000, 0.1},
	{readRate, 0.35}, {8000, 0.1}, {readRate, 0.35},
}

// reloadReps is how many reloads time_to_answer_s is the median of.
const reloadReps = 5

// latencyLimitMS is the p99 limit a rung must meet to count toward
// read_max_rps.
const latencyLimitMS = 10

func runServe(ctx context.Context, e *env) error {
	// Harness: the internet-scale world, written as a v2 file.
	h0 := time.Now()
	cfg := scale.Tier100k()
	cfg.Seed = e.seed
	world, err := scale.Build(cfg)
	if err != nil {
		return err
	}
	path := filepath.Join(e.work, "world.snap2")
	if err := snapshot.WriteFileV2(path, world); err != nil {
		return err
	}
	if e.tr != nil {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		e.rep.set("snapshot.bytes", float64(fi.Size()), "bytes")
	}
	e.rep.note("inputs: %d v4 links, %d v6 links, %d hybrids", len(world.Links4), len(world.Links6), len(world.Hybrids))
	// The expected answers come from the generated snapshot's tables —
	// the same tables the file carries, held on the heap, so they stay
	// readable after a reload unmaps the file they were served from.
	ex := newExpect(world)
	e.rep.set("harness_s", time.Since(h0).Seconds(), "s")

	// Set-up: map, index, serve, first answer — several times, keeping
	// the last server.
	base := liveHeapMiB()
	var setup []float64
	var cur *served
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := mapAndServe(ctx, e, path)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if cur != nil {
			if err := cur.close(); err != nil {
				return err
			}
		}
		cur = s
	}
	e.rep.set("setup_s", median(setup), "s")
	e.rep.set("heap_mib", liveHeapMiB()-base, "MiB")
	e.ops(setupReps, 0)
	defer cur.close()

	rng := rand.New(rand.NewSource(e.seed))

	// Timed: the open-loop rate ladder.
	// Request ids continue across the reference slices, so their merged
	// outcomes pair with their spans; the other rungs count from 1<<40.
	lg := &openLoop{base: cur.base, conns: e.conns, tr: e.tr}
	byRate := make(map[float64][]*loadResult)
	var refBase, otherBase int64 = 0, 1 << 40
	for _, step := range ladder {
		reqs := ex.reads(rng, int(step.rate*e.phase(step.share).Seconds()), serveMix, true)
		base := &otherBase
		if step.rate == readRate {
			base = &refBase
		}
		lg.reqBase = *base
		*base += int64(len(reqs))
		runtime.GC() // start each timed phase from a collected heap
		byRate[step.rate] = append(byRate[step.rate], lg.run(ctx, reqs, step.rate))
	}
	maxRPS := 0.0
	for _, rate := range []float64{1000, readRate, 4000, 8000} {
		lr := merge(byRate[rate])
		reportReads(e, "read", lr)
		if p99 := quantile(lr.latenciesMS(""), 0.99); p99 <= latencyLimitMS && lr.failed == 0 && !lr.backlogGrew(e.conns) {
			maxRPS = rate
		}
		if rate == readRate {
			setReadMetrics(e, lr)
			ref := *lg
			ref.reqBase = 0
			reportLoadgen(e, &ref, lr)
		}
	}
	e.rep.set("read_max_rps", maxRPS, "req/s")

	// Timed: reload to first answer — map the file again and install
	// it on the running server (index, diff, swap), then ask.
	var reload, tracedReload []float64
	runtime.GC()
	for i := 0; i < 2*reloadReps; i++ {
		traced := e.tr != nil && i%2 == 1
		if e.tr == nil && i >= reloadReps {
			break
		}
		d, err := reloadToAnswer(ctx, e, cur, ex, path, traced)
		if err != nil {
			return err
		}
		if traced {
			tracedReload = append(tracedReload, d.Seconds())
		} else {
			reload = append(reload, d.Seconds())
		}
	}
	e.rep.timing("reload_to_answer", reload, "s")
	e.rep.set("time_to_answer_s", median(reload), "s")
	if e.tr != nil {
		e.rep.set("trace.overhead_s", median(tracedReload)-median(reload), "s")
		if err := indexHeap(e, cur.snap); err != nil {
			return err
		}
	}
	return nil
}

// mapAndServe maps the v2 file, builds the server over it with the
// hybridserve options, listens on loopback, and waits for the first
// 200 — the serving workload's set-up.
func mapAndServe(ctx context.Context, e *env, path string) (*served, error) {
	tr := e.tr
	sp := tr.begin("snapshot.map", 0, 0)
	m, err := snapshot.Map(path)
	mapD := tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("serve.index", 0, 0)
	srv := serve.New(m, serveOptions(newRegistry())...)
	indexD := tr.end(sp)
	lb, err := listen(srv, tr)
	if err != nil {
		m.Close()
		return nil, err
	}
	s := &served{loopback: lb, srv: srv, snap: m}
	status, _, err := get(ctx, lb.base+"/v1/stats")
	if err == nil && status != 200 {
		err = fmt.Errorf("first answer: status %d", status)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	if tr != nil {
		e.rep.set("snapshot.map_s", mapD.Seconds(), "s")
		e.rep.set("serve.index_s", indexD.Seconds(), "s")
	}
	return s, nil
}

// reloadToAnswer maps path again, installs it on the running server,
// and waits for a correct answer from the new generation.
func reloadToAnswer(ctx context.Context, e *env, cur *served, ex *expect, path string, traced bool) (time.Duration, error) {
	tr := e.tr
	if !traced {
		tr = nil
	}
	gen := cur.srv.Generation()
	t0 := time.Now()
	sp := tr.begin("snapshot.map", 0, 0)
	m, err := snapshot.Map(path)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	changes := 0
	if traced {
		changes = len(snapshot.Diff(cur.snap, m)) // outside the spans
	}
	sp = tr.begin("serve.load", 0, 0)
	cur.srv.Load(m)
	loadD := tr.end(sp)
	cur.snap = m
	k := ex.snap.Hybrids[0].Key
	status, body, err := get(ctx, fmt.Sprintf("%s/v1/rel?a=%d&b=%d", cur.base, k.Lo, k.Hi))
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	e.ops(1, 0)
	e.check(cur.srv.Generation() == gen+1, "reload installed generation %d, want %d", cur.srv.Generation(), gen+1)
	if err := ex.checkRel(k.Lo, k.Hi, status, body, true); err != nil {
		e.failed++
		e.check(false, "reload answer: %v", err)
	}
	if traced {
		e.rep.set("serve.load_ms", ms(loadD), "ms")
		e.rep.set("serve.changes", float64(changes), "count")
	}
	return d, nil
}
