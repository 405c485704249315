package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/collector"
	"hybridrel/internal/core"
	"hybridrel/internal/dataset"
	"hybridrel/internal/gen"
	"hybridrel/internal/infer"
	communityinfer "hybridrel/internal/infer/communities"
	"hybridrel/internal/infer/locpref"
	"hybridrel/internal/pipeline"
	"hybridrel/internal/scenario"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
	"hybridrel/internal/testutil"
)

// setupReps is how many times each workload sets up in one run;
// setup_s is their median.
const setupReps = 3

// readRate is serve-100k's reference read rate (requests/s).
const readRate = 2000

// pipelineRun is one pass of the paper's path: archives to a served
// answer. It keeps what later phases read: the analysis (graded, and
// the long-lived result a library user holds), the served snapshot,
// and the hash of the v2 bytes.
type pipelineRun struct {
	elapsed  time.Duration
	analysis *core.Analysis
	snap     *snapshot.Snapshot // the captured (heap) snapshot
	served   *served
	path     string
	digest   [32]byte
}

func (r *pipelineRun) close() error {
	err := r.served.close()
	if rerr := os.Remove(r.path); err == nil {
		err = rerr
	}
	return err
}

func runPipeline(ctx context.Context, e *env) error {
	// Harness: generate the world and collect it into archives on disk.
	h0 := time.Now()
	cfg := gen.DefaultConfig()
	cfg.Seed = e.seed
	in, err := gen.Build(cfg)
	if err != nil {
		return err
	}
	arch, err := collect(in, 2)
	if err != nil {
		return err
	}
	dir4, dir6 := filepath.Join(e.work, "mrt4"), filepath.Join(e.work, "mrt6")
	irr := filepath.Join(e.work, "irr.db")
	archBytes := 0
	for _, set := range []struct {
		dir  string
		data [][]byte
	}{{dir4, arch.MRT4}, {dir6, arch.MRT6}} {
		if err := os.MkdirAll(set.dir, 0o755); err != nil {
			return err
		}
		for i, b := range set.data {
			archBytes += len(b)
			if err := os.WriteFile(filepath.Join(set.dir, fmt.Sprintf("collector%02d.mrt", i)), b, 0o644); err != nil {
				return err
			}
		}
	}
	if err := os.WriteFile(irr, arch.IRR, 0o644); err != nil {
		return err
	}
	arch = nil
	e.rep.set("harness_s", time.Since(h0).Seconds(), "s")
	e.rep.note("inputs: %d ASes, %.1f MiB of MRT archives", len(in.Order), float64(archBytes)/(1<<20))

	sources := func() (pipeline.Sources, error) {
		var src pipeline.Sources
		var err error
		if src.MRT4, err = pipeline.ExpandMRT(dir4); err != nil {
			return src, err
		}
		if src.MRT6, err = pipeline.ExpandMRT(dir6); err != nil {
			return src, err
		}
		src.IRR = pipeline.File(irr)
		return src, nil
	}
	rep := 0
	pass := func(traced bool) (*pipelineRun, error) {
		rep++
		path := filepath.Join(e.work, fmt.Sprintf("answer-%d.snap2", rep))
		var r *pipelineRun
		var err error
		if traced {
			r, err = archivesToAnswerTraced(ctx, e, sources, path)
		} else {
			r, err = archivesToAnswer(ctx, sources, path)
		}
		if err != nil {
			return nil, err
		}
		e.ops(1, 0)
		return r, nil
	}

	// Set-up: the cold first passes. The last one stays up and serves
	// the read phase.
	base := liveHeapMiB()
	var setup []float64
	var cur *pipelineRun
	for i := 0; i < setupReps; i++ {
		r, err := pass(false)
		if err != nil {
			return err
		}
		setup = append(setup, r.elapsed.Seconds())
		if cur != nil {
			if err := cur.close(); err != nil {
				return err
			}
		}
		cur = r
	}
	e.rep.set("setup_s", median(setup), "s")
	e.rep.set("heap_mib", liveHeapMiB()-base, "MiB")
	digest := cur.digest

	// Timed: warm passes back to back, at least three. Traced runs
	// alternate untraced and traced passes, at least two of each, so the
	// overhead is measured on the same state.
	var warm, tracedPasses []float64
	runtime.GC()
	deadline := time.Now().Add(e.phase(1.5))
	more := func() bool {
		return len(warm) < 3 || (e.tr != nil && len(tracedPasses) < 2) || time.Now().Before(deadline)
	}
	for i := 0; more(); i++ {
		traced := e.tr != nil && i%2 == 1
		r, err := pass(traced)
		if err != nil {
			return err
		}
		if traced {
			tracedPasses = append(tracedPasses, r.elapsed.Seconds())
		} else {
			warm = append(warm, r.elapsed.Seconds())
		}
		e.check(r.digest == digest, "pass %d: v2 bytes differ from the first pass (traced=%v)", rep, traced)
		if err := cur.close(); err != nil {
			return err
		}
		cur = r
	}
	e.rep.timing("archives_to_answer", warm, "s")
	e.rep.set("archives_to_answer_s", median(warm), "s")
	e.rep.set("time_to_answer_s", median(warm), "s")
	if e.tr != nil {
		e.rep.set("trace.overhead_s", median(tracedPasses)-median(warm), "s")
		if err := indexHeap(e, cur.served.snap); err != nil {
			return err
		}
	}

	// Output check: the scenario matrix's floors against planted truth.
	sc, err := scenario.Find("baseline")
	if err != nil {
		return err
	}
	a := cur.analysis
	for _, p := range []struct {
		plane          string
		inferred, want *asrel.Table
		d              *dataset.Dataset
	}{{"ipv4", a.Rel4, in.Truth4, a.D4}, {"ipv6", a.Rel6, in.Truth6, a.D6}} {
		acc := infer.ScoreTable(p.inferred, p.want, p.d.Links()).Accuracy()
		e.rep.note("grade %s accuracy %.4f (floor %.2f)", p.plane, acc, sc.MinAccuracy)
		e.check(acc >= sc.MinAccuracy, "%s accuracy %.4f below the floor %.2f", p.plane, acc, sc.MinAccuracy)
	}
	planted := make(map[asrel.LinkKey]bool, len(in.Hybrids))
	for _, h := range in.Hybrids {
		planted[h.Key] = true
	}
	matched := 0
	for _, h := range a.Hybrids() {
		if planted[h.Key] {
			matched++
		}
	}
	prec := float64(matched) / float64(max(len(a.Hybrids()), 1))
	e.rep.note("grade hybrids precision %.4f over %d detected (floor %.2f)", prec, len(a.Hybrids()), sc.MinHybridPrecision)
	e.check(len(a.Hybrids()) > 0 && prec >= sc.MinHybridPrecision, "hybrid precision %.4f below the floor %.2f", prec, sc.MinHybridPrecision)
	return cur.close()
}

// collect dumps the world into one archive per collector and plane,
// as testutil.Collect does, with the two planes dumped concurrently.
func collect(in *gen.Internet, collectors int) (*testutil.Archives, error) {
	cols := collector.Assign(in, collectors)
	planes := []asrel.AF{asrel.IPv4, asrel.IPv6}
	out := make([][][]byte, len(planes))
	errs := make([]error, len(planes))
	var wg sync.WaitGroup
	for p, af := range planes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufs := make([]bytes.Buffer, len(cols))
			ws := make([]io.Writer, len(cols))
			for i := range bufs {
				ws[i] = &bufs[i]
			}
			errs[p] = collector.DumpAll(in, af, cols, ws, testutil.DumpTime)
			for i := range bufs {
				out[p] = append(out[p], bufs[i].Bytes())
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	arch := &testutil.Archives{MRT4: out[0], MRT6: out[1]}
	var irr bytes.Buffer
	if err := in.WriteIRR(&irr); err != nil {
		return nil, err
	}
	arch.IRR = irr.Bytes()
	return arch, nil
}

// archivesToAnswer is the untraced timed path: the pipeline over the
// archives on disk, capture, v2 write, map, serve, and the first answer
// over loopback. The clock stops when the answer's body has arrived;
// it is checked after.
func archivesToAnswer(ctx context.Context, sources func() (pipeline.Sources, error), path string) (*pipelineRun, error) {
	t0 := time.Now()
	src, err := sources()
	if err != nil {
		return nil, err
	}
	a, err := core.RunPipeline(ctx, src)
	if err != nil {
		return nil, err
	}
	snap := snapshot.Capture(a)
	if err := snapshot.WriteFileV2(path, snap); err != nil {
		return nil, err
	}
	return serveAndAnswer(ctx, nil, t0, a, snap, path, 0)
}

// serveAndAnswer maps the written snapshot, serves it, and asks for the
// most visible hybrid link. A traced pass passes its tracer and root
// span; an untraced one passes nil and 0.
func serveAndAnswer(ctx context.Context, tr *tracer, t0 time.Time, a *core.Analysis, snap *snapshot.Snapshot, path string, root int64) (*pipelineRun, error) {
	sp := tr.begin("snapshot.map", root, 0)
	m, err := snapshot.Map(path)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("serve.index", root, 0)
	srv := serve.New(m, serveOptions(newRegistry())...)
	tr.end(sp)
	lb, err := listen(srv, tr)
	if err != nil {
		m.Close()
		return nil, err
	}
	r := &pipelineRun{analysis: a, snap: snap, served: &served{loopback: lb, srv: srv, snap: m}, path: path}
	if len(snap.Hybrids) == 0 {
		r.close()
		return nil, fmt.Errorf("the pipeline detected no hybrid link to ask about")
	}
	k := snap.Hybrids[0].Key
	sp = tr.begin("net.first_answer", root, 0)
	status, body, err := get(ctx, fmt.Sprintf("%s/v1/rel?a=%d&b=%d", lb.base, k.Lo, k.Hi))
	tr.end(sp)
	r.elapsed = time.Since(t0)
	if err == nil {
		err = newExpect(snap).checkRel(k.Lo, k.Hi, status, body, true)
	}
	if err == nil {
		var data []byte
		data, err = os.ReadFile(path)
		r.digest = sha256.Sum256(data)
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("first answer: %w", err)
	}
	return r, nil
}

// archivesToAnswerTraced drives, separately and with a span around
// each, the stages pipeline.Run composes — ingest, then per plane and
// in parallel the communities miner and the LocPrf calibration — and
// then the stages the untraced path runs after it.
func archivesToAnswerTraced(ctx context.Context, e *env, sources func() (pipeline.Sources, error), path string) (*pipelineRun, error) {
	tr := e.tr
	t0 := time.Now()
	root := tr.begin("pipeline.archives_to_answer", 0, 0)
	src, err := sources()
	if err != nil {
		return nil, err
	}
	p := pipeline.New()
	sp := tr.begin("pipeline.ingest", root, 0)
	res, err := p.Ingest(ctx, src)
	ingest := tr.end(sp)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	var commD, locD [2]time.Duration
	for i, plane := range []struct {
		d    *dataset.Dataset
		comm **communityinfer.Result
		loc  **locpref.Result
	}{{res.D4, &res.Comm4, &res.Loc4}, {res.D6, &res.Comm6, &res.Loc6}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.begin("communities.infer", root, 0)
			paths := plane.d.Paths()
			c := communityinfer.Infer(paths, res.Dict)
			commD[i] = tr.end(sp)
			sp = tr.begin("locpref.infer", root, 0)
			l := locpref.Infer(paths, res.Dict, c.Table, p.Config().LocPref)
			locD[i] = tr.end(sp)
			*plane.comm, *plane.loc = c, l
		}()
	}
	wg.Wait()
	sp = tr.begin("core.from_result", root, 0)
	a := core.FromResult(res)
	tr.end(sp)
	sp = tr.begin("core.products", root, 0)
	dual, hybrids, _ := a.ComputeProducts()
	products := tr.end(sp)
	sp = tr.begin("snapshot.capture", root, 0)
	snap := snapshot.Capture(a)
	capture := tr.end(sp)
	sp = tr.begin("snapshot.encode", root, 0)
	err = snapshot.WriteFileV2(path, snap)
	encode := tr.end(sp)
	if err != nil {
		return nil, err
	}
	r, err := serveAndAnswer(ctx, tr, t0, a, snap, path, root)
	tr.end(root)
	if err != nil {
		return nil, err
	}

	obs := res.D4.NumObservations() + res.D6.NumObservations()
	uniq := res.D4.NumUniquePaths() + res.D6.NumUniquePaths()
	classified := res.Comm4.Table.Len() + res.Comm6.Table.Len()
	fi, err := os.Stat(path)
	if err != nil {
		r.close()
		return nil, err
	}
	e.rep.set("pipeline.ingest_s", ingest.Seconds(), "s")
	e.rep.set("dataset.observations", float64(obs), "count")
	e.rep.set("dataset.unique_paths", float64(uniq), "count")
	e.rep.set("dataset.dedup_ratio", float64(uniq)/float64(max(obs, 1)), "ratio")
	e.rep.set("communities.infer_s", (commD[0] + commD[1]).Seconds(), "s")
	e.rep.set("locpref.infer_s", (locD[0] + locD[1]).Seconds(), "s")
	e.rep.set("communities.classified_share", float64(classified)/float64(max(res.D4.NumLinks()+res.D6.NumLinks(), 1)), "ratio")
	e.rep.set("core.products_s", products.Seconds(), "s")
	e.rep.set("core.dual_stack_links", float64(len(dual)), "count")
	e.rep.set("core.hybrids", float64(len(hybrids)), "count")
	e.rep.set("snapshot.capture_s", capture.Seconds(), "s")
	e.rep.set("snapshot.encode_s", encode.Seconds(), "s")
	e.rep.set("snapshot.bytes", float64(fi.Size()), "bytes")
	e.rep.set("snapshot.map_s", lastSpan(tr, "snapshot.map").Seconds(), "s")
	e.rep.set("serve.index_s", lastSpan(tr, "serve.index").Seconds(), "s")
	return r, nil
}

func lastSpan(tr *tracer, name string) time.Duration {
	ds := tr.durations(name)
	if len(ds) == 0 {
		return 0
	}
	return ds[len(ds)-1]
}
