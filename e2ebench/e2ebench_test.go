package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"hybridrel/internal/gen"
	"hybridrel/internal/scale"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
)

func testEnv(t *testing.T) *env {
	return &env{seed: 7, seconds: 1, rep: newReport(io.Discard), work: t.TempDir(), conns: 2}
}

// A server stall must show in the latency of every request queued
// behind it: latency counts from the due time, not the send time.
func TestOpenLoopCountsStall(t *testing.T) {
	const stalled, stall = 50, 200 * time.Millisecond
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("i") == strconv.Itoa(stalled) {
			time.Sleep(stall)
		}
	})
	lb, err := listen(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.stop()
	reqs := make([]request, 400)
	for i := range reqs {
		reqs[i] = request{ep: "rel", path: "/x?i=" + strconv.Itoa(i),
			check: func(status int, _ []byte, _ bool) error { return wantStatus(status, http.StatusOK) }}
	}
	lg := &openLoop{base: lb.base, conns: 1}
	res := lg.run(context.Background(), reqs, 1000) // one due every ms
	if res.failed != 0 || len(res.outcomes) != len(reqs) {
		t.Fatalf("failed %d of %d (%v)", res.failed, len(res.outcomes), res.errs)
	}
	stallEnd := res.outcomes[stalled].due + stall
	for i := stalled + 1; i < stalled+150; i++ {
		o := res.outcomes[i]
		// Due during the stall: it cannot finish before the stall ends.
		if want := stallEnd - o.due - 5*time.Millisecond; o.latency() < want {
			t.Fatalf("request %d (due %v) latency %v, want >= %v: the stall is not counted", i, o.due, o.latency(), want)
		}
	}
	if lat := res.outcomes[len(reqs)-1].latency(); lat > 100*time.Millisecond {
		t.Errorf("last request latency %v: the generator never caught up after the stall", lat)
	}
	if res.maxBacklog() < 100 {
		t.Errorf("max backlog %d, want the requests due during the stall queued", res.maxBacklog())
	}
}

// flipOnce rewrites the first /v1/rel answer carrying a v4 p2c into c2p.
type flipOnce struct {
	h       http.Handler
	flipped atomic.Bool
}

func (f *flipOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	from, to := []byte(`"v4":"p2c"`), []byte(`"v4":"c2p"`)
	if r.URL.Path == "/v1/rel" && bytes.Contains(body, from) && f.flipped.CompareAndSwap(false, true) {
		body = bytes.Replace(body, from, to, 1)
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// One flipped relationship in one served body fails the run's checks;
// the same reads against the unmodified server pass.
func TestFlippedRelationshipFails(t *testing.T) {
	cfg := scale.Tier600()
	cfg.Seed = 3
	world, err := scale.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.snap2")
	if err := snapshot.WriteFileV2(path, world); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := serve.New(m, serveOptions(newRegistry())...)
	ex := newExpect(world)

	for _, flip := range []bool{false, true} {
		var h http.Handler = srv
		f := &flipOnce{h: srv}
		if flip {
			h = f
		}
		lb, err := listen(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		reqs := ex.reads(rand.New(rand.NewSource(1)), 400, serveMix, true)
		for i := range reqs {
			reqs[i].sample = true
		}
		res := (&openLoop{base: lb.base, conns: 2}).run(context.Background(), reqs, 2000)
		lb.stop()
		switch {
		case !flip && res.failed != 0:
			t.Fatalf("unmodified server: %d failed (%v)", res.failed, res.errs)
		case flip && !f.flipped.Load():
			t.Fatal("no /v1/rel answer carried a v4 p2c to flip")
		case flip && res.failed != 1:
			t.Fatalf("flipped one relationship: %d failed, want 1 (%v)", res.failed, res.errs)
		}
	}
}

// One captured snapshot that is not installed fails the live checks;
// installing every one passes them.
func TestSkippedSwapFails(t *testing.T) {
	cfg := gen.SmallConfig()
	cfg.Seed = 5
	const paced, drain = 300, 600
	li, err := buildLiveInputs(cfg, 11, paced+drain, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, skip := range []bool{false, true} {
		e := testEnv(t)
		ls, _, err := liveSetup(context.Background(), nil, li)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		install := func(srv *serve.Server, s *snapshot.Snapshot) {
			calls++
			if skip && calls == 2 {
				return
			}
			srv.Load(s)
		}
		reads := liveReads(e, newExpect(ls.srv.Snapshot()), 200)
		cr, err := churn(context.Background(), e, ls, li, reads, paced, install)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := verifyLive(e, ls, cr); err != nil {
			t.Fatal(err)
		}
		ls.lb.stop()
		if cr.reads.failed != 0 {
			t.Fatalf("reads failed: %v", cr.reads.errs)
		}
		if calls < 3 {
			t.Fatalf("only %d swaps; the test needs a skipped swap followed by more", calls)
		}
		if skip != (len(e.problems) > 0) {
			t.Fatalf("skip=%v: problems %v", skip, e.problems)
		}
	}
}

// Self time subtracts the union of the children's intervals, so two
// overlapping children are not counted twice.
func TestSelfTimeUnionsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the root
	}}
	self := make(map[string]time.Duration)
	for _, lt := range tr.selfTimes() {
		self[lt.Name] = lt.Self
	}
	if self["root"] != 100-60-10 || self["a"] != 40 || self["c"] != 30 {
		t.Fatalf("self times %v", self)
	}
}

func TestWindowedMedianIgnoresOneStalledWindow(t *testing.T) {
	xs := make([]float64, 5*windowSize)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < windowSize; i++ {
		xs[i] = 100 // one window entirely stalled
	}
	if got := windowed(xs, 0.99); got != 1 {
		t.Fatalf("windowed p99 %v, want 1", got)
	}
	if got := quantile(xs, 0.99); got != 100 {
		t.Fatalf("whole-run p99 %v, want 100", got)
	}
}
