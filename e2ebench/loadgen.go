package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// request is one scheduled read: the endpoint class it exercises (for
// per-endpoint figures), its path and query, and the check its answer
// must pass. sample marks the deterministic subset whose bodies are
// decoded and compared, not just status-checked.
type request struct {
	ep     string
	path   string
	sample bool
	check  func(status int, body []byte, sample bool) error
}

// outcome is what happened to one request, as offsets from the
// schedule's start: when it was due, when the generator released it,
// when the response body was fully read.
type outcome struct {
	ep                  string
	due, released, done time.Duration
	status              int
	bytes               int
	body                []byte // kept for sampled requests until the check
	failed              bool
}

// latency is the coordinated-omission-corrected latency: measured from
// the intended send time, so time a request spent queued behind a
// stalled one counts against it.
func (o outcome) latency() time.Duration { return o.done - o.due }

// loadResult is one open-loop phase.
type loadResult struct {
	rate     float64
	outcomes []outcome
	backlog  []int // queue depth at each release
	failed   int
	errs     []string // first few failure reasons
}

// openLoop drives requests against base on a fixed schedule — request
// i is due at i/rate seconds — regardless of how fast answers come
// back. At most conns keep-alive connections carry the load, one per
// worker; a request due while every worker is busy waits in the queue,
// and that wait is part of its latency.
type openLoop struct {
	base  string
	conns int
	tr    *tracer
	// reqBase offsets request ids so the spans of several phases in one
	// traced run stay distinct.
	reqBase int64
}

// reqIDHeader carries the request id from the generator to the traced
// server wrapper, so client and handler spans of one request pair up.
const reqIDHeader = "X-Bench-Request"

func (l *openLoop) run(ctx context.Context, reqs []request, rate float64) *loadResult {
	res := &loadResult{
		rate:     rate,
		outcomes: make([]outcome, len(reqs)),
		backlog:  make([]int, 0, len(reqs)),
	}
	// Sized to the number of sends, so releasing never blocks on the
	// workers and the queue depth is the backlog.
	queue := make(chan int, len(reqs))
	outs := res.outcomes
	var mu sync.Mutex
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		res.failed++
		outs[i].failed = true
		if len(res.errs) < 5 {
			res.errs = append(res.errs, fmt.Sprintf("%s: %v", reqs[i].path, err))
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < l.conns; w++ {
		client := &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			for i := range queue {
				status, n, err := l.do(ctx, client, &buf, reqs[i], int64(i), start, &outs[i])
				outs[i].status, outs[i].bytes = status, n
				if err != nil {
					fail(i, err)
				} else if reqs[i].sample {
					outs[i].body = bytes.Clone(buf.Bytes())
				}
			}
		}()
	}

	// The pacer releases request i at its due time, on a thread of its
	// own (see pinPacer).
	period := float64(time.Second) / rate
	sent := make(chan int, 1)
	go func() {
		pinPacer()
		defer close(queue)
		for i := range reqs {
			due := time.Duration(float64(i) * period)
			sleepUntil(start.Add(due))
			if ctx.Err() != nil {
				sent <- i
				return
			}
			outs[i].ep = reqs[i].ep
			outs[i].due = due
			outs[i].released = time.Since(start)
			queue <- i
			res.backlog = append(res.backlog, len(queue))
		}
		sent <- len(reqs)
	}()
	n := <-sent
	wg.Wait()
	res.outcomes = outs[:n]

	// Check the answers after the phase, so decoding bodies never
	// competes with the requests being timed.
	for i := range res.outcomes {
		o := &res.outcomes[i]
		if o.failed {
			continue
		}
		if err := reqs[i].check(o.status, o.body, reqs[i].sample); err != nil {
			fail(i, err)
		}
		o.body = nil
	}
	return res
}

// do sends one request and reads its body into buf.
func (l *openLoop) do(ctx context.Context, c *http.Client, buf *bytes.Buffer, rq request, i int64, start time.Time, o *outcome) (status, n int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+rq.path, nil)
	if err != nil {
		return 0, 0, err
	}
	id := l.reqBase + i + 1
	if l.tr != nil {
		req.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	}
	sent := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		o.done = time.Since(start)
		return 0, 0, err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	done := time.Now()
	o.done = done.Sub(start)
	l.tr.add("net.request", 0, id, sent, done)
	return resp.StatusCode, buf.Len(), err
}

// latenciesMS returns the corrected latency in ms of every request to
// endpoint ep ("" for all), failed requests included: a failure counts
// as missing any latency limit, so it must stay in the distribution.
func (r *loadResult) latenciesMS(ep string) []float64 {
	out := make([]float64, 0, len(r.outcomes))
	for _, o := range r.outcomes {
		if ep != "" && o.ep != ep {
			continue
		}
		if o.failed {
			out = append(out, float64(time.Hour/time.Millisecond))
			continue
		}
		out = append(out, ms(o.latency()))
	}
	return out
}

// lateMS returns how late the generator released each request.
func (r *loadResult) lateMS() []float64 {
	out := make([]float64, len(r.outcomes))
	for i, o := range r.outcomes {
		out[i] = ms(o.released - o.due)
	}
	return out
}

// backlogGrew reports whether requests were still piling up at the end
// of the phase: the median queue depth over its last quarter exceeds
// the number of connections, i.e. releases outpaced answers.
func (r *loadResult) backlogGrew(conns int) bool {
	if len(r.backlog) < 4 {
		return false
	}
	last := r.backlog[len(r.backlog)*3/4:]
	xs := make([]float64, len(last))
	for i, b := range last {
		xs[i] = float64(b)
	}
	return median(xs) > float64(conns)
}

func (r *loadResult) maxBacklog() int {
	m := 0
	for _, b := range r.backlog {
		m = max(m, b)
	}
	return m
}

// reportReads prints a read phase's latency distribution in total and
// per endpoint, and adds its requests to the tally.
func reportReads(e *env, name string, lr *loadResult) {
	e.ops(len(lr.outcomes), lr.failed)
	for _, msg := range lr.errs {
		e.rep.note("read failure: %s", msg)
	}
	e.rep.timing(fmt.Sprintf("%s@%g/s latency", name, lr.rate), lr.latenciesMS(""), "ms")
	for _, ep := range []string{"rel", "as", "hybrids"} {
		if xs := lr.latenciesMS(ep); len(xs) > 0 {
			e.rep.timing(fmt.Sprintf("%s@%g/s %s latency", name, lr.rate, ep), xs, "ms")
		}
	}
	e.rep.timing(fmt.Sprintf("%s@%g/s generator late", name, lr.rate), lr.lateMS(), "ms")
	e.rep.note("%s@%g/s backlog max %d, grew %v, failed %d of %d", name, lr.rate,
		lr.maxBacklog(), lr.backlogGrew(e.conns), lr.failed, len(lr.outcomes))
}

// setReadMetrics sets read_p50_ms and read_p99_ms from the workload's
// reference read phase: per-window quantiles, their median.
func setReadMetrics(e *env, lr *loadResult) {
	lat := lr.latenciesMS("")
	e.rep.set("read_p50_ms", windowed(lat, 0.5), "ms")
	e.rep.set("read_p99_ms", windowed(lat, 0.99), "ms")
}

// reportLoadgen sets the traced run's generator-health and
// per-request layer metrics from the phase the workload's read
// figures come from.
func reportLoadgen(e *env, lg *openLoop, lr *loadResult) {
	if e.tr == nil {
		return
	}
	e.rep.set("loadgen.late_p99_ms", quantile(lr.lateMS(), 0.99), "ms")
	e.rep.set("loadgen.sent", float64(len(lr.outcomes)), "count")
	e.rep.set("loadgen.failed", float64(lr.failed), "count")

	lo, hi := lg.reqBase+1, lg.reqBase+int64(len(lr.outcomes))
	handler := make(map[int64]time.Duration)
	for _, ep := range []string{"rel", "as", "hybrids"} {
		spans := e.tr.byReq("serve."+ep+".handler", lo, hi)
		xs := make([]float64, 0, len(spans))
		for id, d := range spans {
			handler[id] = d
			xs = append(xs, us(d))
		}
		e.rep.set("serve."+ep+".handler_p50_us", median(xs), "us")
		e.rep.set("serve."+ep+".handler_p99_us", quantile(xs, 0.99), "us")
	}
	var wire []float64
	for id, d := range e.tr.byReq("net.request", lo, hi) {
		if h, ok := handler[id]; ok {
			wire = append(wire, us(d-h))
		}
	}
	e.rep.set("net.wire_p50_us", median(wire), "us")
	var asBytes []float64
	for _, o := range lr.outcomes {
		if o.ep == "as" && !o.failed {
			asBytes = append(asBytes, float64(o.bytes))
		}
	}
	e.rep.set("serve.as.resp_bytes", median(asBytes), "bytes")
}

// merge joins read phases run back to back at one rate into one
// result, in order; with request ids continuing from phase to phase,
// the merged outcomes keep their ids.
func merge(parts []*loadResult) *loadResult {
	out := &loadResult{}
	for _, p := range parts {
		out.rate = p.rate
		out.outcomes = append(out.outcomes, p.outcomes...)
		out.backlog = append(out.backlog, p.backlog...)
		out.failed += p.failed
		out.errs = append(out.errs, p.errs...)
	}
	return out
}
