// Package serve exposes a loaded snapshot over an HTTP JSON API with
// indexed lookups: per-link relationship queries, per-AS adjacency
// views, the paginated hybrid list, and the headline statistics.
//
// Lookups go through the snapshot's serve index: aliased from the file
// for a mapped format-v3 snapshot, built once when any other snapshot
// is installed. Request handlers only binary-search sorted arrays
// (O(degree) for the per-AS view). The installed state lives behind an
// atomic.Pointer, so queries are lock-free and a hot reload — POST
// /v1/reload or SIGHUP in cmd/hybridserve — swaps the whole indexed
// state in one atomic store: in-flight requests finish against the
// snapshot they started with and zero requests are dropped. States are
// reference-counted, so a retired mmap-backed snapshot (snapshot.Map)
// is unmapped only after the last in-flight request and history-ring
// slot releases it.
//
// Endpoints:
//
//	GET  /v1/rel?a=64500&b=64501   both planes' relationships + hybrid verdict
//	GET  /v1/as/{asn}              adjacency, per-plane rels, hybrid links
//	GET  /v1/hybrids               paginated hybrid list (?class=&offset=&limit=)
//	GET  /v1/stats                 coverage / census / visibility / valley
//	GET  /v1/changes               relationship-change journal (?since=&limit=)
//	GET  /healthz                  liveness (200 even before the first load)
//	GET  /readyz                   readiness (503 until a snapshot is installed)
//	GET  /metrics                  Prometheus text exposition (WithMetrics)
//	POST /v1/reload                re-run the configured loader and swap
//
// With WithHistory(n), /v1/rel and /v1/as/{asn} additionally accept
// ?at=<RFC3339|unix> and answer from the newest of the last n
// installed snapshots not younger than that time (404 when the server
// never had data that old, 410 once the ring has evicted it).
//
// Production concerns are opt-in per Option: WithMetrics instruments
// every endpoint and serves /metrics, WithAccessLog emits one JSON
// line per request, WithRequestTimeout bounds data-endpoint latency,
// WithReloadTimeout bounds the loader, and WithMaxInflight sheds load
// with 429s past a concurrency ceiling. A server constructed with none
// of these serves through a zero-overhead fast path.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/intern"
	"hybridrel/internal/obs"
	"hybridrel/internal/snapshot"
)

// DefaultLimit and MaxLimit bound /v1/hybrids pagination.
const (
	DefaultLimit = 100
	MaxLimit     = 1000
)

// LoadFunc produces a fresh snapshot for hot reloads: re-reading an
// exported file, re-running the pipeline, or anything else.
type LoadFunc func(context.Context) (*snapshot.Snapshot, error)

// Server serves one snapshot at a time. Construct with New; swap the
// snapshot at any time with Load or Reload. The zero value is not
// usable. Server implements http.Handler and is safe for concurrent
// use, including Load/Reload racing active requests.
type Server struct {
	state  atomic.Pointer[state]
	source LoadFunc
	mux    *http.ServeMux
	// generation counts installed snapshots; each Load stamps the new
	// state with the next value, so /v1/stats exposes a strictly
	// monotone reload counter (the live hot-swap observability hook).
	generation atomic.Uint64
	// reloadMu serializes Reload so a slow, older load can never land
	// after — and overwrite — a newer one.
	reloadMu sync.Mutex

	// Opt-in observability and admission control (see the Options).
	obsReg        *obs.Registry
	metrics       *serveMetrics
	accessLog     *accessLogger
	reqTimeout    time.Duration
	reloadTimeout time.Duration
	maxInflight   int64
	inflight      atomic.Int64

	// Time travel and the change journal (see history.go). histMu
	// guards the ring and journal, and serializes the install step of
	// Load so generations, ring order, and journal order always agree;
	// readers stay lock-free on the atomic state.
	histMu       sync.Mutex
	historyDepth int
	history      []*state // ring of recent states, oldest first
	evicted      bool     // the ring has dropped at least one state
	journal      changeJournal
}

// Option customizes a Server.
type Option func(*Server)

// WithSource installs the loader invoked by Reload and POST /v1/reload.
func WithSource(fn LoadFunc) Option {
	return func(s *Server) { s.source = fn }
}

// WithMetrics registers the serving instruments — per-endpoint request
// counters, in-flight gauges, latency histograms, admission-control
// tallies, snapshot generation/age gauges — on reg and serves reg's
// text exposition on GET /metrics. Each registry can back at most one
// Server (registration panics on duplicate series).
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.obsReg = reg }
}

// WithAccessLog emits one JSON object per request to w: method, path,
// endpoint, status, bytes, duration, snapshot generation. Writes to w
// are serialized by the server.
func WithAccessLog(w io.Writer) Option {
	return func(s *Server) {
		if w != nil {
			s.accessLog = newAccessLogger(w)
		}
	}
}

// WithRequestTimeout bounds data-endpoint requests: past d the client
// gets a 503 (http.TimeoutHandler semantics) and the request context
// is canceled. /healthz, /readyz and /metrics are exempt, as is
// /v1/reload, which has its own WithReloadTimeout.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.reqTimeout = d }
}

// WithReloadTimeout bounds Reload and POST /v1/reload: a loader still
// running at d is abandoned (its context is canceled, its result
// discarded) and the HTTP caller gets a 504. The serving snapshot is
// untouched.
func WithReloadTimeout(d time.Duration) Option {
	return func(s *Server) { s.reloadTimeout = d }
}

// WithMaxInflight caps concurrently served requests; past n the server
// sheds with 429 + Retry-After instead of queueing. /healthz, /readyz
// and /metrics are exempt so probes and scrapes still answer while the
// server sheds. n <= 0 disables shedding.
func WithMaxInflight(n int) Option {
	return func(s *Server) { s.maxInflight = int64(n) }
}

// New builds a server and installs its routes. A nil snap starts the
// server empty: /healthz answers, /readyz and the data endpoints
// return 503 until the first Load or Reload installs a snapshot.
func New(snap *snapshot.Snapshot, opts ...Option) *Server {
	s := &Server{mux: http.NewServeMux()}
	for _, o := range opts {
		if o != nil {
			o(s)
		}
	}
	s.mux.HandleFunc("GET /v1/rel", s.handleRel)
	s.mux.HandleFunc("GET /v1/as/{asn}", s.handleAS)
	s.mux.HandleFunc("GET /v1/hybrids", s.handleHybrids)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/changes", s.handleChanges)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("POST /v1/reload", s.handleReload)
	// Wrong-method requests get a JSON 405 with an Allow header (the
	// method-specific patterns above are more specific, so they win for
	// their method); everything unrouted gets a JSON 404.
	for pattern, allow := range map[string]string{
		"/v1/rel": "GET", "/v1/as/{asn}": "GET", "/v1/hybrids": "GET",
		"/v1/stats": "GET", "/v1/changes": "GET", "/healthz": "GET",
		"/readyz": "GET", "/v1/reload": "POST",
	} {
		s.mux.HandleFunc(pattern, methodNotAllowed(allow))
	}
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	if s.obsReg != nil {
		s.metrics = newServeMetrics(s.obsReg, s)
		s.mux.Handle("GET /metrics", s.obsReg.Handler())
		s.mux.HandleFunc("/metrics", methodNotAllowed("GET"))
	}
	if snap != nil {
		s.Load(snap)
	}
	return s
}

func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed,
			"method %s not allowed on %s; use %s", r.Method, r.URL.Path, allow)
	}
}

// ServeHTTP implements http.Handler. With no observability options
// configured it is a direct mux dispatch; otherwise requests flow
// through the admission-control and instrumentation pipeline:
// classify endpoint → shed past the in-flight ceiling → serve under
// the request deadline → record status class, latency and access log.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.metrics == nil && s.accessLog == nil && s.maxInflight == 0 && s.reqTimeout == 0 {
		s.mux.ServeHTTP(w, r)
		return
	}

	ep := endpointOf(r.URL.Path)
	var inst *endpointInstruments
	if s.metrics != nil {
		inst = s.metrics.endpoint(ep)
		inst.inflight.Add(1)
		defer inst.inflight.Add(-1)
	}

	// Probes and scrapes must answer even when the server is shedding
	// or requests are timing out — that is when they matter most.
	exempt := ep == "/healthz" || ep == "/readyz" || ep == "/metrics"
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w}

	shed := false
	if s.maxInflight > 0 && !exempt {
		if n := s.inflight.Add(1); n > s.maxInflight {
			s.inflight.Add(-1)
			shed = true
			rec.Header().Set("Retry-After", "1")
			writeError(rec, http.StatusTooManyRequests,
				"over capacity: %d requests in flight", s.maxInflight)
			if s.metrics != nil {
				s.metrics.shed.Inc()
			}
		} else {
			defer s.inflight.Add(-1)
		}
	}

	if !shed {
		if s.reqTimeout > 0 && !exempt && ep != "/v1/reload" {
			tr := armTimedRequest(rec, s.metrics, r.Context(), s.reqTimeout)
			s.mux.ServeHTTP(tr, r.WithContext(tr))
			// release synchronizes with a concurrently firing timer, so
			// the recorder reads below never race its 503 write.
			tr.release()
		} else {
			s.mux.ServeHTTP(rec, r)
		}
	}

	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	dur := time.Since(start)
	if inst != nil {
		inst.observe(status, dur)
	}
	if s.accessLog != nil {
		s.accessLog.log(r, ep, status, rec.bytes, dur, s.generation.Load())
	}
}

// Load indexes snap and atomically installs it. In-flight requests
// keep reading the state they started with. Each install also diffs
// the outgoing snapshot's relationship tables against the incoming
// ones into the change journal (served on /v1/changes), and — with
// WithHistory — pushes the new state onto the time-travel ring.
func (s *Server) Load(snap *snapshot.Snapshot) {
	st := newState(snap) // the index build (if any) runs outside the lock
	s.histMu.Lock()
	prev := s.state.Load()
	st.generation = s.generation.Add(1)
	s.state.Store(st)
	s.pushHistory(st)
	var changes []snapshot.Change
	if prev != nil {
		changes = snapshot.Diff(prev.snap, st.snap)
	}
	s.journal.append(st.generation, changes)
	if s.metrics != nil {
		for _, c := range changes {
			s.metrics.changes[c.Kind].Inc()
		}
	}
	s.histMu.Unlock()
	if prev != nil {
		// Drop the outgoing state's installed-pointer reference — after
		// the Diff above, which still reads prev.snap. In-flight requests
		// and ring slots hold their own references, so an mmap-backed
		// snapshot unmaps only when the last of them lets go.
		prev.release()
	}
}

// Generation returns the number of snapshots installed so far.
func (s *Server) Generation() uint64 { return s.generation.Load() }

// Snapshot returns the currently installed snapshot, or nil if none
// has been loaded yet.
//
// Caution with mmap-backed snapshots (snapshot.Map): the returned
// pointer borrows the installed state without a reference, so a
// subsequent Load may retire — and unmap — it while the caller still
// holds it. Callers that only need headline sizes should use Summary,
// which takes a reference for the duration of the read.
func (s *Server) Snapshot() *snapshot.Snapshot {
	if st := s.state.Load(); st != nil {
		return st.snap
	}
	return nil
}

// Summary reports the installed snapshot's headline sizes — distinct
// ASNs, per-plane link counts, hybrid count — without lending out the
// snapshot itself. ok is false before the first load. Unlike Snapshot,
// Summary is safe to call concurrently with hot reloads of mmap-backed
// snapshots: it holds a reference while it reads.
func (s *Server) Summary() (asns, links4, links6, hybrids int, ok bool) {
	st := s.acquireState()
	if st == nil {
		return 0, 0, 0, 0, false
	}
	defer st.release()
	return len(st.idx.ASNs), len(st.snap.Links4), len(st.snap.Links6), len(st.snap.Hybrids), true
}

// Reload runs the configured source and installs its snapshot. It is
// an error if no source was configured (WithSource). Reloads are
// serialized, so a slow, older load can never land after — and
// silently overwrite — a newer one; queries stay lock-free throughout.
// With WithReloadTimeout set, a loader still running at the deadline
// is abandoned — even one that ignores its context — and Reload
// returns context.DeadlineExceeded; the serving snapshot is untouched.
func (s *Server) Reload(ctx context.Context) error {
	if s.source == nil {
		return fmt.Errorf("serve: no reload source configured")
	}
	if s.reloadTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.reloadTimeout)
		defer cancel()
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	type result struct {
		snap *snapshot.Snapshot
		err  error
	}
	// The loader runs on its own goroutine so a source that ignores
	// context cancellation still cannot wedge the reload path; an
	// abandoned loader's result lands in the buffered channel and is
	// garbage-collected.
	done := make(chan result, 1)
	go func() {
		snap, err := s.source(ctx)
		done <- result{snap, err}
	}()
	select {
	case <-ctx.Done():
		return fmt.Errorf("serve: reload: %w", ctx.Err())
	case res := <-done:
		if res.err != nil {
			return fmt.Errorf("serve: reload: %w", res.err)
		}
		s.Load(res.snap)
		return nil
	}
}

// state is one immutable installed snapshot. Everything a handler
// needs beyond the snapshot's own tables is its serve index — aliased
// from the mapped file for a format-v3 snapshot, built once at install
// time otherwise. A per-link probe searches one AS's adjacency row for
// the planes, the IPv6 link section for the visibility, and the
// hybrid-by-key order; the per-AS view is one CSR row. The state owns
// no sorted copies: the index lives inside the snapshot, so the
// refcounted close below also retires it.
type state struct {
	snap *snapshot.Snapshot
	idx  *snapshot.Index

	// refs counts the holders keeping this state alive: the installed
	// atomic pointer, each history-ring slot, and each in-flight request
	// that resolved it. When the count hits zero the snapshot is Closed
	// — which unmaps it when it came from snapshot.Map — so a hot swap
	// can retire an mmap-backed snapshot without ever unmapping pages a
	// request is still reading. For heap-backed snapshots Close is a
	// no-op and the whole scheme degenerates to plain GC.
	refs atomic.Int64

	stats      StatsResponse
	loadedAt   time.Time
	generation uint64
}

func newState(snap *snapshot.Snapshot) *state {
	st := &state{
		snap:     snap,
		idx:      snap.Index(),
		stats:    StatsOf(snap),
		loadedAt: time.Now().UTC(),
	}
	st.refs.Store(1) // the installed-pointer reference, dropped by the next Load
	return st
}

// lookupLink binary-searches a canonical link section in place for k.
//
//hybridrel:hotpath
func lookupLink(ls []snapshot.Link, k asrel.LinkKey) (vis int, ok bool) {
	i, found := slices.BinarySearchFunc(ls, intern.Pack(k), func(l snapshot.Link, u uint64) int {
		return cmp.Compare(intern.Pack(l.Key), u)
	})
	if !found {
		return 0, false
	}
	return ls[i].Visibility, true
}

// lookupHybrid returns the index into snap.Hybrids of the hybrid link
// k, if any, searching the index's by-key order.
//
//hybridrel:hotpath
func (st *state) lookupHybrid(k asrel.LinkKey) (int, bool) {
	// Searched by hand: a slices.BinarySearchFunc comparator would have
	// to capture hs, and capturing closures allocate on the hot path.
	u := intern.Pack(k)
	hs, order := st.snap.Hybrids, st.idx.HybByKey
	lo, hi := 0, len(order)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if intern.Pack(hs[order[m]].Key) < u {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(order) && hs[order[lo]].Key == k {
		return int(order[lo]), true
	}
	return 0, false
}

// retain takes a request reference if the state is still alive. It
// fails (returns false) only when the count already hit zero — the
// state was retired between the caller's pointer load and this call —
// in which case a newer state is already installed.
//
//hybridrel:hotpath
func (st *state) retain() bool {
	for {
		r := st.refs.Load()
		if r <= 0 {
			return false
		}
		if st.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// ref adds a reference unconditionally. Only valid while the caller
// already guarantees liveness: it built the state, or holds histMu
// with the state still in the ring (the ring's own reference keeps the
// count positive until eviction, which also runs under histMu).
//
//hybridrel:hotpath
func (st *state) ref() { st.refs.Add(1) }

// release drops one reference; the final drop closes the snapshot.
// The Close error is ignored: the last holder is whichever request or
// eviction happens to finish last, and it has no caller to report a
// munmap failure to.
//
//hybridrel:hotpath
func (st *state) release() {
	if st.refs.Add(-1) == 0 {
		_ = st.snap.Close()
	}
}

// acquireState resolves the installed state and takes a reference, so
// a concurrent hot swap can never unmap the snapshot while the caller
// reads it. Returns nil before the first load. Callers must release.
//
//hybridrel:hotpath
func (s *Server) acquireState() *state {
	for {
		st := s.state.Load()
		if st == nil {
			return nil
		}
		if st.retain() {
			return st
		}
		// Retired between Load and retain; the installed pointer already
		// moved on. Re-resolve.
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// loadedState returns the installed state with a reference taken, or
// answers 503 and returns nil during the pre-load window (New with a
// nil snapshot). The caller must release the returned state.
func (s *Server) loadedState(w http.ResponseWriter) *state {
	st := s.acquireState()
	if st == nil {
		writeError(w, http.StatusServiceUnavailable, "no snapshot loaded yet")
	}
	return st
}

func (s *Server) handleRel(w http.ResponseWriter, r *http.Request) {
	st := s.stateAt(w, r)
	if st == nil {
		return
	}
	defer st.release()
	q := r.URL.Query()
	a, errA := ParseASN(q.Get("a"))
	b, errB := ParseASN(q.Get("b"))
	if errA != nil || errB != nil {
		writeError(w, http.StatusBadRequest, "need ?a= and ?b= AS numbers")
		return
	}
	if a == b {
		writeError(w, http.StatusBadRequest, "a and b must differ")
		return
	}
	k := asrel.Key(a, b)
	planes := st.idx.LinkPlanes(a, b)
	in4, in6 := planes&snapshot.PlaneV4 != 0, planes&snapshot.PlaneV6 != 0
	if !in4 && !in6 {
		writeError(w, http.StatusNotFound, "link %s not observed in either plane", k)
		return
	}
	var v6 int
	if in6 {
		v6, _ = lookupLink(st.snap.Links6, k)
	}
	resp := RelResponse{
		A:           uint32(a),
		B:           uint32(b),
		V4:          st.snap.Rel4.Get(a, b).String(),
		V6:          st.snap.Rel6.Get(a, b).String(),
		In4:         in4,
		In6:         in6,
		DualStack:   in4 && in6,
		Visibility6: v6,
	}
	if i, ok := st.lookupHybrid(k); ok {
		resp.Hybrid = true
		resp.Class = st.snap.Hybrids[i].Class.String()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAS(w http.ResponseWriter, r *http.Request) {
	st := s.stateAt(w, r)
	if st == nil {
		return
	}
	defer st.release()
	asn, err := ParseASN(r.PathValue("asn"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	row, ok := st.idx.Row(asn)
	if !ok {
		writeError(w, http.StatusNotFound, "%s not observed in either plane", asn)
		return
	}
	nbrs, planes := st.idx.NeighborsOf(row)
	hybs := st.idx.HybridsOf(row)
	resp := ASResponse{
		ASN:       uint32(asn),
		Neighbors: make([]NeighborJSON, 0, len(nbrs)),
		Hybrids:   make([]HybridJSON, 0, len(hybs)),
	}
	for i, n := range nbrs {
		in4, in6 := planes[i]&snapshot.PlaneV4 != 0, planes[i]&snapshot.PlaneV6 != 0
		if in4 {
			resp.Degree4++
		}
		if in6 {
			resp.Degree6++
		}
		k := asrel.Key(asn, n)
		var vis6 int
		if in6 {
			vis6, _ = lookupLink(st.snap.Links6, k)
		}
		nj := NeighborJSON{
			ASN:         uint32(n),
			In4:         in4,
			In6:         in6,
			DualStack:   in4 && in6,
			V4:          st.snap.Rel4.Get(asn, n).String(),
			V6:          st.snap.Rel6.Get(asn, n).String(),
			Visibility6: vis6,
		}
		if i, ok := st.lookupHybrid(k); ok {
			nj.Hybrid = true
			nj.Class = st.snap.Hybrids[i].Class.String()
		}
		resp.Neighbors = append(resp.Neighbors, nj)
	}
	for _, i := range hybs {
		resp.Hybrids = append(resp.Hybrids, hybridJSON(st.snap.Hybrids[i]))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHybrids(w http.ResponseWriter, r *http.Request) {
	st := s.loadedState(w)
	if st == nil {
		return
	}
	defer st.release()
	q := r.URL.Query()

	offset, limit := 0, DefaultLimit
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid offset %q", v)
			return
		}
		offset = n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid limit %q", v)
			return
		}
		limit = min(n, MaxLimit)
	}

	// Unfiltered requests page the hybrid list directly; a class filter
	// pages the precomputed per-class index. Both preserve visibility
	// order and both are O(page), not O(total).
	resp := HybridsResponse{Offset: offset, Limit: limit}
	page := func(h core.HybridLink) {
		resp.Hybrids = append(resp.Hybrids, hybridJSON(h))
	}
	if v := q.Get("class"); v != "" {
		cl, err := ParseClass(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		resp.Class = cl.String()
		idx := st.idx.HybridsOfClass(cl)
		resp.Total = len(idx)
		// An offset past the end of the filtered list yields an empty
		// page, never a slice panic.
		if offset < len(idx) {
			for _, i := range idx[offset:min(offset+limit, len(idx))] {
				page(st.snap.Hybrids[i])
			}
		}
	} else {
		all := st.snap.Hybrids
		resp.Total = len(all)
		if offset < len(all) {
			for _, h := range all[offset:min(offset+limit, len(all))] {
				page(h)
			}
		}
	}
	if resp.Hybrids == nil {
		resp.Hybrids = []HybridJSON{}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.loadedState(w)
	if st == nil {
		return
	}
	defer st.release()
	// The snapshot-derived body is precomputed at load time; only the
	// freshness fields are stamped per request.
	resp := st.stats
	resp.Generation = st.generation
	resp.SnapshotAgeSeconds = time.Since(st.loadedAt).Seconds()
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth is the liveness probe: it answers 200 as soon as the
// process serves HTTP, even before the first snapshot lands (Status
// "alive" with zero counts). Readiness — "is there data to serve" —
// is /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.acquireState()
	if st == nil {
		writeJSON(w, http.StatusOK, HealthResponse{Status: "alive"})
		return
	}
	defer st.release()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		ASNs:     len(st.idx.ASNs),
		Links4:   len(st.snap.Links4),
		Links6:   len(st.snap.Links6),
		Hybrids:  len(st.snap.Hybrids),
		LoadedAt: st.loadedAt.Format(time.RFC3339Nano),
	})
}

// handleReady is the readiness probe: 503 until the first successful
// Load installs a snapshot, 200 with the snapshot summary after.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	st := s.acquireState()
	if st == nil {
		writeError(w, http.StatusServiceUnavailable, "no snapshot loaded yet")
		return
	}
	defer st.release()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ready",
		ASNs:     len(st.idx.ASNs),
		Links4:   len(st.snap.Links4),
		Links6:   len(st.snap.Links6),
		Hybrids:  len(st.snap.Hybrids),
		LoadedAt: st.loadedAt.Format(time.RFC3339Nano),
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.source == nil {
		writeError(w, http.StatusNotImplemented, "no reload source configured")
		return
	}
	if err := s.Reload(r.Context()); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		}
		writeError(w, code, "%v", err)
		return
	}
	st := s.acquireState() //hybridlint:ignore snapload -- deliberate second resolution: report the generation the reload just swapped in, not the one the request started with
	defer st.release()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "reloaded",
		ASNs:     len(st.idx.ASNs),
		Links4:   len(st.snap.Links4),
		Links6:   len(st.snap.Links6),
		Hybrids:  len(st.snap.Hybrids),
		LoadedAt: st.loadedAt.Format(time.RFC3339Nano),
	})
}

// ListenAndServe serves s on addr until ctx is canceled, then shuts
// down gracefully: the listener closes immediately, in-flight requests
// get up to grace to finish. A nil error means a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	hs := &http.Server{Addr: addr, Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		return hs.Shutdown(shCtx)
	}
}
