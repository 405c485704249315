package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hybridrel/internal/obs"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
)

// newRegistry returns a metrics registry set up as cmd/hybridserve sets
// up its own. A registry backs exactly one Server.
func newRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	return reg
}

// serveOptions are the options cmd/hybridserve installs at its flag
// defaults: metrics on reg, the request and reload deadlines, and the
// in-flight ceiling.
func serveOptions(reg *obs.Registry) []serve.Option {
	return []serve.Option{
		serve.WithMetrics(reg),
		serve.WithRequestTimeout(30 * time.Second),
		serve.WithReloadTimeout(5 * time.Minute),
		serve.WithMaxInflight(1024),
	}
}

// loopback serves h over a loopback TCP listener.
type loopback struct {
	base string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler, tr *tracer) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if tr != nil {
		h = tracedHandler{h: h, tr: tr}
	}
	lb := &loopback{base: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { lb.done <- lb.hs.Serve(ln) }()
	return lb, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (lb *loopback) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := lb.hs.Shutdown(ctx)
	if serr := <-lb.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// served is a serve.Server on a loopback listener, plus the mapped
// snapshot it was built from (closed when the listener stops).
type served struct {
	*loopback
	srv  *serve.Server
	snap *snapshot.Snapshot
}

func (s *served) close() error {
	err := s.stop()
	// No request can be in flight after Shutdown, so this is the only
	// closer of the installed state's mapping.
	if s.snap != nil {
		if cerr := s.snap.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// tracedHandler records one span per request around the server's
// ServeHTTP: the handler time net.wire is computed against.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
	start := time.Now()
	t.h.ServeHTTP(w, r)
	t.tr.add("serve."+endpointOf(r.URL.Path)+".handler", 0, id, start, time.Now())
}

func endpointOf(path string) string {
	switch {
	case path == "/v1/rel":
		return "rel"
	case strings.HasPrefix(path, "/v1/as/"):
		return "as"
	case path == "/v1/hybrids":
		return "hybrids"
	}
	return "other"
}

// get fetches one URL on a fresh connection and returns status and body.
func get(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		return 0, nil, fmt.Errorf("read %s: %w", url, err)
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// indexHeap measures the heap serve.New's index keeps for snap: a
// server built and held between two forced collections.
func indexHeap(e *env, snap *snapshot.Snapshot) error {
	before := liveHeapMiB()
	srv := serve.New(snap)
	e.rep.set("serve.index_heap_mib", liveHeapMiB()-before, "MiB")
	if _, _, _, _, ok := srv.Summary(); !ok {
		return fmt.Errorf("index heap: server has no snapshot")
	}
	return nil
}
