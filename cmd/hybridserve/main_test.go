package main

// Smoke tests for the hybridserve CLI: flag errors, mode selection,
// and exit-on-bad-input, all through the testable run() entry point.
// (The serving loop itself is covered by internal/serve and the
// facade's end-to-end test.)

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hybridrel/internal/bgpsim"
	"hybridrel/internal/cli"
	"hybridrel/internal/community"
	"hybridrel/internal/core"
	"hybridrel/internal/gen"
	"hybridrel/internal/live"
	"hybridrel/internal/mrt"
	"hybridrel/internal/obs"
	"hybridrel/internal/rpsl"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
	"hybridrel/internal/testutil"
)

func TestRunFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-nope"}, &out, &errb); !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("bad flag: err = %v, want cli.ErrUsage", err)
	}
	// No mode at all, and conflicting modes, are usage errors.
	errb.Reset()
	if err := run(nil, &out, &errb); !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("no mode: err = %v, want cli.ErrUsage", err)
	}
	if !strings.Contains(errb.String(), "exactly one of") {
		t.Errorf("stderr did not explain mode selection: %q", errb.String())
	}
	if err := run([]string{"-snapshot", "a.bin", "-synth", "small"}, &out, &errb); !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("two modes: err = %v, want cli.ErrUsage", err)
	}
	if err := run([]string{"-v4", "ribs4/"}, &out, &errb); !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("pipeline mode without -v6: err = %v, want cli.ErrUsage", err)
	}
	if err := run([]string{"-synth", "galactic"}, &out, &errb); !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("bad -synth: err = %v, want cli.ErrUsage", err)
	}
}

func TestRunBadInput(t *testing.T) {
	var out, errb bytes.Buffer
	// A missing snapshot file is a load error, not a usage error.
	err := run([]string{"-snapshot", "/does/not/exist.snap"}, &out, &errb)
	if err == nil || errors.Is(err, cli.ErrUsage) {
		t.Fatalf("missing snapshot: err = %v, want a load error", err)
	}
	if !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("load error does not name the snapshot: %v", err)
	}
}

func TestLoaderModes(t *testing.T) {
	// The loader is the mode selector; every valid mode yields a
	// LoadFunc and every invalid combination an error.
	if _, err := loader("", false, "", "", "", "", 0, nil); err == nil {
		t.Error("no mode accepted")
	}
	if _, err := loader("a.bin", false, "", "", "", "small", 0, nil); err == nil {
		t.Error("two modes accepted")
	}
	if _, err := loader("", false, "irr.db", "", "", "", 0, nil); err == nil {
		t.Error("pipeline mode without archives accepted")
	}
	if _, err := loader("", false, "", "", "", "galactic", 0, nil); err == nil {
		t.Error("unknown synth scale accepted")
	}
	load, err := loader("a.bin", false, "", "", "", "", 0, nil)
	if err != nil || load == nil {
		t.Fatalf("snapshot mode: %v", err)
	}
	if _, err := load(context.Background()); err == nil {
		t.Error("loading a nonexistent snapshot succeeded")
	}
}

// syncBuffer is a bytes.Buffer safe to write from server goroutines
// while the test polls its contents.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingLineRE = regexp.MustCompile(`serving live on http://(\S+) `)

// TestLiveMetricsEndToEnd boots the real -live serving loop on an
// ephemeral port, scrapes GET /metrics from outside over TCP, and
// asserts the exposition parses and carries the serving, live-ingest,
// and process series with sane values — the same contract the CI
// live-smoke job checks against a shipped binary.
func TestLiveMetricsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full live world")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	orig := baseContext
	baseContext = func() context.Context { return ctx }
	defer func() { baseContext = orig }()

	var stdout, stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-live", "small", "-addr", "127.0.0.1:0",
			"-live-rate", "500", "-live-every", "64", "-live-interval", "100ms",
			"-log-json", "-request-timeout", "10s", "-max-inflight", "256",
			"-grace", "10s",
		}, &stdout, &stderr)
	}()

	// The serving line prints before the world converges; extract the
	// bound address from it.
	deadline := time.Now().Add(2 * time.Minute)
	var base string
	for base == "" {
		if m := servingLineRE.FindStringSubmatch(stderr.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before serving: %v\nstderr:\n%s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serving line within deadline; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return resp.StatusCode, body
	}
	scrape := func() *obs.Exposition {
		t.Helper()
		code, body := get("/metrics")
		if code != http.StatusOK {
			t.Fatalf("GET /metrics = %d", code)
		}
		e, err := obs.ParseExposition(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("exposition does not parse: %v\n%s", err, body)
		}
		return e
	}

	// Liveness answers during the pre-load window and after.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("GET /healthz = %d, want 200", code)
	}

	// Poll until the ingester has swapped at least one churned snapshot
	// in and readiness has flipped.
	var e *obs.Exposition
	for {
		cur := scrape()
		swaps, _ := cur.Value("hybridrel_live_snapshot_swaps_total")
		ready, _ := get("/readyz")
		if swaps >= 1 && ready == http.StatusOK {
			e = cur
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no live swap within deadline (swaps=%v, readyz=%d)\nstderr:\n%s",
				swaps, ready, stderr.String())
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Exercise a data endpoint so the serve series have a 2xx to show.
	if code, _ := get("/v1/stats"); code != http.StatusOK {
		t.Errorf("GET /v1/stats = %d, want 200", code)
	}
	e = scrape()

	mustPositive := func(series string) {
		t.Helper()
		v, ok := e.Value(series)
		if !ok || !(v > 0) {
			t.Errorf("series %s = %v (present %v), want > 0", series, v, ok)
		}
	}
	// Live-ingest tier.
	mustPositive("hybridrel_live_updates_applied_total")
	mustPositive("hybridrel_live_snapshot_swaps_total")
	mustPositive("hybridrel_live_swap_duration_ns_count")
	if _, ok := e.Value(`hybridrel_live_resolves_total{mode="incremental"}`); !ok {
		t.Error("incremental resolve series missing")
	}
	// Serving tier.
	mustPositive("hybridrel_snapshot_generation")
	mustPositive("hybridrel_snapshot_loaded")
	mustPositive(`hybridrel_http_requests_total{code="2xx",endpoint="/metrics"}`)
	mustPositive(`hybridrel_http_requests_total{code="2xx",endpoint="/v1/stats"}`)
	if v := e.Sum("hybridrel_http_request_duration_ns_count"); !(v > 0) {
		t.Errorf("request duration histogram count sums to %v, want > 0", v)
	}
	// Process tier.
	mustPositive("go_goroutines")
	if typ := e.Types["hybridrel_http_request_duration_ns"]; typ != "histogram" {
		t.Errorf("request duration TYPE = %q, want histogram", typ)
	}

	// Clean shutdown through the hooked base context; the drain path
	// must exit without error.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(90 * time.Second):
		t.Fatal("run did not exit after cancel")
	}

	// -log-json wrote one JSON object per request to stdout; every line
	// must decode and carry the schema fields.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no access-log lines on stdout")
	}
	for i, line := range lines {
		var rec struct {
			Time     string  `json:"time"`
			Method   string  `json:"method"`
			Path     string  `json:"path"`
			Endpoint string  `json:"endpoint"`
			Status   int     `json:"status"`
			Bytes    int     `json:"bytes"`
			Duration float64 `json:"duration_ms"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line %d does not parse: %v\n%s", i+1, err, line)
		}
		if rec.Method == "" || rec.Path == "" || rec.Endpoint == "" || rec.Status == 0 {
			t.Errorf("access log line %d missing fields: %s", i+1, line)
		}
		if _, err := time.Parse(time.RFC3339Nano, rec.Time); err != nil {
			t.Errorf("access log line %d bad timestamp %q: %v", i+1, rec.Time, err)
		}
	}
}

// TestLiveMRTChangesEndToEnd boots -live-mrt against real BGP4MP
// UPDATE archives written from a synthetic feed, with -history and an
// IRR dictionary, and checks the full change-feed contract over TCP:
// the replayed world's /healthz matches a local applier fed the same
// events, /v1/changes reads deterministically (full vs paged, repeated
// reads byte-identical once the replay quiesces), ?at= time travel is
// enabled, and the change counters show on /metrics.
func TestLiveMRTChangesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full live world")
	}
	in, err := gen.Build(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed, err := bgpsim.GenerateFeed(in, bgpsim.FeedConfig{Seed: 31, ChurnEvents: 300})
	if err != nil {
		t.Fatal(err)
	}

	// Write the feed as two BGP4MP archives with strictly increasing
	// timestamps, so the loader's timestamp merge reproduces feed order
	// exactly and the replay is deterministic end to end.
	dir := t.TempDir()
	base := time.Unix(1_700_000_000, 0).UTC()
	half := len(feed.Events) / 2
	writeUpdates := func(name string, events []bgpsim.FeedEvent, off int) {
		t.Helper()
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		w := mrt.NewWriter(f)
		for i, ev := range events {
			err := w.WriteBGP4MP(base.Add(time.Duration(off+i)*time.Second), &mrt.BGP4MPMessage{
				PeerAS:    ev.Vantage,
				LocalAS:   64500,
				PeerAddr:  netip.MustParseAddr("192.0.2.1"),
				LocalAddr: netip.MustParseAddr("192.0.2.2"),
				AS4:       true,
				Data:      ev.Data,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeUpdates("updates.0000.mrt", feed.Events[:half], 0)
	writeUpdates("updates.0001.mrt", feed.Events[half:], half)
	irrPath := filepath.Join(dir, "irr.db")
	irrFile, err := os.Create(irrPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.WriteIRR(irrFile); err != nil {
		t.Fatal(err)
	}
	if err := irrFile.Close(); err != nil {
		t.Fatal(err)
	}

	// The expected end state: a local applier over the same events with
	// the same dictionary. The server's final snapshot must agree.
	irrf, err := os.Open(irrPath)
	if err != nil {
		t.Fatal(err)
	}
	objs, _, err := rpsl.Parse(irrf)
	irrf.Close()
	if err != nil {
		t.Fatal(err)
	}
	ap := live.NewApplier(live.Config{
		Dict:           community.FromIRR(objs),
		DirtyThreshold: live.DefaultDirtyThreshold,
	})
	for _, ev := range feed.Events {
		if err := ap.Apply(live.Event{Vantage: ev.Vantage, Data: ev.Data}); err != nil {
			t.Fatal(err)
		}
	}
	want := ap.Snapshot()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	orig := baseContext
	baseContext = func() context.Context { return ctx }
	defer func() { baseContext = orig }()

	var stdout, stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-live-mrt", filepath.Join(dir, "updates.*.mrt"), "-irr", irrPath,
			"-addr", "127.0.0.1:0", "-history", "8",
			"-live-rate", "0", "-live-every", "64", "-grace", "10s",
		}, &stdout, &stderr)
	}()

	deadline := time.Now().Add(2 * time.Minute)
	var baseURL string
	for baseURL == "" {
		if m := servingLineRE.FindStringSubmatch(stderr.String()); m != nil {
			baseURL = "http://" + m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before serving: %v\nstderr:\n%s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serving line within deadline; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// An archive replay is bounded: wait until it has fully drained and
	// the journal is static.
	for !strings.Contains(stderr.String(), "replay complete") {
		select {
		case err := <-done:
			t.Fatalf("run exited before the replay completed: %v\nstderr:\n%s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay did not complete within deadline; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(baseURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return resp.StatusCode, body
	}

	// The served world is the locally-replayed one.
	code, body := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", code)
	}
	var health serve.HealthResponse
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz does not parse: %v\n%s", err, body)
	}
	if health.Links4 != len(want.Links4) || health.Links6 != len(want.Links6) ||
		health.Hybrids != len(want.Hybrids) {
		t.Errorf("served world (%d/%d links, %d hybrids) differs from the local replay (%d/%d links, %d hybrids)",
			health.Links4, health.Links6, health.Hybrids,
			len(want.Links4), len(want.Links6), len(want.Hybrids))
	}

	// The change feed: a static journal reads byte-identically twice,
	// and whole-batch pagination concatenates to the full read.
	readFull := func() ([]byte, serve.ChangesResponse) {
		t.Helper()
		code, body := get(fmt.Sprintf("/v1/changes?limit=%d", serve.MaxChangeLimit))
		if code != http.StatusOK {
			t.Fatalf("GET /v1/changes = %d", code)
		}
		var resp serve.ChangesResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("changes response does not parse: %v\n%s", err, body)
		}
		return body, resp
	}
	raw1, full := readFull()
	raw2, _ := readFull()
	if !bytes.Equal(raw1, raw2) {
		t.Error("two reads of the quiesced change feed differ")
	}
	if full.HasMore {
		t.Errorf("full read still has more: %+v", full)
	}
	events := 0
	prevGen := uint64(0)
	for _, b := range full.Batches {
		if b.Generation <= prevGen {
			t.Errorf("batch generations not strictly ascending: %d after %d", b.Generation, prevGen)
		}
		prevGen = b.Generation
		if len(b.Changes) == 0 {
			t.Error("journal holds an empty batch")
		}
		events += len(b.Changes)
	}
	if len(full.Batches) == 0 || events == 0 {
		t.Fatalf("replay with churn journaled no changes: %+v", full)
	}
	if prevGen > full.Current {
		t.Errorf("newest batch generation %d past current %d", prevGen, full.Current)
	}
	var paged []serve.ChangeBatchJSON
	since := uint64(0)
	for {
		code, body := get(fmt.Sprintf("/v1/changes?since=%d&limit=1", since))
		if code != http.StatusOK {
			t.Fatalf("paged GET /v1/changes = %d", code)
		}
		var p serve.ChangesResponse
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		paged = append(paged, p.Batches...)
		if !p.HasMore {
			break
		}
		if p.Next == since {
			t.Fatalf("cursor did not advance past %d", since)
		}
		since = p.Next
	}
	if !reflect.DeepEqual(paged, full.Batches) {
		t.Errorf("paged batches differ from the full read: %d vs %d batches", len(paged), len(full.Batches))
	}

	// Time travel is on (-history 8): a garbage instant is a 400 and an
	// instant far before the first install is 404 or 410, never 200.
	if code, _ := get("/v1/rel?a=1&b=2&at=bogus"); code != http.StatusBadRequest {
		t.Errorf("garbage at = %d, want 400", code)
	}
	if code, _ := get("/v1/rel?a=1&b=2&at=5"); code != http.StatusNotFound && code != http.StatusGone {
		t.Errorf("prehistoric at = %d, want 404 or 410", code)
	}

	// Change counters made it to the exposition.
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	e, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, kind := range []string{"link-appeared", "link-vanished", "class-flipped"} {
		if _, ok := e.Value(fmt.Sprintf("hybridrel_changes_emitted_total{kind=%q}", kind)); !ok {
			t.Errorf("series for kind %s missing from the exposition", kind)
		}
	}
	if total := e.Sum("hybridrel_changes_emitted_total"); int(total) != events {
		t.Errorf("counters tallied %v changes, journal holds %d", total, events)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(90 * time.Second):
		t.Fatal("run did not exit after cancel")
	}
}

var servingAddrRE = regexp.MustCompile(`serving on http://(\S+) `)

// serveMapped boots run() with -snapshot path -mmap on an ephemeral
// port and waits until it is ready. It returns the base URL, the
// server's log, and a shutdown function that cancels the run and
// requires a clean exit.
func serveMapped(t *testing.T, path string) (string, *syncBuffer, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	orig := baseContext
	baseContext = func() context.Context { return ctx }

	var stdout, stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-snapshot", path, "-mmap", "-addr", "127.0.0.1:0"}, &stdout, &stderr)
	}()
	shutdown := func() {
		t.Helper()
		cancel()
		defer func() { baseContext = orig }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v\nstderr:\n%s", err, stderr.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatal("run did not shut down after cancel")
		}
	}

	deadline := time.Now().Add(time.Minute)
	var base string
	for base == "" {
		if m := servingAddrRE.FindStringSubmatch(stderr.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before serving: %v\nstderr:\n%s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serving line within deadline; stderr:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for time.Now().Before(deadline) {
		if code, _ := httpDo(t, "GET", base+"/readyz"); code == http.StatusOK {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return base, &stderr, shutdown
}

// httpDo issues one request and returns its status and body.
func httpDo(t *testing.T, method, url string) (int, string) {
	t.Helper()
	hr, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp.StatusCode, string(body)
}

// smallSnapshot captures the small world's analysis.
func smallSnapshot(t *testing.T) *snapshot.Snapshot {
	t.Helper()
	w, err := testutil.BuildWorld(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshot.Capture(core.Analyze(w.D4, w.D6, w.Dict, core.DefaultOptions()))
	if len(snap.Hybrids) == 0 {
		t.Fatal("small world produced no hybrids")
	}
	return snap
}

// TestMmapServeEndToEnd boots run() with -snapshot -mmap against a real
// fixed-width artifact: readiness flips once the mapped snapshot is
// installed, data endpoints answer from the aliased tables and index,
// POST /v1/reload remaps the file and retires the old mapping, and
// shutdown is clean.
func TestMmapServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full serving loop")
	}
	snap := smallSnapshot(t)
	path := filepath.Join(t.TempDir(), "world.snap2")
	if err := snapshot.WriteFileV2(path, snap); err != nil {
		t.Fatal(err)
	}
	base, _, shutdown := serveMapped(t, path)

	h := snap.Hybrids[0]
	rel := fmt.Sprintf("/v1/rel?a=%d&b=%d", uint32(h.Key.Lo), uint32(h.Key.Hi))
	for _, p := range []string{"/readyz", "/v1/stats", rel, fmt.Sprintf("/v1/as/%d", uint32(h.Key.Lo))} {
		if code, _ := httpDo(t, "GET", base+p); code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200 (mmap-served)", p, code)
		}
	}
	// Remap via the reload endpoint; answers must be uninterrupted.
	if code, _ := httpDo(t, "POST", base+"/v1/reload"); code != http.StatusOK {
		t.Errorf("POST /v1/reload = %d, want 200", code)
	}
	if code, _ := httpDo(t, "GET", base+rel); code != http.StatusOK {
		t.Errorf("GET %s after remap = %d, want 200", rel, code)
	}
	shutdown()
}

// TestMmapCorruptReloadKeepsServing is the crash regression: a reload
// — SIGHUP or POST /v1/reload — of a snapshot file with one flipped
// hybrid-class byte, in format v2 (no checksums, caught by the payload
// checks) and in format v3 (caught by the section checksum), reports
// the error, and the previous generation keeps serving.
func TestMmapCorruptReloadKeepsServing(t *testing.T) {
	snap := smallSnapshot(t)
	var v3 bytes.Buffer
	if err := snapshot.EncodeV2(&v3, snap); err != nil {
		t.Fatal(err)
	}
	v2, err := snapshot.DowngradeV2(v3.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.snap")
	if err := os.WriteFile(path, v3.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	base, stderr, shutdown := serveMapped(t, path)
	defer shutdown()

	h := snap.Hybrids[0]
	rel := fmt.Sprintf("%s/v1/rel?a=%d&b=%d", base, uint32(h.Key.Lo), uint32(h.Key.Hi))
	for _, tc := range []struct {
		name      string
		data      []byte
		entrySize int // directory entry width of the format
		wantErr   string
	}{
		{"v2", v2, 16, "invalid hybrid class"},
		{"v3", v3.Bytes(), 24, "hybrid list: checksum mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Section 6 is the hybrid list; byte 10 of a record is the class.
			bad := bytes.Clone(tc.data)
			off := binary.LittleEndian.Uint64(bad[8+tc.entrySize*6:])
			bad[off+10] = 0xFF
			tmp := path + ".tmp"
			if err := os.WriteFile(tmp, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(tmp, path); err != nil {
				t.Fatal(err)
			}

			before := strings.Count(stderr.String(), "reload failed")
			if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for strings.Count(stderr.String(), "reload failed") == before {
				if time.Now().After(deadline) {
					t.Fatalf("SIGHUP reload of a corrupt %s file logged no failure; stderr:\n%s", tc.name, stderr.String())
				}
				time.Sleep(10 * time.Millisecond)
			}
			if log := stderr.String(); !strings.Contains(log[strings.LastIndex(log, "reload failed"):], tc.wantErr) {
				t.Errorf("SIGHUP reload failure does not mention %q; stderr:\n%s", tc.wantErr, log)
			}

			code, body := httpDo(t, "POST", base+"/v1/reload")
			if code == http.StatusOK || !strings.Contains(body, tc.wantErr) {
				t.Errorf("POST /v1/reload of a corrupt %s file = %d %s, want an error mentioning %q", tc.name, code, body, tc.wantErr)
			}

			code, body = httpDo(t, "GET", base+"/v1/stats")
			var stats serve.StatsResponse
			if err := json.Unmarshal([]byte(body), &stats); err != nil || code != http.StatusOK {
				t.Fatalf("GET /v1/stats = %d %s (%v)", code, body, err)
			}
			if stats.Generation != 1 {
				t.Errorf("generation %d after failed reloads, want the first generation still serving", stats.Generation)
			}
			if code, body := httpDo(t, "GET", rel); code != http.StatusOK {
				t.Errorf("GET %s after failed reloads = %d %s, want 200", rel, code, body)
			}
		})
	}
}
