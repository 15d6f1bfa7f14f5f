package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"perfilter/internal/obs"
	"perfilter/internal/rng"
)

// tracesOut lets CI capture a real trace dump as a build artifact:
// go test ./internal/server -run TestProbeTraceEndToEnd -traces-out TRACE_sample.json
var tracesOut = flag.String("traces-out", "",
	"write the /v1/debug/traces body fetched by TestProbeTraceEndToEnd to this file")

// syncBuffer is a mutex-guarded bytes.Buffer usable as a slog sink from
// concurrent handlers.
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

// TestProbeTraceEndToEnd is the issue's acceptance path: a probe batch
// carrying a W3C traceparent yields (a) the same trace id echoed in the
// response header and the slog access line, and (b) a root span in
// /v1/debug/traces whose per-shard children carry shard index and
// generation seq.
func TestProbeTraceEndToEnd(t *testing.T) {
	const (
		tid = "4bf92f3577b34da6a3ce929d0e0e4736"
		tp  = "00-" + tid + "-00f067aa0ba902b7-01"
	)
	// Rate 0: only the traceparent's sampled flag gets a span into the
	// ring, so the assertions below can't be satisfied by head sampling.
	tracer := obs.NewTracer(obs.TracerOptions{SampleRate: 0, RingSize: 32})
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ts := httptest.NewServer(New(Options{Logger: logger, Tracer: tracer}).Handler())
	defer ts.Close()

	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{
		Name: "traced", Kind: "bloom", MBits: 1 << 20, Shards: 4,
	}, http.StatusCreated)
	r := rng.NewMT19937(77)
	keys := make([]uint32, 4096)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	resp := postBinary(t, ts.URL+"/v1/filters/traced/insert", keys)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}

	req, err := http.NewRequest("POST", ts.URL+"/v1/filters/traced/probe",
		bytes.NewReader(leBytes(keys[:1024])))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("Traceparent", tp)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe status %d", resp.StatusCode)
	}

	// (a) the trace id round-trips: response header and access line.
	if got := resp.Header.Get("X-Trace-Id"); got != tid {
		t.Fatalf("X-Trace-Id = %q, want the ingested %q", got, tid)
	}
	if logs := logBuf.String(); !strings.Contains(logs, "request_id="+tid) {
		t.Fatalf("access log lacks request_id=%s:\n%s", tid, logs)
	}

	// (b) the span tree landed in the debug ring with per-shard children.
	tresp, err := http.Get(ts.URL + "/v1/debug/traces?name=server.probe")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if err != nil || tresp.StatusCode != http.StatusOK {
		t.Fatalf("traces status %d err %v", tresp.StatusCode, err)
	}
	if *tracesOut != "" {
		if err := os.WriteFile(*tracesOut, body, 0o644); err != nil {
			t.Fatalf("write %s: %v", *tracesOut, err)
		}
	}
	var dump struct {
		Spans []struct {
			TraceID string `json:"trace_id"`
			Name    string `json:"name"`
			Attrs   []struct {
				Key   string `json:"key"`
				Value any    `json:"value"`
			} `json:"attrs"`
			Children []struct {
				Name  string `json:"name"`
				Attrs []struct {
					Key   string `json:"key"`
					Value any    `json:"value"`
				} `json:"attrs"`
			} `json:"children"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	for _, sp := range dump.Spans {
		if sp.TraceID != tid {
			continue
		}
		if sp.Name != "server.probe" {
			t.Fatalf("root span name %q", sp.Name)
		}
		attrs := map[string]any{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["filter"] != "traced" || attrs["keys"] != float64(1024) {
			t.Fatalf("root attrs %v", attrs)
		}
		shards := 0
		for _, c := range sp.Children {
			if c.Name != "shard.probe" {
				continue
			}
			shards++
			child := map[string]any{}
			for _, a := range c.Attrs {
				child[a.Key] = a.Value
			}
			if _, ok := child["shard"]; !ok {
				t.Fatalf("shard.probe child lacks shard index: %v", child)
			}
			if _, ok := child["generation"]; !ok {
				t.Fatalf("shard.probe child lacks generation seq: %v", child)
			}
		}
		if shards == 0 {
			t.Fatal("root span has no shard.probe children")
		}
		return
	}
	t.Fatalf("no span with trace id %s in /v1/debug/traces", tid)
}

// TestReadyzLifecycle pins the liveness/readiness split: /healthz is
// always 200 while the process serves; /readyz refuses traffic while
// the data-dir restore is pending and while a migration is in flight.
func TestReadyzLifecycle(t *testing.T) {
	// No data dir: nothing to restore, ready from birth.
	s := newQuiet(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	out := doJSON(t, "GET", ts.URL+"/readyz", nil, http.StatusOK)
	if out["status"] != "ready" {
		t.Fatalf("readyz %v", out)
	}

	// A migration in flight flips readiness but not liveness.
	s.migrating.Add(1)
	out = doJSON(t, "GET", ts.URL+"/readyz", nil, http.StatusServiceUnavailable)
	if out["status"] != "migrating" {
		t.Fatalf("readyz during migration: %v", out)
	}
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK)
	s.migrating.Add(-1)
	doJSON(t, "GET", ts.URL+"/readyz", nil, http.StatusOK)

	// With a data dir the server starts unready until LoadAll returns.
	s2 := newQuiet(Options{DataDir: t.TempDir()})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	out = doJSON(t, "GET", ts2.URL+"/readyz", nil, http.StatusServiceUnavailable)
	if out["status"] != "starting" {
		t.Fatalf("readyz before restore: %v", out)
	}
	doJSON(t, "GET", ts2.URL+"/healthz", nil, http.StatusOK) // alive all along
	if _, err := s2.LoadAll(); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "GET", ts2.URL+"/readyz", nil, http.StatusOK)
}

// TestStatsLatencyQuantiles pins the quantile surfacing in handleStats:
// after batch traffic, the filter's stats expose server-wide probe and
// insert p50/p95/p99 estimates.
func TestStatsLatencyQuantiles(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{
		Name: "lq", Kind: "bloom", MBits: 1 << 20, Shards: 2,
	}, http.StatusCreated)
	keys := make([]uint32, 2048)
	for i := range keys {
		keys[i] = uint32(i) * 2654435761
	}
	resp := postBinary(t, ts.URL+"/v1/filters/lq/insert", keys)
	resp.Body.Close()
	resp = postBinary(t, ts.URL+"/v1/filters/lq/probe", keys)
	resp.Body.Close()

	st := doJSON(t, "GET", ts.URL+"/v1/filters/lq", nil, http.StatusOK)
	lat, ok := st["latency_ns"].(map[string]any)
	if !ok {
		t.Fatalf("stats has no latency_ns: %v", st)
	}
	for _, op := range []string{"probe", "insert"} {
		q, ok := lat[op].(map[string]any)
		if !ok {
			t.Fatalf("latency_ns lacks %s: %v", op, lat)
		}
		count, _ := q["count"].(float64)
		p50, _ := q["p50_ns"].(float64)
		p95, _ := q["p95_ns"].(float64)
		p99, _ := q["p99_ns"].(float64)
		if count < 1 {
			t.Errorf("%s quantiles with count %v", op, q["count"])
		}
		if p50 <= 0 || p50 > p95 || p95 > p99 {
			t.Errorf("%s quantiles not sane: p50 %g p95 %g p99 %g", op, p50, p95, p99)
		}
	}
}

// TestControlPlaneRequestID pins the cp wrapper: every control-plane
// response echoes an X-Trace-Id (the traceparent's trace id when one was
// sent, generated otherwise) and the debug access line carries it.
func TestControlPlaneRequestID(t *testing.T) {
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ts := httptest.NewServer(New(Options{
		Logger: logger,
		Tracer: obs.NewTracer(obs.TracerOptions{RingSize: 8}),
	}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/filters")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	generated := resp.Header.Get("X-Trace-Id")
	if len(generated) != 32 {
		t.Fatalf("generated X-Trace-Id %q", generated)
	}
	if !strings.Contains(logBuf.String(), "request_id="+generated) {
		t.Fatalf("control-plane access line lacks request_id=%s:\n%s", generated, logBuf.String())
	}

	const tid = "aaaabbbbccccddddeeeeffff00001111"
	req, _ := http.NewRequest("GET", ts.URL+"/v1/filters", nil)
	req.Header.Set("Traceparent", "00-"+tid+"-00f067aa0ba902b7-00")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != tid {
		t.Fatalf("X-Trace-Id = %q, want ingested %q", got, tid)
	}
}

// TestProbeUnsampledAllocParity is the issue's alloc gate at the server
// level: with a live tracer at rate 0 (the production steady state for
// the 99% of requests that aren't sampled), the probe handler allocates
// no more than with tracing disabled outright — instrumentation is free
// until a request is actually sampled.
func TestProbeUnsampledAllocParity(t *testing.T) {
	measure := func(tracer *obs.Tracer) float64 {
		s := newQuiet(Options{Tracer: tracer})
		h := s.Handler()
		// Register the filter through the real control plane so e.m and
		// the pooled buffers are in their production state.
		rec := httptest.NewRecorder()
		body, _ := json.Marshal(CreateRequest{Name: "par", Kind: "bloom", MBits: 1 << 20, Shards: 2})
		req := httptest.NewRequest("POST", "/v1/filters", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			t.Fatalf("create status %d", rec.Code)
		}
		keys := make([]uint32, 512)
		for i := range keys {
			keys[i] = uint32(i) * 2654435761
		}
		probe := leBytes(keys)
		br := bytes.NewReader(probe)
		return testing.AllocsPerRun(200, func() {
			br.Reset(probe)
			req := httptest.NewRequest("POST", "/v1/filters/par/probe", br)
			req.Header.Set("Content-Type", "application/octet-stream")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("probe status %d", rec.Code)
			}
		})
	}

	// Pools are GC-cleared; freezing GC keeps both runs comparable.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	disabled := measure(&obs.Tracer{}) // zero value: tracing off entirely
	unsampled := measure(obs.NewTracer(obs.TracerOptions{SampleRate: 0, RingSize: 32}))
	if raceEnabled {
		// sync.Pool drops a quarter of Puts under -race, so both runs
		// miss the server's probe buffers and the sharded scratch at
		// random (about 50 times each in 200 requests) and either count
		// can land on either side of an integer: no gate there.
		return
	}
	if unsampled > disabled+0.5 {
		t.Fatalf("unsampled tracing adds allocations on the probe path: %.1f/op vs %.1f/op disabled",
			unsampled, disabled)
	}
}

// TestHistoryTickAutoSlow pins the TraceAutoSlow rule: after probe
// traffic, one history tick sets the tracer's slow-capture threshold to
// 2x the probe plane's live p99; with the rule off the threshold is left
// alone.
func TestHistoryTickAutoSlow(t *testing.T) {
	const initialSlowNs = 123456789
	for _, auto := range []bool{true, false} {
		tracer := obs.NewTracer(obs.TracerOptions{RingSize: 8, SlowNs: initialSlowNs})
		s := newQuiet(Options{Tracer: tracer, TraceAutoSlow: auto})
		ts := httptest.NewServer(s.Handler())
		doJSON(t, "POST", ts.URL+"/v1/filters", CreateRequest{
			Name: "slow", Kind: "bloom", MBits: 1 << 20, Shards: 2,
		}, http.StatusCreated)
		keys := make([]uint32, 1024)
		for i := range keys {
			keys[i] = uint32(i) * 2654435761
		}
		for i := 0; i < 8; i++ {
			postBinary(t, ts.URL+"/v1/filters/slow/probe", keys).Body.Close()
		}
		ts.Close()

		s.historyTick()
		p99 := s.metrics.probeDur.Quantile(0.99)
		if p99 <= 0 {
			t.Fatalf("auto=%v: probe p99 %g after probe traffic", auto, p99)
		}
		want := int64(initialSlowNs)
		if auto {
			want = int64(2 * p99)
		}
		if got := tracer.SlowNs(); got != want {
			t.Errorf("auto=%v: SlowNs = %d after one tick, want %d (probe p99 %g)", auto, got, want, p99)
		}
	}
}
