package server

// Request-scoped tracing and readiness for the HTTP surface: batch-plane
// root spans with W3C traceparent ingestion, control-plane request ids,
// the /v1/debug/traces and /metrics/history endpoints, and the
// liveness/readiness split.
//
// The batch plane is the hot path, so its instrumentation is shaped by
// the zero-allocation budget (TestProbeUnsampledAllocParity pins it):
// an unsampled request with no traceparent and debug logging off takes
// one atomic sampling decision and carries a nil span — no id is
// generated, no header is written, no log line is built. Ids come into
// existence lazily, exactly when something will consume them: the
// request was sampled, the client sent a traceparent, debug access
// logging is enabled, or an error path needs a greppable identity.

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"perfilter/internal/obs"
)

// batchTrace carries one data-plane request's tracing state between
// beginBatch and finish. Value type: it lives on the handler's stack.
type batchTrace struct {
	name   string // root span name: "server.probe" | "server.insert"
	op     string // "probe" | "insert"
	filter string
	start  time.Time
	tp     string // raw traceparent header ("" for none)
	span   *obs.Span
	id     string // request/trace id; "" until something needs one
}

// beginBatch makes the sampling decision for one batch-plane request and
// resolves the request id if anything will consume it. The returned
// context carries the root span when sampled. name and op are both
// passed as constants: deriving one from the other would concatenate a
// string on the zero-alloc path.
func (s *Server) beginBatch(r *http.Request, name, op, filter string) (context.Context, batchTrace) {
	bt := batchTrace{
		name:   name,
		op:     op,
		filter: filter,
		start:  time.Now(),
		// The pre-canonicalized key avoids textproto's canonicalization
		// allocation on the zero-alloc path.
		tp: r.Header.Get("Traceparent"),
	}
	ctx, sp := s.tracer.StartRoot(r.Context(), name, bt.tp)
	bt.span = sp
	switch {
	case sp != nil:
		bt.id = sp.TraceIDString()
	case bt.tp != "":
		if id, ok := obs.TraceparentID(bt.tp); ok {
			bt.id = id
		}
	}
	if bt.id == "" && s.log.Enabled(r.Context(), slog.LevelDebug) {
		bt.id = s.tracer.GenIDString()
	}
	return ctx, bt
}

// requestID returns the request id, generating one on first use — the
// error-path hook: a mid-stream write failure must log a greppable id
// even for a request that never had one.
func (bt *batchTrace) requestID(s *Server) string {
	if bt.id == "" {
		bt.id = s.tracer.GenIDString()
	}
	return bt.id
}

// finish completes the request's trace: ends the sampled span (with
// outcome attrs), or — for unsampled requests — captures a post-hoc
// slow span when the duration breaches the tracer's threshold, and
// emits the debug access line.
func (bt *batchTrace) finish(s *Server, status, keys, out int) {
	durNs := time.Since(bt.start).Nanoseconds()
	if bt.span != nil {
		bt.span.SetAttr("filter", bt.filter)
		bt.span.SetAttr("status", status)
		bt.span.SetAttr("keys", keys)
		bt.span.SetAttr("out", out)
		bt.span.End()
	} else if slow := s.tracer.SlowNs(); slow > 0 && durNs > slow {
		var tid obs.TraceID
		if t, _, _, ok := obs.ParseTraceparent(bt.tp); ok {
			tid = t
		}
		s.tracer.RecordSlow(bt.name, tid, bt.start, durNs,
			obs.Attr{Key: "filter", Value: bt.filter},
			obs.Attr{Key: "status", Value: status},
			obs.Attr{Key: "keys", Value: keys},
			obs.Attr{Key: "out", Value: out})
	}
	if bt.id != "" {
		s.log.Debug("request",
			"op", bt.op, "filter", bt.filter, "status", status,
			"keys", keys, "out", out, "duration_ns", durNs,
			"request_id", bt.id)
	}
}

// histQuantiles renders one latency histogram's headline quantiles for
// handleStats.
func histQuantiles(h *obs.Histogram) map[string]any {
	return map[string]any{
		"count":  h.Count(),
		"p50_ns": h.Quantile(0.50),
		"p95_ns": h.Quantile(0.95),
		"p99_ns": h.Quantile(0.99),
	}
}

// statusWriter captures the status code a wrapped handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// cp wraps a control-plane handler with request identity: every request
// gets an id (the traceparent's trace id when one was sent, generated
// otherwise), echoed in X-Trace-Id and logged in a debug access line.
// Control-plane traffic is cold, so unconditional id generation is fine
// here — only the batch plane earns the lazy treatment.
func (s *Server) cp(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, ok := obs.TraceparentID(r.Header.Get("Traceparent"))
		if !ok {
			id = s.tracer.GenIDString()
		}
		w.Header().Set("X-Trace-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.log.Debug("request",
			"method", r.Method, "path", r.URL.Path, "status", sw.status,
			"duration_ns", time.Since(start).Nanoseconds(),
			"request_id", id)
	}
}

// handleReadyz is the readiness probe, split from /healthz liveness: a
// starting server still restoring its DataDir, or one mid-migration
// (rebuilding a filter under the dual-write window), is alive but
// should not receive fresh traffic yet.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "starting", "reason": "data dir restore in progress",
		})
	case s.migrating.Load() > 0:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "migrating", "migrations_in_flight": s.migrating.Load(),
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	}
}

// StartHistory launches the background metrics self-scraper: one
// historyTick every interval until ctx is cancelled.
func (s *Server) StartHistory(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		return
	}
	go func() {
		s.history.Scrape() // prime the delta baseline
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s.historyTick()
			}
		}
	}()
}

// historyTick is one self-scrape: a registry snapshot into the fixed ring
// behind GET /metrics/history. When the server was built with
// TraceAutoSlow, it also re-derives the tracer's slow-capture threshold
// as 2x the probe plane's live p99 — the "latency > p99x2" rule from the
// tracing design, tracking the workload instead of a hand-set constant.
func (s *Server) historyTick() {
	s.history.Scrape()
	if s.traceAutoSlow {
		if p99 := s.metrics.probeDur.Quantile(0.99); p99 > 0 {
			s.tracer.SetSlowNs(int64(2 * p99))
		}
	}
}
