package main

// The traced run's in-process layer replay: the workload's key stream is
// driven through each layer's public batch API in turn — kernel, registry
// adapter, sharded wrapper, adaptive wrapper, and the server's HTTP
// handler without a socket — with a span around every call. Only one
// layer's filter is alive at a time, so the 512 MiB case fits in memory.

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"time"

	"perfilter"
	"perfilter/internal/blocked"
	"perfilter/internal/cuckoo"
	"perfilter/internal/model"
	"perfilter/internal/obs"
	"perfilter/internal/registry"
	"perfilter/internal/server"
)

// layerTarget is one layer's batch API. prep, when set, runs untimed
// before each call (the server layer builds its request there).
type layerTarget struct {
	prep   func(op string, keys []uint32)
	insert func(keys []uint32) error
	probe  func(keys []uint32, sel []uint32) ([]uint32, error)
	close  func()
}

// replayStats are the per-layer numbers the replay measures beyond spans.
type replayStats struct {
	bloomFPR, cuckooFPR, cuckooLoad float64
	allocsPerReq, bytesPerReq       float64
}

// replay drives every layer with the stream the served filter saw:
// preload keys of the served filter's size, then the workload's probes
// (or, for the mixed workload, alternating insert and probe batches).
func (r *run) replay(log *spanLog, served filterInfo) (replayStats, error) {
	var st replayStats
	kind, ok := perfilter.KindByName(r.w.kind)
	if !ok {
		return st, fmt.Errorf("unknown kind %q", r.w.kind)
	}
	cfg := perfilter.DefaultConfig(kind)
	mbits, shards := r.mbits(), served.Filter.Shards
	layers := []struct {
		name  string
		build func() (*layerTarget, error)
	}{
		{"blocked", func() (*layerTarget, error) {
			f, err := blocked.New(registry.Lookup(model.KindBlockedBloom).Default.Bloom, mbits)
			if err != nil {
				return nil, err
			}
			return &layerTarget{
				insert: insertEach(func(k uint32) error { f.Insert(k); return nil }),
				probe:  func(keys, sel []uint32) ([]uint32, error) { return f.ContainsBatch(keys, sel), nil },
				close:  func() { st.bloomFPR = f.FPR(r.replayCount(served)) },
			}, nil
		}},
		{"cuckoo", func() (*layerTarget, error) {
			f, err := cuckoo.New(registry.Lookup(model.KindCuckoo).Default.Cuckoo, mbits)
			if err != nil {
				return nil, err
			}
			return &layerTarget{
				insert: insertEach(f.Insert),
				probe:  func(keys, sel []uint32) ([]uint32, error) { return f.ContainsBatch(keys, sel), nil },
				close:  func() { st.cuckooFPR, st.cuckooLoad = f.FPR(f.Count()), f.LoadFactor() },
			}, nil
		}},
		{"registry", func() (*layerTarget, error) {
			f, err := perfilter.New(cfg, mbits)
			if err != nil {
				return nil, err
			}
			return &layerTarget{
				insert: insertEach(f.Insert),
				probe:  func(keys, sel []uint32) ([]uint32, error) { return f.ContainsBatch(keys, sel), nil },
				close:  func() {},
			}, nil
		}},
		{"sharded", func() (*layerTarget, error) {
			f, err := perfilter.NewSharded(cfg, mbits, shards)
			if err != nil {
				return nil, err
			}
			return batchTarget(f.InsertBatch, f.ContainsBatch, f.Close), nil
		}},
		{"adaptive", func() (*layerTarget, error) {
			f, err := perfilter.NewAdaptive(cfg, mbits, perfilter.AdaptiveOptions{
				Workload: perfilter.Workload{Tw: server.DefaultTw},
				Shards:   shards, DisableAutoGrow: true,
			})
			if err != nil {
				return nil, err
			}
			return batchTarget(f.InsertBatch, f.ContainsBatch, f.Close), nil
		}},
		{"server", func() (*layerTarget, error) {
			return r.serverTarget(mbits, &st)
		}},
	}
	for _, l := range layers {
		t, err := l.build()
		if err != nil {
			return st, fmt.Errorf("%s layer: %w", l.name, err)
		}
		err = r.replayLayer(log, l.name, t, served)
		t.close()
		// Free this layer's filter before the next one is built.
		runtime.GC()
		debug.FreeOSMemory()
		if err != nil {
			return st, fmt.Errorf("%s layer: %w", l.name, err)
		}
	}
	return st, nil
}

// replayCount is the number of keys every layer ends up holding.
func (r *run) replayCount(served filterInfo) uint64 {
	if r.w.fillTo > 0 {
		return uint64(r.w.fillTo * float64(served.Filter.SizeBits/tagBits))
	}
	return r.w.preload(served.Filter.SizeBits)
}

// insertEach adapts a per-key insert (the kernels and the registry
// adapter have no batch insert) to the batch interface.
func insertEach(insert func(uint32) error) func([]uint32) error {
	return func(keys []uint32) error {
		for _, k := range keys {
			if err := insert(k); err != nil {
				return err
			}
		}
		return nil
	}
}

func batchTarget(insert func([]uint32) (int, error), probe func(keys, sel []uint32) []uint32, close func()) *layerTarget {
	return &layerTarget{
		insert: func(keys []uint32) error {
			n, err := insert(keys)
			if err == nil && n != len(keys) {
				err = fmt.Errorf("inserted %d of %d keys", n, len(keys))
			}
			return err
		},
		probe: func(keys, sel []uint32) ([]uint32, error) { return probe(keys, sel), nil },
		close: close,
	}
}

// replayLayer drives one layer and records a span per call; every probe
// answer goes through the same position oracle as the HTTP responses.
func (r *run) replayLayer(log *spanLog, layer string, t *layerTarget, served filterInfo) error {
	w := r.w
	keys := make([]uint32, max(w.loadBatch, w.probeBatch))
	present := make([]bool, w.probeBatch)
	var sel []uint32
	call := func(op string, ks []uint32, f func() error) error {
		if t.prep != nil {
			t.prep(op, ks)
		}
		t0 := time.Now()
		err := f()
		log.add(layer, op, t0, time.Since(t0), len(ks))
		return err
	}
	insertRange := func(start, end uint64, batch int) error {
		for ; start < end; start += uint64(batch) {
			ks := keys[:min(uint64(batch), end-start)]
			rangeBatch(r.perm, ks, presentBase, uint32(start))
			if err := call("insert", ks, func() error { return t.insert(ks) }); err != nil {
				return err
			}
		}
		return nil
	}
	rg := rng{s: streamSeed(r.seed, 900)}
	probe := func(acked uint64) error {
		ks := keys[:w.probeBatch]
		probeBatch(r.perm, &rg, ks, present, uint32(acked))
		err := call("probe", ks, func() error {
			var err error
			sel, err = t.probe(ks, sel[:0])
			return err
		})
		if err != nil {
			return err
		}
		_, err = checkPositions(len(ks), present, sel)
		return err
	}
	n := w.preload(served.Filter.SizeBits)
	if err := insertRange(0, n, w.loadBatch); err != nil {
		return err
	}
	if w.fillTo > 0 {
		target := r.replayCount(served)
		for acked := n; acked < target; {
			end := min(acked+uint64(w.probeBatch), target)
			if err := insertRange(acked, end, w.probeBatch); err != nil {
				return err
			}
			acked = end
			if err := probe(acked); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < w.replayProbeKeys/w.probeBatch; i++ {
		if err := probe(n); err != nil {
			return err
		}
	}
	return nil
}

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, b...)
	return len(b), nil
}

func (w *respWriter) reset() {
	clear(w.h)
	w.status = 0
	w.body = w.body[:0]
}

// serverTarget serves one filter from server.New(...).Handler(), called
// directly with ServeHTTP. Its close measures the handler's allocations
// per probe request.
func (r *run) serverTarget(mbits uint64, st *replayStats) (*layerTarget, error) {
	srv := server.New(server.Options{
		Tracer: obs.NewTracer(obs.TracerOptions{}), // as -trace-sample 0 -trace-slow-ns -1
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	h := srv.Handler()
	rw := &respWriter{h: http.Header{}}
	var req *http.Request
	var body []byte
	newReq := func(op string, keys []uint32) *http.Request {
		body = encodeKeys(body, keys)
		return httptest.NewRequest(http.MethodPost, "/v1/filters/"+filterName+"/"+op, bytes.NewReader(body))
	}
	create := httptest.NewRequest(http.MethodPost, "/v1/filters",
		bytes.NewReader([]byte(fmt.Sprintf(`{"name":%q,"kind":%q,"mbits":%d}`, filterName, r.w.kind, mbits))))
	h.ServeHTTP(rw, create)
	if rw.status != http.StatusCreated {
		return nil, fmt.Errorf("create: %d %s", rw.status, truncate(rw.body))
	}
	serve := func(keys []uint32) error {
		rw.reset()
		h.ServeHTTP(rw, req)
		if rw.status != http.StatusOK {
			return fmt.Errorf("status %d: %s", rw.status, truncate(rw.body))
		}
		return nil
	}
	var pos []uint32
	t := &layerTarget{
		prep: func(op string, keys []uint32) { req = newReq(op, keys) },
		insert: func(keys []uint32) error {
			if err := serve(keys); err != nil {
				return err
			}
			return checkInsert(len(keys), rw.body)
		},
		probe: func(keys, sel []uint32) ([]uint32, error) {
			if err := serve(keys); err != nil {
				return sel, err
			}
			var err error
			pos, err = decodeSelection(len(keys), rw.h.Get("X-Probed-Keys"), rw.h.Get("X-Selected"), rw.body, pos)
			return append(sel, pos...), err
		},
	}
	t.close = func() {
		st.allocsPerReq, st.bytesPerReq = r.probeAllocs(h, rw)
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodDelete, "/v1/filters/"+filterName, nil))
	}
	return t, nil
}

// probeAllocs measures the handler's heap allocations per probe request
// over requests built beforehand, so only the handler's own are counted.
func (r *run) probeAllocs(h http.Handler, rw *respWriter) (allocs, bytesPer float64) {
	const reqs = 256
	rg := rng{s: streamSeed(r.seed, 901)}
	keys := make([]uint32, r.w.probeBatch)
	present := make([]bool, r.w.probeBatch)
	all := make([]*http.Request, reqs)
	for i := range all {
		probeBatch(r.perm, &rg, keys, present, 1)
		all[i] = httptest.NewRequest(http.MethodPost, "/v1/filters/"+filterName+"/probe",
			bytes.NewReader(encodeKeys(nil, keys)))
	}
	rw.reset()
	h.ServeHTTP(rw, all[0]) // warm the handler's buffer pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range all[1:] {
		rw.reset()
		h.ServeHTTP(rw, req)
	}
	runtime.ReadMemStats(&after)
	n := float64(reqs - 1)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}
