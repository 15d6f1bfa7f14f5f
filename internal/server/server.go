// Package server implements the filter-server HTTP service: named sharded
// filters behind a JSON control plane and a binary batch data plane.
//
// Control plane (JSON):
//
//	POST   /v1/filters               create a named filter (explicit config
//	                                 or {"advise": workload} to let the
//	                                 paper's cost model pick one)
//	GET    /v1/filters               list filters
//	GET    /v1/filters/{name}        stats for one filter
//	DELETE /v1/filters/{name}        drop a filter
//	POST   /v1/filters/{name}/rotate swap in a fresh generation (optionally
//	                                 resized) under live traffic
//	GET    /v1/filters/{name}/advice re-run the cost model against the
//	                                 filter's *tracked* workload (observed
//	                                 n and σ): current vs recommended
//	                                 config, modeled overheads, and whether
//	                                 the hysteresis policy would migrate
//	                                 (?tw= overrides the work-saved term
//	                                 for exploration)
//	POST   /v1/filters/{name}/migrate
//	                                 migrate the filter live — losslessly,
//	                                 under traffic, including Bloom↔Cuckoo
//	                                 kind changes. Empty body applies the
//	                                 advisor's recommendation when the
//	                                 hysteresis margin clears ({"force":
//	                                 true} applies it regardless); a body
//	                                 with kind/mbits (create-style geometry
//	                                 fields) names an explicit target
//	POST   /v1/filters/{name}/snapshot
//	                                 persist the filter to the data dir
//	GET    /v1/filters/{name}/trace  the filter's recent control-loop
//	                                 decisions (a fixed-size ring): every
//	                                 re-optimization pass (each autotune
//	                                 sweep and empty-body migrate, declines
//	                                 and budget refusals included) and
//	                                 explicit-target migration, with the
//	                                 tracked window, ρ_cur vs ρ_new, the
//	                                 hysteresis margin, the chosen
//	                                 configuration and the reason
//	GET    /healthz                  liveness: uptime, Go version, VCS
//	                                 revision (always 200 while the
//	                                 process serves)
//	GET    /readyz                   readiness, split from liveness: 503
//	                                 until the DataDir restore completes
//	                                 and while a migration is in flight
//	GET    /metrics                  Prometheus text exposition for every
//	                                 layer (server batch plane, sharded
//	                                 rotation machinery, adaptive control
//	                                 loop); see internal/obs
//	GET    /metrics/history          the self-scraped ring of periodic
//	                                 registry snapshots (counter deltas +
//	                                 windowed latency quantiles);
//	                                 ?window=5m bounds the lookback
//	GET    /v1/debug/traces          sampled request-scoped trace spans,
//	                                 newest first (?min_ns=&name=&limit=);
//	                                 see internal/obs and tracing.go
//
// Every filter is wrapped in perfilter.NewAdaptive: inserts and probes
// feed atomic workload counters, and an append-only key log makes live
// migrations lossless. StartAutotune (filter-server -autotune) turns the
// advice endpoint's answer into action on a period: each filter whose
// re-advised configuration beats the deployed one by the hysteresis
// margin is migrated automatically. The sweep and the empty-body migrate
// both run Adaptive.Reoptimize, reserving the budget before the rebuild.
// The key log costs 32 bits per logged insert, on top of the filter
// itself and outside the budget.
//
// Persistence: with Options.DataDir set, filters snapshot to
// <dir>/<name>.pf (the perfilter wire format) via the endpoint above or
// SaveAll (cmd/filter-server calls it on shutdown), and LoadAll restores
// every snapshot on start with probe results byte-identical to the
// originals. Restored filters count against the memory budget. Deleting
// a filter also deletes its snapshot, so a restart cannot resurrect it.
//
// Data plane (binary, little-endian uint32 — the repository's canonical
// key width — four bytes per key, no framing):
//
//	POST /v1/filters/{name}/insert   body: keys; response: JSON insert count
//	POST /v1/filters/{name}/probe    body: keys; response: the selection
//	                                 vector (LE uint32 positions of keys
//	                                 that may be contained), or JSON with
//	                                 ?format=json
//
// Both data-plane endpoints also accept Content-Type application/json with
// {"keys": [...]} for curl-friendly exploration; the binary form is the
// high-throughput path (a 1024-key probe is one 4 KiB POST).
//
// All handlers are safe for concurrent use: the registry is behind an
// RWMutex and every filter is a perfilter.Sharded (per-shard locks,
// scatter/gather batches, atomic rotation).
//
// Observability: every insert/probe batch is timed into log-bucketed
// latency histograms, data-plane key and byte volumes are counted
// globally and per filter, and control-plane events (create, delete,
// rotate, migrate, snapshot, autotune) are logged structurally via
// log/slog with the filter name, kind and generation. Options.Pprof
// additionally mounts net/http/pprof under /debug/pprof/.
package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfilter"
	"perfilter/internal/adaptive"
	"perfilter/internal/obs"
)

// DefaultMaxBatchBytes caps data-plane request bodies (16 MiB = 4M keys).
const DefaultMaxBatchBytes = 16 << 20

// DefaultMaxFilterBits caps a single filter's size (2^33 bits = 1 GiB).
// Without a cap, one create or rotate request naming an absurd mbits
// would allocate it and take the process down.
const DefaultMaxFilterBits = 1 << 33

// DefaultMaxTotalBits caps the summed size of all registered filters
// (2^35 bits = 4 GiB) — the per-filter cap alone would still let a
// client OOM the server by creating many filters at the limit.
const DefaultMaxTotalBits = 1 << 35

// DefaultTw is the work saved per pruned probe assumed for filters whose
// creation named no tw: 1000 cycles, between Figure 1's cache-miss (~10^2)
// and network-tuple (~10^4) reference points.
const DefaultTw = 1000

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]{1,64}$`)

// Options configures a Server.
type Options struct {
	// MaxBatchBytes caps insert/probe request bodies; 0 means
	// DefaultMaxBatchBytes.
	MaxBatchBytes int64
	// MaxFilterBits caps a single filter's size at create/rotate; 0
	// means DefaultMaxFilterBits.
	MaxFilterBits uint64
	// MaxTotalBits caps the summed size of all filters; 0 means
	// DefaultMaxTotalBits.
	MaxTotalBits uint64
	// DataDir, when non-empty, enables persistence: snapshots are written
	// to <DataDir>/<name>.pf and restored by LoadAll. The directory is
	// created on first use.
	DataDir string
	// Tw is the default work saved per pruned probe (cycles) for filters
	// created without an explicit tw; 0 means DefaultTw. It parameterizes
	// the advice/migrate/autotune cost comparisons.
	Tw float64
	// Logger receives structured operational events (control-plane
	// lifecycle, autotune decisions, mid-stream probe write failures);
	// nil means slog.Default().
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ on the returned
	// handler (filter-server -pprof). Off by default: the profiling
	// surface should be an explicit operator choice.
	Pprof bool
	// Tracer samples batch-plane requests into the span ring behind
	// GET /v1/debug/traces; nil means obs.DefaultTracer (1% head
	// sampling). Tests pass their own tracer for isolation.
	Tracer *obs.Tracer
	// TraceAutoSlow makes the history scraper continuously re-derive the
	// tracer's slow-capture threshold as 2x the live probe p99
	// (filter-server -trace-slow-ns=0, the default).
	TraceAutoSlow bool
}

// Server is the filter registry plus its HTTP handlers.
type Server struct {
	mu        sync.RWMutex
	filters   map[string]*entry
	usedBits  uint64 // reserved bits across all filters, guarded by mu
	maxBytes  int64
	maxBits   uint64
	totalBits uint64
	dataDir   string
	tw        float64
	log       *slog.Logger
	pprof     bool
	started   time.Time
	metrics   *serverMetrics
	// tracer samples batch-plane requests; history self-scrapes the
	// metrics registry (tracing.go).
	tracer        *obs.Tracer
	history       *obs.History
	traceAutoSlow bool
	// ready flips true once the DataDir restore (LoadAll) finishes —
	// immediately at construction when there is nothing to restore.
	// migrating counts in-flight migrations. Both feed GET /readyz.
	ready     atomic.Bool
	migrating atomic.Int32
	// bufs pools the binary data plane's per-request buffers (raw body,
	// decoded keys, selection vector) so the probe hot path does not
	// allocate per request.
	bufs sync.Pool
	// fileMu serializes snapshot-file publication and removal, so a
	// snapshot racing a DELETE (or a delete-recreate-snapshot sequence)
	// can neither resurrect a deleted filter nor clobber a successor's
	// freshly written snapshot.
	fileMu sync.Mutex
}

// entry is one registered filter. A nil f marks an in-flight create's
// placeholder: the name and bits are reserved, the filter not yet built.
// bits and rotating are guarded by the server mutex; the entry pointer
// itself is the reservation's identity — handlers re-check that the map
// still holds *their* entry before touching the accounting, so a
// delete/recreate race can neither resurrect a filter nor leak budget.
// The filter's configuration lives in f (migrations change it), not here.
type entry struct {
	f        *perfilter.Adaptive
	bits     uint64
	rotating bool
	created  time.Time
	// m holds the filter's pre-resolved per-name metric series, written
	// once before the entry is published so the data-plane hot path reads
	// it without a lock or a registry lookup.
	m *filterMetrics
}

// New returns an empty server.
func New(opts Options) *Server {
	maxBytes := opts.MaxBatchBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBatchBytes
	}
	maxBits := opts.MaxFilterBits
	if maxBits == 0 {
		maxBits = DefaultMaxFilterBits
	}
	totalBits := opts.MaxTotalBits
	if totalBits == 0 {
		totalBits = DefaultMaxTotalBits
	}
	tw := opts.Tw
	if tw == 0 {
		tw = DefaultTw
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	tracer := opts.Tracer
	if tracer == nil {
		tracer = obs.DefaultTracer
	}
	s := &Server{
		filters:  make(map[string]*entry),
		maxBytes: maxBytes, maxBits: maxBits, totalBits: totalBits,
		dataDir: opts.DataDir, tw: tw,
		log: logger, pprof: opts.Pprof, started: time.Now(),
		metrics:       newServerMetrics(obs.Default),
		tracer:        tracer,
		history:       obs.NewHistory(obs.Default, 0),
		traceAutoSlow: opts.TraceAutoSlow,
	}
	// With no data dir there is nothing to restore: ready from birth.
	// Otherwise LoadAll flips the switch when the restore finishes.
	s.ready.Store(opts.DataDir == "")
	s.metrics.registerRegistryGauges(s)
	return s
}

// adaptiveOptions builds the per-filter adaptive wrapper options: the
// server owns pacing (autotune) and budget accounting, so the ErrFull
// auto-grow stays off — saturation surfaces as 507 and every size change
// goes through the accounted migrate path.
func (s *Server) adaptiveOptions(tw, sigma, budget float64) perfilter.AdaptiveOptions {
	if tw == 0 {
		tw = s.tw
	}
	return perfilter.AdaptiveOptions{
		Workload: perfilter.Workload{Tw: tw, Sigma: sigma, BitsPerKeyBudget: budget},
		// Shards is set per filter at construction.
		DisableAutoGrow: true,
	}
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", obs.Default.Handler())
	mux.Handle("GET /metrics/history", s.history.Handler())
	mux.Handle("GET /v1/debug/traces", s.tracer.Handler())
	// Control-plane handlers go through cp (tracing.go): every request
	// gets an X-Trace-Id and a debug access line with its request_id.
	mux.HandleFunc("POST /v1/filters", s.cp(s.handleCreate))
	mux.HandleFunc("GET /v1/filters", s.cp(s.handleList))
	mux.HandleFunc("GET /v1/filters/{name}", s.cp(s.handleStats))
	mux.HandleFunc("DELETE /v1/filters/{name}", s.cp(s.handleDelete))
	mux.HandleFunc("POST /v1/filters/{name}/rotate", s.cp(s.handleRotate))
	mux.HandleFunc("GET /v1/filters/{name}/advice", s.cp(s.handleAdvice))
	mux.HandleFunc("GET /v1/filters/{name}/trace", s.cp(s.handleTrace))
	mux.HandleFunc("POST /v1/filters/{name}/migrate", s.cp(s.handleMigrate))
	mux.HandleFunc("POST /v1/filters/{name}/snapshot", s.cp(s.handleSnapshot))
	// The batch plane manages its own identity (beginBatch/finish): its
	// zero-allocation budget rules out the unconditional wrapper.
	mux.HandleFunc("POST /v1/filters/{name}/insert", s.handleInsert)
	mux.HandleFunc("POST /v1/filters/{name}/probe", s.handleProbe)
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleHealthz answers the liveness probe with enough identity to tell
// *which* build has been up for how long: uptime, toolchain version, and
// the VCS revision stamped into the binary (empty for un-stamped builds,
// e.g. go test binaries).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
		"go_version":     runtime.Version(),
		"vcs_revision":   buildRevision(),
	})
}

// buildRevision returns the VCS revision recorded by the toolchain at
// build time ("" when the binary was built outside a checkout).
func buildRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			return kv.Value
		}
	}
	return ""
}

// CreateRequest is the control-plane filter specification. Either give an
// explicit Kind (+ geometry; zero fields get the kind's headline defaults)
// and MBits, or an Advise workload and let the cost model choose both.
type CreateRequest struct {
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // bloom | classic | cuckoo | exact | xor
	MBits  uint64 `json:"mbits,omitempty"`
	Shards int    `json:"shards,omitempty"` // 0 = advisor's host default

	// Bloom geometry (kind "bloom"/"classic"); zero = headline defaults
	// (cache-sectorized k=8 z=2 for bloom, k=7 for classic).
	K          uint32 `json:"k,omitempty"`
	BlockBits  uint32 `json:"block_bits,omitempty"`
	SectorBits uint32 `json:"sector_bits,omitempty"`
	Groups     uint32 `json:"groups,omitempty"`

	// Cuckoo geometry (kind "cuckoo"); zero = the paper's s=16, b=2.
	TagBits    uint32 `json:"tag_bits,omitempty"`
	BucketSize uint32 `json:"bucket_size,omitempty"`

	// Xor geometry (kind "xor"); zero fingerprint width = 8. The family
	// is immutable: it goes live on the first migration/rotation, which
	// seals the replayed key log into solved tables, and buffers any
	// writes until the next one.
	FingerprintBits uint32 `json:"fingerprint_bits,omitempty"`
	Fuse            bool   `json:"fuse,omitempty"`

	// Tw seeds the filter's tracked workload: the work saved per pruned
	// probe, in cycles, which advice/migrate/autotune compare overheads
	// against. Zero uses Advise.Tw when advising, else the server default.
	Tw float64 `json:"tw,omitempty"`

	// Advise, when non-nil, overrides Kind/MBits with the cost model's
	// performance-optimal pick for the workload.
	Advise *AdviseRequest `json:"advise,omitempty"`
}

// AdviseRequest mirrors perfilter.Workload for the control plane.
type AdviseRequest struct {
	N          uint64  `json:"n"`
	Tw         float64 `json:"tw"`
	Sigma      float64 `json:"sigma,omitempty"`
	BitsPerKey float64 `json:"bits_per_key,omitempty"`
	AllowExact bool    `json:"allow_exact,omitempty"`
	// ReadMostly makes the immutable xor/fuse family eligible (see
	// perfilter.Workload.ReadMostly).
	ReadMostly bool `json:"read_mostly,omitempty"`
}

// FilterInfo is the control-plane view of one filter.
type FilterInfo struct {
	Name       string    `json:"name"`
	Config     string    `json:"config"`
	Kind       string    `json:"kind"`
	SizeBits   uint64    `json:"size_bits"`
	Shards     int       `json:"shards"`
	Count      uint64    `json:"count"`
	Generation uint64    `json:"generation"`
	FPR        float64   `json:"fpr_at_count"`
	Created    time.Time `json:"created"`
}

func (e *entry) info(name string) FilterInfo {
	return e.infoFrom(name, e.f.Stats())
}

// infoFrom renders a FilterInfo from an already-taken snapshot, so
// handlers returning both forms report one consistent view. Kind and
// Config come from the live filter: migrations change them.
func (e *entry) infoFrom(name string, st perfilter.ShardStats) FilterInfo {
	return FilterInfo{
		Name:       name,
		Config:     e.f.String(),
		Kind:       e.f.Config().Kind.String(),
		SizeBits:   st.SizeBits,
		Shards:     st.Shards,
		Count:      st.Count,
		Generation: st.Generation,
		FPR:        e.f.FPR(st.Count),
		Created:    e.created,
	}
}

// buildConfig resolves a CreateRequest into a validated configuration,
// size and shard count.
func buildConfig(req *CreateRequest) (perfilter.Config, uint64, int, error) {
	if req.Advise != nil {
		a := req.Advise
		advice, err := perfilter.Advise(perfilter.Workload{
			N: a.N, Tw: a.Tw, Sigma: a.Sigma,
			BitsPerKeyBudget: a.BitsPerKey, AllowExact: a.AllowExact,
			ReadMostly: a.ReadMostly,
		})
		if err != nil {
			return perfilter.Config{}, 0, 0, err
		}
		shards := req.Shards
		if shards == 0 {
			shards = advice.Shards
		}
		return advice.Config, advice.MBits, shards, nil
	}
	if req.MBits == 0 {
		return perfilter.Config{}, 0, 0, errors.New("mbits required (or give \"advise\")")
	}
	// The kind vocabulary is perfilter.KindByName: any family name (or
	// "", which selects the blocked-Bloom default) resolves; anything else
	// is rejected naming the valid kinds. The resolved family's headline
	// defaults seed the configuration, and the request's geometry fields
	// override them (fields foreign to the kind are ignored by validation,
	// as before).
	kind, ok := perfilter.KindByName(req.Kind)
	if !ok {
		return perfilter.Config{}, 0, 0, fmt.Errorf("unknown kind %q (valid kinds: %s)",
			req.Kind, strings.Join(perfilter.KindNames(), ", "))
	}
	cfg := perfilter.DefaultConfig(kind)
	if req.BlockBits != 0 {
		cfg.BlockBits = req.BlockBits
	}
	if req.SectorBits != 0 {
		cfg.SectorBits = req.SectorBits
	}
	if req.Groups != 0 {
		cfg.Groups = req.Groups
	}
	if req.K != 0 {
		cfg.K = req.K
	}
	if req.TagBits != 0 {
		cfg.TagBits = req.TagBits
	}
	if req.BucketSize != 0 {
		cfg.BucketSize = req.BucketSize
	}
	if req.FingerprintBits != 0 {
		cfg.FingerprintBits = req.FingerprintBits
	}
	if req.Fuse {
		cfg.Fuse = true
	}
	if err := cfg.Validate(); err != nil {
		return perfilter.Config{}, 0, 0, err
	}
	return cfg, req.MBits, req.Shards, nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if !nameRE.MatchString(req.Name) {
		writeErr(w, http.StatusBadRequest, errors.New("name must match [A-Za-z0-9_.-]{1,64}"))
		return
	}
	cfg, mBits, shards, err := buildConfig(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if mBits > s.maxBits {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("mbits %d exceeds the server cap of %d", mBits, s.maxBits))
		return
	}
	// Reserve the name and the memory before building: construction
	// allocates the full filter, and neither a duplicate request nor a
	// flood of creates may pay (or race) that.
	s.mu.Lock()
	if _, dup := s.filters[req.Name]; dup {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, fmt.Errorf("filter %q already exists", req.Name))
		return
	}
	if s.usedBits+mBits > s.totalBits {
		avail := remaining(s.totalBits, s.usedBits)
		s.mu.Unlock()
		writeErr(w, http.StatusInsufficientStorage,
			fmt.Errorf("mbits %d exceeds the server's remaining budget of %d bits (delete or shrink filters first)", mBits, avail))
		return
	}
	ph := &entry{bits: mBits} // placeholder (f == nil)
	s.usedBits += mBits
	s.filters[req.Name] = ph
	s.mu.Unlock()
	release := func() {
		// Only our own placeholder: if a concurrent DELETE removed it,
		// that already returned the reservation.
		s.mu.Lock()
		if s.filters[req.Name] == ph {
			delete(s.filters, req.Name)
			s.usedBits -= mBits
		}
		s.mu.Unlock()
	}
	tw, sigma, budget := req.Tw, 0.0, 0.0
	if req.Advise != nil {
		if tw == 0 {
			tw = req.Advise.Tw
		}
		sigma, budget = req.Advise.Sigma, req.Advise.BitsPerKey
	}
	aOpts := s.adaptiveOptions(tw, sigma, budget)
	aOpts.Shards = shards
	f, err := perfilter.NewAdaptive(cfg, mBits, aOpts)
	if err != nil {
		release()
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Account the built size, not the request: constructors round up to
	// addressing granularity (the exact kind by up to ~2x), and the
	// budget should reflect memory actually held.
	bits := mBits
	if actual := f.SizeBits(); actual > bits {
		bits = actual
	}
	e := &entry{f: f, bits: bits, created: time.Now().UTC()}
	s.mu.Lock()
	if s.filters[req.Name] != ph {
		// Deleted (and possibly re-created by someone else) while we
		// were building; our reservation went with the placeholder.
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, fmt.Errorf("filter %q was deleted during creation", req.Name))
		return
	}
	// Resolve the per-filter series under the registry lock, before the
	// entry is published: the data-plane hot path reads e.m without
	// synchronization, and a losing create must never replace a live
	// filter's series (notably the skew gauge's callback). The obs
	// registry never holds its lock while evaluating gauge callbacks, so
	// nesting it under s.mu cannot deadlock.
	e.m = s.metrics.registerFilter(req.Name, f)
	s.usedBits += bits - mBits
	s.filters[req.Name] = e
	s.mu.Unlock()
	s.log.Info("filter created",
		"filter", req.Name, "kind", cfg.Kind.String(), "config", f.String(),
		"bits", bits, "generation", f.Generation())
	writeJSON(w, http.StatusCreated, e.info(req.Name))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]FilterInfo, 0, len(s.filters))
	for name, e := range s.filters {
		if e.f == nil { // placeholder for an in-flight create
			continue
		}
		infos = append(infos, e.info(name))
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"filters": infos})
}

// lookup resolves {name} or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (string, *entry, bool) {
	name := r.PathValue("name")
	s.mu.RLock()
	e := s.filters[name]
	s.mu.RUnlock()
	if e == nil || e.f == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no filter %q", name))
		return name, nil, false
	}
	return name, e, true
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	st := e.f.Stats()
	window, readMostly := e.f.WorkloadWindow()
	body := map[string]any{
		"filter": e.infoFrom(name, st), "per_shard_counts": st.PerShard,
		"tracked": e.f.Counters(), "key_log_bits": e.f.LogBits(),
		// The since-last-migration window the control loop evaluates,
		// and the read-mostly verdict gating the immutable xor family.
		"window": window, "window_insert_fraction": window.InsertFraction(),
		"read_mostly":    readMostly,
		"uptime_seconds": time.Since(s.started).Seconds(),
		// Server-wide batch-plane latency quantiles (the histograms are
		// global, not per filter), estimated log-linearly within the
		// power-of-two buckets — see obs.Histogram.Quantile.
		"latency_ns": map[string]any{
			"probe":  histQuantiles(s.metrics.probeDur),
			"insert": histQuantiles(s.metrics.insertDur),
		},
	}
	if d, ok := e.f.LastMigration(); ok {
		body["last_migration"] = map[string]any{
			"at": d.At, "from": d.Current, "to": d.Best, "reason": d.Reason,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	e, ok := s.filters[name]
	if ok {
		delete(s.filters, name)
		s.usedBits -= e.bits
		// Drop the per-filter series while s.mu is still held: a
		// concurrent create re-registering the same name does so under
		// s.mu too, so a delayed unregister can never tear down the
		// recreated filter's live series.
		s.metrics.unregisterFilter(name)
	}
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no filter %q", name))
		return
	}
	// Drop the snapshot too: a restart must not resurrect a deleted
	// filter. Best-effort; a missing file is the common case. fileMu
	// orders this against an in-flight snapshot's publish-or-abort.
	if s.dataDir != "" {
		s.fileMu.Lock()
		os.Remove(s.snapshotPath(name))
		s.fileMu.Unlock()
	}
	kind := ""
	if e.f != nil {
		kind = e.f.Config().Kind.String()
		// Release the persistent batch-gather workers eagerly rather
		// than waiting for the finalizer. Safe against handlers still
		// holding e.f: a closed pool just makes their remaining batches
		// run on the handler goroutine.
		e.f.Close()
	}
	s.log.Info("filter deleted", "filter", name, "kind", kind)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) handleRotate(w http.ResponseWriter, r *http.Request) {
	name, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req struct {
		MBits uint64 `json:"mbits,omitempty"` // 0 keeps the current size
	}
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
	}
	status, err := s.resize(name, e, req.MBits, "growing", func() error {
		// Rotations are rare and operator-initiated: always trace them.
		// The span gains "sharded.rotate" children (dual-write window
		// width, seal) from the layers below.
		ctx, sp := s.tracer.StartRootForced(r.Context(), "server.rotate")
		sp.SetAttr("filter", name)
		sp.SetAttr("mbits", req.MBits)
		err := e.f.Rotate(ctx, req.MBits)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		return err
	})
	if err != nil {
		writeErr(w, status, err)
		return
	}
	s.log.Info("filter rotated",
		"filter", name, "kind", e.f.Config().Kind.String(),
		"bits", e.f.SizeBits(), "generation", e.f.Generation())
	writeJSON(w, http.StatusOK, e.info(name))
}

// AdviceSide is the JSON view of one modeled configuration in an advice
// response.
type AdviceSide struct {
	Config       string  `json:"config"`
	Kind         string  `json:"kind"`
	MBits        uint64  `json:"mbits"`
	FPR          float64 `json:"fpr"`
	LookupCycles float64 `json:"lookup_cycles"`
	Overhead     float64 `json:"overhead"` // ρ = tl + f·tw
}

func adviceSide(a perfilter.Advice) AdviceSide {
	return AdviceSide{
		Config: a.Config.String(), Kind: a.Config.Kind.String(),
		MBits: a.MBits, FPR: a.FPR, LookupCycles: a.LookupCycles,
		Overhead: a.Overhead,
	}
}

// AdviceResponse is the advice endpoint's answer: the tracked workload,
// the deployed configuration's modeled overhead, the re-advised optimum,
// and the hysteresis verdict, plus the filter's recent re-optimization
// decisions.
type AdviceResponse struct {
	Name         string              `json:"name"`
	Tracked      adaptive.Counters   `json:"tracked"`
	N            uint64              `json:"n"`
	Tw           float64             `json:"tw"`
	Sigma        float64             `json:"sigma"`
	Current      AdviceSide          `json:"current"`
	Best         AdviceSide          `json:"best"`
	KindChange   bool                `json:"kind_change"`
	WouldMigrate bool                `json:"would_migrate"`
	Reason       string              `json:"reason"`
	Decisions    []adaptive.Decision `json:"decisions,omitempty"`
}

func (s *Server) handleAdvice(w http.ResponseWriter, r *http.Request) {
	name, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	tw := 0.0 // 0 keeps the filter's configured tw
	if q := r.URL.Query().Get("tw"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad tw %q", q))
			return
		}
		tw = v
	}
	adv, err := e.f.AdviceTw(tw)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	decisions, _ := e.f.DecisionTrace()
	writeJSON(w, http.StatusOK, AdviceResponse{
		Name:    name,
		Tracked: adv.Counters,
		N:       adv.Workload.N, Tw: adv.Workload.Tw, Sigma: adv.Workload.Sigma,
		Current: adviceSide(adv.Current), Best: adviceSide(adv.Best),
		KindChange: adv.KindChange, WouldMigrate: adv.WouldMigrate,
		Reason: adv.Reason, Decisions: decisions,
	})
}

// TraceResponse is the trace endpoint's answer: the control loop's
// recent decisions, oldest first. Total counts every decision ever
// recorded, read together with the decisions, so a reader can tell how
// much history the fixed-size ring has already dropped
// (total - len(decisions)).
type TraceResponse struct {
	Name      string              `json:"name"`
	Total     uint64              `json:"total"`
	Decisions []adaptive.Decision `json:"decisions"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	name, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	decisions, total := e.f.DecisionTrace()
	writeJSON(w, http.StatusOK, TraceResponse{Name: name, Total: total, Decisions: decisions})
}

// MigrateRequest selects the migration target. An empty body applies the
// advisor's recommendation for the tracked workload when the hysteresis
// margin clears; Force applies it regardless. Naming a kind (or just
// mbits) migrates to that explicit target instead — geometry fields work
// as in CreateRequest, zero mbits keeps the current size.
type MigrateRequest struct {
	Force bool `json:"force,omitempty"`

	Kind       string `json:"kind,omitempty"`
	MBits      uint64 `json:"mbits,omitempty"`
	K          uint32 `json:"k,omitempty"`
	BlockBits  uint32 `json:"block_bits,omitempty"`
	SectorBits uint32 `json:"sector_bits,omitempty"`
	Groups     uint32 `json:"groups,omitempty"`
	TagBits    uint32 `json:"tag_bits,omitempty"`
	BucketSize uint32 `json:"bucket_size,omitempty"`

	// Xor geometry (kind "xor"), as in CreateRequest.
	FingerprintBits uint32 `json:"fingerprint_bits,omitempty"`
	Fuse            bool   `json:"fuse,omitempty"`
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	name, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req MigrateRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
	}
	// Always traced; the layers below nest their spans under this one.
	ctx, sp := s.tracer.StartRootForced(r.Context(), "server.migrate")
	sp.SetAttr("filter", name)
	defer sp.End()
	if req.Kind == "" && req.MBits == 0 {
		// Recommendation mode: one control-loop pass, forced on request.
		d, adv, status, err := s.reoptimize(ctx, name, e, req.Force)
		switch {
		case err != nil:
			writeErr(w, status, err)
		case !d.Migrated:
			writeJSON(w, http.StatusOK, map[string]any{
				"migrated": false, "reason": d.Reason,
				"current": adviceSide(adv.Current), "best": adviceSide(adv.Best),
			})
		default:
			writeJSON(w, http.StatusOK, migratedBody(name, e, d.Best, d.BestMBits))
		}
		return
	}
	// Explicit mode: a create-style target; empty kind keeps the current
	// family (with the kind's headline geometry defaults), zero mbits
	// keeps the current size.
	cr := CreateRequest{
		Kind: req.Kind, MBits: req.MBits, K: req.K,
		BlockBits: req.BlockBits, SectorBits: req.SectorBits,
		Groups: req.Groups, TagBits: req.TagBits, BucketSize: req.BucketSize,
		FingerprintBits: req.FingerprintBits, Fuse: req.Fuse,
	}
	if cr.Kind == "" {
		cr.Kind = e.f.Config().Kind.String()
	}
	if cr.MBits == 0 {
		cr.MBits = e.f.SizeBits()
	}
	cfg, mBits, _, err := buildConfig(&cr)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sp.SetAttr("from", e.f.Config().Kind.String())
	sp.SetAttr("to", cfg.Kind.String())
	sp.SetAttr("mbits", mBits)
	status, err := s.migrate(name, e, mBits, func() error { return e.f.Migrate(ctx, cfg, mBits) })
	if err != nil {
		sp.SetAttr("error", err.Error())
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, migratedBody(name, e, cfg.String(), mBits))
}

// resize runs op, a rotation or migration of e to mBits total bits (0
// keeps the current size), single-flighted per filter: the size delta is
// reserved against the memory budget up front, under the registry lock,
// and afterwards re-accounted to the built size or rolled back on error.
// Both run only while e is still the registered entry — a concurrent
// DELETE releases e.bits, so accounting for an unregistered entry would
// leak budget. verb words the budget error ("growing to …"). It returns
// the HTTP status for op's outcome and any error.
func (s *Server) resize(name string, e *entry, mBits uint64, verb string, op func() error) (int, error) {
	if mBits > s.maxBits {
		return http.StatusBadRequest, fmt.Errorf("mbits %d exceeds the server cap of %d", mBits, s.maxBits)
	}
	s.mu.Lock()
	if s.filters[name] != e {
		s.mu.Unlock()
		return http.StatusNotFound, fmt.Errorf("no filter %q", name)
	}
	if e.rotating {
		s.mu.Unlock()
		return http.StatusConflict, fmt.Errorf("filter %q is already rotating", name)
	}
	prev := e.bits
	if mBits != 0 {
		if mBits > prev && s.usedBits+(mBits-prev) > s.totalBits {
			avail := remaining(s.totalBits, s.usedBits)
			s.mu.Unlock()
			return http.StatusInsufficientStorage,
				fmt.Errorf("%s to %d bits exceeds the server's remaining budget of %d bits", verb, mBits, avail)
		}
		s.usedBits += mBits - prev
		e.bits = mBits
	}
	e.rotating = true
	s.mu.Unlock()

	err := op()

	s.mu.Lock()
	if mBits != 0 && s.filters[name] == e {
		if err != nil {
			s.usedBits += prev - mBits
			e.bits = prev
		} else if actual := e.f.SizeBits(); actual > e.bits {
			// Re-account to the built size (constructors round up).
			s.usedBits += actual - e.bits
			e.bits = actual
		}
	}
	e.rotating = false
	s.mu.Unlock()
	if err != nil {
		return http.StatusBadRequest, err
	}
	return http.StatusOK, nil
}

// migrate runs build, one live migration of e to mBits total bits, as an
// accounted resize counted in s.migrating, which flips /readyz to 503
// while the rebuild runs.
func (s *Server) migrate(name string, e *entry, mBits uint64, build func() error) (int, error) {
	return s.resize(name, e, mBits, "migrating", func() error {
		from := e.f.Config().Kind.String()
		s.migrating.Add(1)
		err := build()
		s.migrating.Add(-1)
		if err != nil {
			s.log.Warn("filter migration failed", "filter", name, "kind", from, "err", err)
			return err
		}
		s.log.Info("filter migrated",
			"filter", name, "from", from, "to", e.f.Config().Kind.String(), "config", e.f.Config().String(),
			"bits", e.f.SizeBits(), "generation", e.f.Generation())
		return nil
	})
}

// reoptimize runs one Adaptive.Reoptimize pass over e with migrate as its
// admit hook, so the rebuild first reserves its size against the budget.
// It also returns the HTTP status of the pass's error.
func (s *Server) reoptimize(ctx context.Context, name string, e *entry, force bool) (adaptive.Decision, perfilter.AdaptiveAdvice, int, error) {
	status := http.StatusInternalServerError // an advice failure: no rebuild was tried
	// Lock order a.mu → s.mu: Reoptimize runs the hook under the filter's
	// lock, and resize takes s.mu. Never the reverse: under s.mu the server
	// calls only e.f methods that take no adaptive lock (SizeBits, and
	// handleList's e.info reads).
	d, adv, err := e.f.Reoptimize(ctx, force, func(mBits uint64, build func() error) (err error) {
		status, err = s.migrate(name, e, mBits, build)
		return err
	})
	if err == nil {
		status = http.StatusOK
	}
	return d, adv, status, err
}

// migratedBody is the migrate endpoint's answer for a completed migration.
func migratedBody(name string, e *entry, config string, mBits uint64) map[string]any {
	return map[string]any{
		"migrated": true, "config": config, "mbits": mBits,
		"filter": e.info(name),
	}
}

// AutotuneResult records one autotune pass's verdict for one filter.
type AutotuneResult struct {
	Name     string `json:"name"`
	Migrated bool   `json:"migrated"`
	Config   string `json:"config,omitempty"` // post-migration config
	Reason   string `json:"reason,omitempty"`
	Err      string `json:"error,omitempty"`
}

// registered returns the names and entries of every built filter, skipping
// in-flight creates' placeholders.
func (s *Server) registered() (names []string, entries []*entry) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, e := range s.filters {
		if e.f != nil {
			names = append(names, name)
			entries = append(entries, e)
		}
	}
	return names, entries
}

// AutotuneOnce runs one re-optimization sweep over every registered
// filter: one Adaptive.Reoptimize pass each, migrating the ones whose
// modeled win clears the hysteresis margin, within the memory budget. It
// is the body of the -autotune loop and is exported so operators (and
// tests) can drive a sweep on demand.
func (s *Server) AutotuneOnce() []AutotuneResult {
	names, entries := s.registered()
	// One forced root span per sweep; each filter's pass is an
	// "adaptive.evaluate" child carrying the modeled overheads (rho_cur vs
	// rho_new), so an operator can read *why* the loop did or did not act.
	ctx, sweep := s.tracer.StartRootForced(context.Background(), "server.autotune")
	sweep.SetAttr("filters", len(names))
	defer sweep.End()
	results := make([]AutotuneResult, 0, len(names))
	for i, name := range names {
		d, _, _, err := s.reoptimize(ctx, name, entries[i], false)
		res := AutotuneResult{Name: name, Migrated: d.Migrated, Reason: d.Reason}
		if d.Migrated {
			res.Config = d.Best
		}
		if err != nil {
			res.Err = err.Error()
		}
		results = append(results, res)
	}
	return results
}

// StartAutotune launches the background control loop: AutotuneOnce every
// interval until ctx is cancelled. Migrations and failures are logged;
// quiet sweeps are not.
func (s *Server) StartAutotune(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		return
	}
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				for _, res := range s.AutotuneOnce() {
					switch {
					case res.Err != "":
						s.log.Warn("autotune pass failed", "filter", res.Name, "err", res.Err)
					case res.Migrated:
						s.log.Info("autotune migrated filter",
							"filter", res.Name, "config", res.Config, "reason", res.Reason)
					}
				}
			}
		}
	}()
}

// snapshotSuffix is the on-disk extension for persisted filters.
const snapshotSuffix = ".pf"

func (s *Server) snapshotPath(name string) string {
	return filepath.Join(s.dataDir, name+snapshotSuffix)
}

// errDeletedDuringSnapshot reports that the filter was unregistered
// between the snapshot request and its publication.
var errDeletedDuringSnapshot = errors.New("filter was deleted during snapshot")

// saveSnapshot serializes one filter and writes it atomically and
// durably: temp file, fsync, rename, directory fsync — a crash mid-write
// never leaves a truncated snapshot where the next start would read it.
// Publication happens under fileMu and only while e is still the
// registered entry, so a racing DELETE can neither be resurrected by
// this snapshot nor have a successor's snapshot clobbered by it.
// parent, when non-nil, gains a "snapshot.save" child span.
func (s *Server) saveSnapshot(parent *obs.Span, name string, e *entry) (int, error) {
	sp := parent.StartChild("snapshot.save")
	sp.SetAttr("filter", name)
	n, err := s.saveSnapshotInner(name, e)
	sp.SetAttr("bytes", n)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	if err != nil {
		s.metrics.snapshotErr.Inc()
		s.log.Warn("snapshot save failed", "filter", name, "err", err)
		return n, err
	}
	s.metrics.snapshotOK.Inc()
	s.log.Info("snapshot saved",
		"filter", name, "kind", e.f.Config().Kind.String(),
		"generation", e.f.Generation(), "bytes", n, "path", s.snapshotPath(name))
	return n, nil
}

func (s *Server) saveSnapshotInner(name string, e *entry) (int, error) {
	data, err := perfilter.Marshal(e.f)
	if err != nil {
		return 0, fmt.Errorf("marshal %q: %w", name, err)
	}
	if err := os.MkdirAll(s.dataDir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(s.dataDir, name+".*.tmp")
	if err != nil {
		return 0, err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	s.mu.RLock()
	registered := s.filters[name] == e
	s.mu.RUnlock()
	if !registered {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("%q: %w", name, errDeletedDuringSnapshot)
	}
	if err := os.Rename(tmp.Name(), s.snapshotPath(name)); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	// Persist the rename itself (best-effort: not every platform lets a
	// directory be fsynced).
	if d, err := os.Open(s.dataDir); err == nil {
		d.Sync()
		d.Close()
	}
	return len(data), nil
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	name, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if s.dataDir == "" {
		writeErr(w, http.StatusBadRequest,
			errors.New("server has no data dir (start filter-server with -data-dir)"))
		return
	}
	_, sp := s.tracer.StartRootForced(r.Context(), "server.snapshot")
	sp.SetAttr("filter", name)
	n, err := s.saveSnapshot(sp, name, e)
	sp.SetAttr("bytes", n)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	if errors.Is(err, errDeletedDuringSnapshot) {
		writeErr(w, http.StatusConflict, err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot": name, "bytes": n, "path": s.snapshotPath(name),
	})
}

// SaveAll snapshots every registered filter to the data dir (the shutdown
// path). Filters that fail to save are reported joined; the rest are
// still written.
func (s *Server) SaveAll() (int, error) {
	if s.dataDir == "" {
		return 0, nil
	}
	names, entries := s.registered()
	_, sp := s.tracer.StartRootForced(context.Background(), "server.saveall")
	sp.SetAttr("filters", len(names))
	defer sp.End()
	var errs []error
	saved := 0
	for i, name := range names {
		if _, err := s.saveSnapshot(sp, name, entries[i]); err != nil {
			errs = append(errs, err)
			continue
		}
		saved++
	}
	return saved, errors.Join(errs...)
}

// LoadAll restores every *.pf snapshot in the data dir into the registry
// (the startup path), counting each against the memory budget and the
// per-filter cap. Snapshots that fail to decode or no longer fit are
// skipped and reported joined; the rest are served. Names already
// registered are skipped (first registration wins).
func (s *Server) LoadAll() (int, error) {
	// Whatever happens below, the restore attempt is over when this
	// returns: flip /readyz to ready even on a failed restore — the
	// server then serves what it has, which beats staying 503 forever.
	defer s.ready.Store(true)
	if s.dataDir == "" {
		return 0, nil
	}
	dirents, err := os.ReadDir(s.dataDir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	_, root := s.tracer.StartRootForced(context.Background(), "server.restore")
	var errs []error
	loaded := 0
	defer func() {
		root.SetAttr("loaded", loaded)
		root.End()
	}()
	for _, de := range dirents {
		if de.IsDir() {
			continue
		}
		// Sweep temp files a crash left between CreateTemp and rename —
		// startup is the one moment no snapshot can be in flight.
		if strings.HasSuffix(de.Name(), ".tmp") {
			os.Remove(filepath.Join(s.dataDir, de.Name()))
			continue
		}
		if !strings.HasSuffix(de.Name(), snapshotSuffix) {
			continue
		}
		name := strings.TrimSuffix(de.Name(), snapshotSuffix)
		if !nameRE.MatchString(name) {
			errs = append(errs, fmt.Errorf("snapshot %q: invalid filter name", de.Name()))
			continue
		}
		sp := root.StartChild("snapshot.load")
		sp.SetAttr("filter", name)
		data, err := os.ReadFile(filepath.Join(s.dataDir, de.Name()))
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			errs = append(errs, err)
			continue
		}
		// Adaptive envelopes restore the tracked workload and the key log
		// (so migration keeps working); plain sharded envelopes from
		// pre-adaptive snapshots are wrapped with an incomplete log —
		// they track and advise, but refuse to migrate until rotated.
		var f *perfilter.Adaptive
		if len(data) >= 4 && binary.LittleEndian.Uint32(data) == perfilter.AdaptiveWireMagic {
			opts := s.adaptiveOptions(0, 0, 0)
			// The snapshot's own workload (per-filter tw) outranks the
			// server default: zero fields defer to the wire values.
			opts.Workload = perfilter.Workload{}
			f, err = perfilter.UnmarshalAdaptive(data, opts)
		} else {
			var sh *perfilter.Sharded
			sh, err = perfilter.UnmarshalSharded(data)
			if err == nil {
				f = perfilter.NewAdaptiveFrom(sh, s.adaptiveOptions(0, 0, 0))
			}
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			s.metrics.restoreErr.Inc()
			s.log.Warn("snapshot restore failed", "snapshot", de.Name(), "err", err)
			errs = append(errs, fmt.Errorf("snapshot %q: %w", de.Name(), err))
			continue
		}
		bits := f.SizeBits()
		info, _ := de.Info()
		created := time.Now().UTC()
		if info != nil {
			created = info.ModTime().UTC()
		}
		e := &entry{f: f, bits: bits, created: created}
		s.mu.Lock()
		var rejected error
		switch {
		case s.filters[name] != nil:
			rejected = fmt.Errorf("snapshot %q: filter already registered", name)
		case bits > s.maxBits:
			rejected = fmt.Errorf("snapshot %q: %d bits exceeds the per-filter cap of %d", name, bits, s.maxBits)
		case s.usedBits+bits > s.totalBits:
			rejected = fmt.Errorf("snapshot %q: %d bits exceeds the remaining budget of %d", name, bits, remaining(s.totalBits, s.usedBits))
		default:
			// Series registration precedes publication (see handleCreate
			// for the ordering rationale).
			e.m = s.metrics.registerFilter(name, f)
			s.usedBits += bits
			s.filters[name] = e
			loaded++
		}
		s.mu.Unlock()
		if rejected != nil {
			sp.SetAttr("error", rejected.Error())
			sp.End()
			s.metrics.restoreErr.Inc()
			s.log.Warn("snapshot restore rejected", "snapshot", de.Name(), "err", rejected)
			errs = append(errs, rejected)
			continue
		}
		sp.SetAttr("bits", bits)
		sp.SetAttr("generation", f.Generation())
		sp.End()
		s.metrics.restoreOK.Inc()
		s.log.Info("snapshot restored",
			"filter", name, "kind", f.Config().Kind.String(),
			"generation", f.Generation(), "bits", bits)
	}
	return loaded, errors.Join(errs...)
}

// probeBuffers is one data-plane request's reusable buffer set: the raw
// body bytes, the decoded key batch, and (for probes) the selection
// vector. Pooled on the server so the binary hot path runs allocation-free
// at steady state.
type probeBuffers struct {
	raw  []byte
	keys []perfilter.Key
	sel  []uint32
}

// maxPooledBufBytes caps what a returned buffer set may retain: one
// maximum-size batch must not pin 16 MiB per pooled object forever.
const maxPooledBufBytes = 4 << 20

func (s *Server) getBuffers() *probeBuffers {
	pb, _ := s.bufs.Get().(*probeBuffers)
	if pb == nil {
		pb = new(probeBuffers)
	}
	return pb
}

func (s *Server) putBuffers(pb *probeBuffers) {
	// All three buffers count against the retention cap: a JSON-path probe
	// never touches raw but can still grow keys/sel to megabytes.
	if cap(pb.raw)+4*cap(pb.keys)+4*cap(pb.sel) > maxPooledBufBytes {
		return // oversized one-offs are dropped, not pooled
	}
	s.bufs.Put(pb)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	name, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	ctx, bt := s.beginBatch(r, "server.insert", "insert", name)
	if bt.id != "" {
		w.Header().Set("X-Trace-Id", bt.id)
	}
	pb := s.getBuffers()
	defer s.putBuffers(pb)
	keys, err := s.readKeys(r, pb)
	if err != nil {
		s.metrics.insertErrs.Inc()
		writeErr(w, http.StatusBadRequest, err)
		bt.finish(s, http.StatusBadRequest, 0, 0)
		return
	}
	start := time.Now()
	inserted, err := e.f.InsertBatchCtx(ctx, keys)
	s.metrics.insertDur.Observe(time.Since(start).Nanoseconds())
	s.metrics.dataIn.Add(uint64(4 * len(keys)))
	// Keys submitted, matching the probe series' semantics; the
	// per-filter series below counts keys actually accepted (the two
	// differ only when a cuckoo shard saturates mid-batch).
	s.metrics.insertKeys.Add(uint64(len(keys)))
	e.m.insertKeys.Add(uint64(inserted))
	if err != nil {
		s.metrics.insertErrs.Inc()
		// Cuckoo saturation. inserted is a count, not an input-order
		// prefix (the batch is applied shard by shard): the caller
		// should rotate to a larger size and replay the whole batch.
		writeJSON(w, http.StatusInsufficientStorage, map[string]any{
			"error": err.Error(), "inserted": inserted, "count": e.f.Count(),
		})
		bt.finish(s, http.StatusInsufficientStorage, len(keys), inserted)
		return
	}
	s.metrics.insertReqs.Inc()
	writeJSON(w, http.StatusOK, map[string]any{
		"inserted": inserted, "count": e.f.Count(),
	})
	bt.finish(s, http.StatusOK, len(keys), inserted)
}

func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	name, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	ctx, bt := s.beginBatch(r, "server.probe", "probe", name)
	if bt.id != "" {
		w.Header().Set("X-Trace-Id", bt.id)
	}
	pb := s.getBuffers()
	defer s.putBuffers(pb)
	keys, err := s.readKeys(r, pb)
	if err != nil {
		s.metrics.probeErrs.Inc()
		writeErr(w, http.StatusBadRequest, err)
		bt.finish(s, http.StatusBadRequest, 0, 0)
		return
	}
	start := time.Now()
	sel := e.f.ContainsBatchCtx(ctx, keys, pb.sel[:0])
	pb.sel = sel
	s.metrics.probeDur.Observe(time.Since(start).Nanoseconds())
	s.metrics.dataIn.Add(uint64(4 * len(keys)))
	s.metrics.dataOut.Add(uint64(4 * len(sel)))
	s.metrics.probeKeys.Add(uint64(len(keys)))
	s.metrics.probeReqs.Inc()
	e.m.probeKeys.Add(uint64(len(keys)))
	e.m.positives.Add(uint64(len(sel)))
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, map[string]any{
			"probed": len(keys), "positions": sel,
		})
		bt.finish(s, http.StatusOK, len(keys), len(sel))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Probed-Keys", fmt.Sprint(len(keys)))
	w.Header().Set("X-Selected", fmt.Sprint(len(sel)))
	w.WriteHeader(http.StatusOK)
	if err := writeU32s(w, sel); err != nil {
		// The status line is gone; aborting leaves the client a short
		// read (Content-Length mismatch / cut connection), but the
		// truncation must at least be visible server-side instead of
		// passing silently for a complete response. The request id makes
		// the aborted request greppable even when it was never sampled.
		s.log.Warn("probe selection stream aborted after write error",
			"filter", name, "err", err, "request_id", bt.requestID(s))
	}
	bt.finish(s, http.StatusOK, len(keys), len(sel))
}

// presizeHintCap bounds how much readKeys preallocates from the declared
// Content-Length alone. A client whose header lies high (say 16 MiB for a
// ten-byte body) gets its capacity hint clamped here; the buffer still
// grows to any true body size up to the batch limit.
const presizeHintCap = 1 << 20

// readKeys decodes the data-plane key batch into pb's pooled buffers: raw
// little-endian uint32s, or {"keys": [...]} when the request is JSON (the
// curl-friendly path, which allocates). The returned slice aliases pb and
// is valid until the buffers are put back.
func (s *Server) readKeys(r *http.Request, pb *probeBuffers) ([]perfilter.Key, error) {
	body := io.LimitReader(r.Body, s.maxBytes+1)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req struct {
			Keys []perfilter.Key `json:"keys"`
		}
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return nil, fmt.Errorf("bad JSON key batch: %w", err)
		}
		return req.Keys, nil
	}
	// Presize from Content-Length so a typical batch is read without
	// doubling copies — but clamp the hint defensively: it is attacker
	// controlled and may bear no relation to the actual body.
	capHint := int64(64 << 10)
	if n := r.ContentLength; n > 0 {
		capHint = n + 1
	}
	if capHint > s.maxBytes+1 {
		capHint = s.maxBytes + 1
	}
	if capHint > presizeHintCap {
		capHint = presizeHintCap
	}
	if int64(cap(pb.raw)) < capHint {
		pb.raw = make([]byte, 0, capHint)
	}
	buf := bytes.NewBuffer(pb.raw[:0])
	if _, err := io.Copy(buf, body); err != nil {
		return nil, err
	}
	raw := buf.Bytes()
	pb.raw = raw[:0] // keep any growth for the next request
	if int64(len(raw)) > s.maxBytes {
		return nil, fmt.Errorf("batch exceeds %d bytes", s.maxBytes)
	}
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("binary batch length %d is not a multiple of 4 (little-endian uint32 keys)", len(raw))
	}
	n := len(raw) / 4
	if cap(pb.keys) < n {
		pb.keys = make([]perfilter.Key, n)
	}
	keys := pb.keys[:n]
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	pb.keys = keys
	return keys, nil
}

// writeU32s streams values as little-endian uint32s. It returns the first
// write error — previously errors were swallowed mid-stream, leaving the
// client a silently truncated selection vector the caller never learned
// about.
func writeU32s(w io.Writer, vals []uint32) error {
	buf := make([]byte, 0, 4096)
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, v)
		if len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// remaining is total-used clamped at zero: rounding-up re-accounting (the
// built size can exceed the reserved request) may push usage slightly
// past the budget, and the error message must not underflow.
func remaining(total, used uint64) uint64 {
	if used >= total {
		return 0
	}
	return total - used
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
