package sharded

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"perfilter/internal/core"
	"perfilter/internal/hashing"
	"perfilter/internal/obs"
)

// Rotation instrumentation, on the process-wide registry: rotations are
// the sharded layer's only slow path, and their durations — especially
// the dual-write window, during which every insert pays double — are
// exactly what an operator needs to see before trusting live migration
// under load. Aggregated across filters; the server adds per-filter
// series where the distinction matters.
var (
	mRotations = obs.Default.Counter("perfilter_sharded_rotations_total",
		"Completed generation rotations (including migrations), by outcome.", "outcome", "ok")
	mRotationAborts = obs.Default.Counter("perfilter_sharded_rotations_total",
		"Completed generation rotations (including migrations), by outcome.", "outcome", "error")
	mRotationDur = obs.Default.Histogram("perfilter_sharded_rotation_duration_ns",
		"Wall time of one generation rotation, construction through swap.")
	mSealDur = obs.Default.Histogram("perfilter_sharded_seal_duration_ns",
		"Wall time sealing build-once (xor/fuse) shards inside a rotation.")
	mDualWriteDur = obs.Default.Histogram("perfilter_sharded_dual_write_window_ns",
		"Length of the dual-write window: staging published until staging cleared.")
)

// Key is the key type shared with the rest of the repository.
type Key = core.Key

// MaxShards bounds the shard count; beyond this, per-shard fixed costs
// (locks, scatter bookkeeping) dominate any contention win.
const MaxShards = 1024

// parallelBatchMin is the batch length below which scatter/gather probes
// the shards sequentially: goroutine handoff costs more than it saves on
// small batches (the vectorized pipelines' default batch is 1024 keys).
const parallelBatchMin = 4 * core.DefaultBatch

// Inner is the per-shard filter contract, the same core.Filter the root
// package exposes as perfilter.Filter.
type Inner = core.Filter

// Factory builds one shard's filter. It is called P times per generation;
// each call must return a fresh, empty filter.
type Factory func() (Inner, error)

// Sealer is implemented by build-once shards (the xor/fuse family): after
// a rotation's fill completes, Rotate calls Seal on every staged shard
// that implements it — under the shard's write lock, before the swap — so
// the new generation goes live with solved tables. Inserts that race the
// seal (the dual-write window stays open until after the swap) land in
// the shard's post-seal overflow path, preserving the no-false-negative
// contract.
type Sealer interface {
	Seal() error
}

// shard pairs one partition's filter with its lock. count is guarded by mu.
type shard struct {
	mu    sync.RWMutex
	f     Inner
	count uint64
}

// generation is one immutable shard array. The slice and the shard
// pointers never change after construction; only the filters behind the
// per-shard locks do. Readers load the current generation once per
// operation and never observe a torn rotation.
type generation struct {
	shards []*shard
	seq    uint64 // public rotation number (Generation); +1 per successful Rotate
	// id orders generations for the dual-write re-check loops. Unlike seq
	// it is consumed even by rotations whose fill errors out, so a
	// staging generation that was discarded can never share an id with a
	// later successful one — the writer loop's "newest generation holding
	// the key" comparison stays sound across aborted rotations.
	id uint64
}

// Filter is a hash-partitioned, concurrency-safe wrapper around P Inner
// filters. All methods are safe for concurrent use.
type Filter struct {
	gen atomic.Pointer[generation]
	// staging is non-nil only inside a Rotate's dual-write window: from
	// the moment the replacement generation exists until just after the
	// swap. Writers that observe it insert into both the retiring and the
	// staging generation, so an insert acknowledged during a rotation is
	// never lost to the swap (see Insert and Rotate).
	staging  atomic.Pointer[generation]
	lg       uint32 // log2(len(shards))
	factory  Factory
	rotateMu sync.Mutex // serializes Rotate, Reset and Snapshot
	lastID   uint64     // last generation id handed out; guarded by rotateMu
	scratch  sync.Pool  // *batchScratch, reused across ContainsBatch calls
	// pl is the persistent gather worker pool (pool.go), created lazily
	// by the first batch large enough to fan out; poolMu serializes its
	// creation and replacement (SetPoolSize, Close).
	pl     atomic.Pointer[pool]
	poolMu sync.Mutex
}

// batchScratch holds one batch call's scatter/gather buffers; it is
// pooled so steady-state batches do not allocate.
type batchScratch struct {
	ids     []uint16   // per-key shard id
	offsets []uint32   // per-shard run boundaries (len P+1)
	cursor  []uint32   // scatter cursors (len P)
	skeys   []Key      // keys grouped by shard
	sidx    []uint32   // original position of each scattered key
	hits    []bool     // per-position match flags
	psel    [][]uint32 // per-shard selection buffers
}

// maxScratchKeys caps the batch size whose buffers are returned to the
// scratch pool: sync.Pool never shrinks its entries, so without the cap
// one giant batch would pin its oversized buffers for the Filter's
// lifetime. Oversized scratch is simply dropped for the GC; the next
// normal batch allocates working-set-sized buffers again. 64Ki keys is
// ~1.2 MiB of scratch — far above the batch plane's sizes, so steady
// traffic never hits the cap.
const maxScratchKeys = 1 << 16

// putScratch returns sc to the pool unless its buffers exceed the
// retention cap (cap(ids) is the high-water batch length all per-key
// buffers were sized by).
func (f *Filter) putScratch(sc *batchScratch) {
	if cap(sc.ids) > maxScratchKeys {
		return
	}
	f.scratch.Put(sc)
}

// resizeScatter prepares the buffers both batch paths share (the
// counting-sort scatter); InsertBatch needs nothing more.
func (sc *batchScratch) resizeScatter(n, p int) {
	if cap(sc.ids) < n {
		sc.ids = make([]uint16, n)
		sc.skeys = make([]Key, n)
	}
	sc.ids = sc.ids[:n]
	sc.skeys = sc.skeys[:n]
	if cap(sc.offsets) < p+1 {
		sc.offsets = make([]uint32, p+1)
		sc.cursor = make([]uint32, p)
	}
	sc.offsets = sc.offsets[:p+1]
	sc.cursor = sc.cursor[:p]
	clear(sc.offsets)
}

// resizeGather additionally prepares the probe-only buffers (position
// mapping, hit flags, per-shard selections).
func (sc *batchScratch) resizeGather(n, p int) {
	sc.resizeScatter(n, p)
	if cap(sc.sidx) < n {
		sc.sidx = make([]uint32, n)
		sc.hits = make([]bool, n)
	}
	sc.sidx = sc.sidx[:n]
	sc.hits = sc.hits[:n]
	clear(sc.hits)
	if cap(sc.psel) < p {
		sc.psel = make([][]uint32, p)
	}
	sc.psel = sc.psel[:p]
}

// New builds a sharded filter with the given shard count (rounded up to a
// power of two, clamped to [1, MaxShards]) by calling factory once per
// shard.
func New(factory Factory, shards int) (*Filter, error) {
	if factory == nil {
		return nil, fmt.Errorf("sharded: nil factory")
	}
	p := ceilPow2(shards)
	f := &Filter{factory: factory, lg: log2(p)}
	g, err := newGeneration(factory, p, 0, 0)
	if err != nil {
		return nil, err
	}
	f.gen.Store(g)
	return f, nil
}

func ceilPow2(n int) int {
	if n < 1 {
		n = 1
	}
	if n > MaxShards {
		n = MaxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// SplitBits resolves a requested (total size, shard count) pair the way
// New will: the count rounded up to a power of two within [1, MaxShards],
// and the total split by ceiling division, so P shards of perShard bits
// always cover at least mBits (per-shard constructors then round up
// further to their own addressing granularity). Callers building
// per-shard factories use it so their arithmetic cannot drift from the
// wrapper's.
func SplitBits(mBits uint64, shards int) (perShard uint64, p int) {
	p = ceilPow2(shards)
	return (mBits + uint64(p) - 1) / uint64(p), p
}

// minKeysPerShard keeps Recommend from splitting below the point where
// per-shard fixed overheads (lock words, scatter bookkeeping, size
// rounding) outweigh contention relief.
const minKeysPerShard = 1 << 12

// Recommend returns a shard count for a filter expected to hold n keys
// with the given number of concurrent writers: the smallest power of two
// giving every writer 4 lock stripes (the standard striped-lock rule of
// thumb), capped so each shard still holds at least minKeysPerShard keys,
// and by MaxShards. A single writer gets 1: there is no contention to
// relieve, and an unsharded filter has strictly cheaper lookups.
func Recommend(n uint64, writers int) int {
	if writers <= 1 {
		return 1
	}
	p := 1
	for p < 4*writers && p < MaxShards {
		p <<= 1
	}
	for p > 1 && n/uint64(p) < minKeysPerShard {
		p >>= 1
	}
	return p
}

func log2(p int) uint32 {
	var lg uint32
	for 1<<lg < p {
		lg++
	}
	return lg
}

func newGeneration(factory Factory, p int, seq, id uint64) (*generation, error) {
	g := &generation{shards: make([]*shard, p), seq: seq, id: id}
	for i := range g.shards {
		inner, err := factory()
		if err != nil {
			return nil, fmt.Errorf("sharded: shard %d: %w", i, err)
		}
		g.shards[i] = &shard{f: inner}
	}
	return g, nil
}

// ShardOf returns the shard index key routes to. The partition hash uses
// the Murmur multiplicative constant — independent of the Golden-ratio
// constants the filter kernels consume — so the keys landing in one shard
// still look uniformly random to that shard's kernel.
func (f *Filter) ShardOf(key Key) int {
	if f.lg == 0 {
		return 0
	}
	return int(hashing.TagHash(key) >> (32 - f.lg))
}

// NumShards returns the shard count.
func (f *Filter) NumShards() int { return 1 << f.lg }

// Generation returns the current generation's sequence number, starting
// at 0 and incremented by each Rotate.
func (f *Filter) Generation() uint64 { return f.gen.Load().seq }

// insertInto adds a key to its shard in generation g under that shard's
// write lock.
func (f *Filter) insertInto(g *generation, key Key) error {
	s := g.shards[f.ShardOf(key)]
	s.mu.Lock()
	err := s.f.Insert(key)
	if err == nil {
		s.count++
	}
	s.mu.Unlock()
	return err
}

// write is the lossless write protocol behind Insert and InsertBatch. put
// inserts the caller's keys into one generation (dual marks a replay into
// a staging or successor generation) and reports how many landed; write
// runs it against the current generation — the primary insert — and then
// against every newer generation a concurrent Rotate staged or swapped in,
// so a write acknowledged while a Rotate is in flight is present after the
// swap. The count returned is the primary insert's. An error from any
// generation is returned before the write is acknowledged (its keys may
// then be present in an older generation — harmless for approximate
// filters, whose contract is one-sided).
func (f *Filter) write(put func(g *generation, dual bool) (int, error)) (int, error) {
	g := f.gen.Load()
	n, err := put(g, false)
	if err != nil {
		return n, err
	}
	// top is the newest generation known to hold the keys. Loop until the
	// current generation is no newer: each pass catches a rotation that
	// staged or swapped a replacement after the previous insert landed.
	// The gen re-check must be the FINAL load before acknowledging — it
	// proves no swap landed since the staging check, so any rotation the
	// staging check missed published only after this write's earlier
	// operations (including a caller's log append), where the fill's
	// source observes them. Returning on a nil staging pointer alone
	// would let a rotation that published, filled, swapped and cleared
	// staging entirely between the two loads discard the keys.
	top := g
	for {
		if st := f.staging.Load(); st != nil && st.id > top.id {
			if _, err := put(st, true); err != nil {
				return n, err
			}
			top = st
		}
		cur := f.gen.Load()
		if cur.id <= top.id {
			return n, nil
		}
		if _, err := put(cur, true); err != nil {
			return n, err
		}
		top = cur
	}
}

// Insert adds a key to its shard under that shard's write lock. Only
// cuckoo shards can fail (ErrFull, when the shard's table is saturated).
// Inserts are lossless across rotations (see write).
func (f *Filter) Insert(key Key) error {
	_, err := f.write(func(g *generation, _ bool) (int, error) {
		return 1, f.insertInto(g, key)
	})
	return err
}

// InsertBatch adds a batch of keys, grouping them by shard so each
// shard's write lock is taken once per batch instead of once per key —
// the write-side counterpart of ContainsBatch's scatter, and the path
// the filter server's binary insert plane uses. It returns the number of
// keys successfully inserted. On error (a cuckoo shard saturating) the
// batch stops immediately; because keys are processed in shard order,
// the inserted keys are NOT an input-order prefix — callers recovering
// from ErrFull should rotate to a larger generation and replay the whole
// batch rather than resume mid-batch. Inserts are lossless across
// rotations (see write).
//
// When ctx carries a sampled span (obs.SpanFromContext non-nil), each
// per-shard run emits a "shard.insert" child span with the shard index,
// generation sequence and key count, and runs replayed into staging or
// successor generations during a rotation's dual-write window are
// flagged dual_write=true. Unsampled contexts pay one pointer lookup and
// nothing else.
func (f *Filter) InsertBatch(ctx context.Context, keys []Key) (int, error) {
	parent := obs.SpanFromContext(ctx)
	if len(keys) == 0 {
		return 0, nil
	}
	p := f.NumShards()
	// A single shard's run is the whole batch, so it skips the scatter.
	// Otherwise the scatter is generation-independent (rotations preserve
	// the shard count): the same grouped runs replay into staging and
	// successor generations.
	var sc *batchScratch
	if p > 1 {
		sc = f.scatter(keys, p, false)
		defer f.putScratch(sc)
	}
	return f.write(func(g *generation, dual bool) (int, error) {
		if sc == nil {
			return insertRun(g, keys, parent, 0, dual)
		}
		return f.gather(g, sc, parent, true, dual)
	})
}

// Contains reports whether key may be in the set (no false negatives for
// keys inserted into the current generation).
func (f *Filter) Contains(key Key) bool {
	g := f.gen.Load()
	s := g.shards[f.ShardOf(key)]
	s.mu.RLock()
	ok := s.f.Contains(key)
	s.mu.RUnlock()
	return ok
}

// ContainsBatch appends to sel the positions i for which keys[i] may be
// contained and returns the extended slice. The batch is partitioned by
// shard with one counting-sort pass, the shards are probed (in parallel
// for batches of at least parallelBatchMin keys), and the per-shard hits
// are merged back in ascending position order — byte-identical to probing
// the shards sequentially and to the scalar Contains path.
//
// When ctx carries a sampled span, each probed shard emits a
// "shard.probe" child span with the shard index, generation sequence,
// key count and hit count — safe under the parallel gather (spans lock
// only themselves). Unsampled contexts pay one pointer lookup and
// nothing else.
func (f *Filter) ContainsBatch(ctx context.Context, keys []Key, sel core.SelVec) core.SelVec {
	parent := obs.SpanFromContext(ctx)
	g := f.gen.Load()
	p := len(g.shards)
	if p == 1 {
		var c *obs.Span
		if parent != nil {
			c = parent.StartChild("shard.probe")
			c.SetAttr("shard", 0)
			c.SetAttr("generation", g.seq)
			c.SetAttr("keys", len(keys))
		}
		s := g.shards[0]
		s.mu.RLock()
		before := len(sel)
		sel = s.f.ContainsBatch(keys, sel)
		s.mu.RUnlock()
		if c != nil {
			c.SetAttr("hits", len(sel)-before)
			c.End()
		}
		return sel
	}
	if len(keys) == 0 {
		return sel
	}
	sc := f.scatter(keys, p, true)
	defer f.putScratch(sc)
	// Gather: probe each shard's run and mark hits at original positions.
	// Distinct shards own distinct positions (and distinct psel slots),
	// so workers never write the same element.
	f.gather(g, sc, parent, false, false)

	// Merge, preserving batch order.
	for i, hit := range sc.hits {
		if hit {
			sel = append(sel, uint32(i))
		}
	}
	return sel
}

// scatter is the counting sort both batch paths share: it takes a pooled
// scratch (return it with putScratch) and groups keys into per-shard
// contiguous runs (run s is sc.run(s)). For a probe it also records each
// scattered key's original batch position and prepares the hit flags and
// per-shard selections.
func (f *Filter) scatter(keys []Key, p int, probe bool) *batchScratch {
	sc, _ := f.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = new(batchScratch)
	}
	n := len(keys)
	if probe {
		sc.resizeGather(n, p)
	} else {
		sc.resizeScatter(n, p)
	}
	ids, offsets := sc.ids, sc.offsets
	for i, k := range keys {
		s := f.ShardOf(k)
		ids[i] = uint16(s)
		offsets[s+1]++
	}
	for s := 0; s < p; s++ {
		offsets[s+1] += offsets[s]
	}
	skeys, sidx, cursor := sc.skeys, sc.sidx, sc.cursor
	copy(cursor, offsets[:p])
	for i, k := range keys {
		s := ids[i]
		at := cursor[s]
		skeys[at] = k
		if probe {
			sidx[at] = uint32(i)
		}
		cursor[s]++
	}
	return sc
}

// gather runs every shard's scattered run in generation g: probes under
// read locks, or inserts (replaying into a staging or successor
// generation when dual) under write locks. Batches of at least
// parallelBatchMin keys recruit the persistent worker pool; the rest run
// the shard loop on this goroutine — no goroutine is ever spawned per
// batch. Inserts report the keys inserted and stop at the first error.
func (f *Filter) gather(g *generation, sc *batchScratch, parent *obs.Span, insert, dual bool) (int, error) {
	p := len(sc.cursor) // scatter sizes one cursor per shard
	if len(sc.skeys) >= parallelBatchMin {
		if pl := f.pool(); pl.running() {
			mPoolBatchesParallel.Inc()
			return f.parallelGather(pl, g, sc, parent, p, insert, dual)
		}
	}
	mPoolBatchesSeq.Inc()
	inserted := 0
	for s := 0; s < p; s++ {
		if !insert {
			probeRun(g, sc, parent, s)
			continue
		}
		count, err := insertRun(g, sc.run(s), parent, s, dual)
		inserted += count
		if err != nil {
			return inserted, err
		}
	}
	return inserted, nil
}

// run returns shard s's scattered keys.
func (sc *batchScratch) run(s int) []Key {
	return sc.skeys[sc.offsets[s]:sc.offsets[s+1]]
}

// probeRun probes shard s's scattered run under its read lock and marks
// hits at their original batch positions — the per-shard unit both the
// sequential gather loop and the pool workers execute.
func probeRun(g *generation, sc *batchScratch, parent *obs.Span, s int) {
	lo, hi := sc.offsets[s], sc.offsets[s+1]
	if lo == hi {
		return
	}
	var c *obs.Span
	if parent != nil {
		c = parent.StartChild("shard.probe")
		c.SetAttr("shard", s)
		c.SetAttr("generation", g.seq)
		c.SetAttr("keys", int(hi-lo))
	}
	sub := sc.skeys[lo:hi]
	sh := g.shards[s]
	sh.mu.RLock()
	psel := sh.f.ContainsBatch(sub, sc.psel[s][:0])
	sh.mu.RUnlock()
	sc.psel[s] = psel
	for _, pos := range psel {
		sc.hits[sc.sidx[lo+uint32(pos)]] = true
	}
	if c != nil {
		c.SetAttr("hits", len(psel))
		c.End()
	}
}

// insertRun inserts run, shard s's keys, under that shard's write lock
// with one call to the shard's InsertBatch — the per-shard unit the
// single-shard path, the sequential insert loop and the pool workers all
// execute. It returns how many keys landed before any error; on error the
// run stops at the failing key.
func insertRun(g *generation, run []Key, parent *obs.Span, s int, dual bool) (int, error) {
	if len(run) == 0 {
		return 0, nil
	}
	var c *obs.Span
	if parent != nil {
		c = parent.StartChild("shard.insert")
		c.SetAttr("shard", s)
		c.SetAttr("generation", g.seq)
		c.SetAttr("keys", len(run))
		if dual {
			c.SetAttr("dual_write", true)
		}
	}
	sh := g.shards[s]
	sh.mu.Lock()
	n, err := sh.f.InsertBatch(run)
	sh.count += uint64(n)
	sh.mu.Unlock()
	if c != nil {
		if err != nil {
			c.SetAttr("error", err.Error())
		}
		c.End()
	}
	return n, err
}

// Rotate builds a complete replacement generation off to the side and
// swaps it in with one atomic store. factory supplies the new shards (nil
// reuses the previous factory — e.g. to clear without resizing). fill, if
// non-nil, runs before the swap with a concurrency-safe insert into the
// staging generation, so the replacement can be populated — from a key
// log, an iterator, or parallel loaders — while readers and writers keep
// hitting the old generation.
//
// Rotations are serialized. The staging generation is published (as a
// dual-write target) before fill runs, and writers re-check it — and
// then the current generation — after every insert, so a write whose
// re-checks observe the rotation lands in the replacement generation and
// survives the swap. A write whose checks all precede the publication —
// including one racing the replacement generation's construction — is
// dropped with the retiring generation unless fill's source observes it:
// rotation replaces the filter's contents. Combine a key log that
// writers append to before inserting with a fill that replays it, and
// the two windows overlap — no acknowledged write is ever lost.
//
// When ctx carries a sampled span, the rotation emits a "sharded.rotate"
// child covering construction through swap — annotated with the shard
// count, target generation sequence, dual-write window length and, for
// build-once kinds, a nested "sharded.seal" span over the solve loop.
func (f *Filter) Rotate(ctx context.Context, factory Factory, fill func(insert func(Key) error) error) (err error) {
	_, sp := obs.StartSpan(ctx, "sharded.rotate")
	start := time.Now()
	defer func() {
		mRotationDur.Observe(time.Since(start).Nanoseconds())
		if err != nil {
			mRotationAborts.Inc()
			sp.SetAttr("error", err.Error())
		} else {
			mRotations.Inc()
		}
		sp.End()
	}()
	f.rotateMu.Lock()
	defer f.rotateMu.Unlock()
	if factory == nil {
		factory = f.factory
	}
	old := f.gen.Load()
	// Consume a fresh id even if this rotation later aborts: a discarded
	// staging generation must never share an id with a successor, or a
	// stalled writer could mistake the successor for already-covered.
	f.lastID++
	ng, err := newGeneration(factory, len(old.shards), old.seq+1, f.lastID)
	if err != nil {
		return err
	}
	sp.SetAttr("shards", len(old.shards))
	sp.SetAttr("generation", ng.seq)
	// Open the dual-write window before fill starts: from here until just
	// after the swap, concurrent writers also insert into ng, covering
	// every key a fill-side snapshot (e.g. a log read) can miss. The
	// window length is observed on every exit path — it is the interval
	// during which writers pay for two inserts per key.
	windowStart := time.Now()
	closeWindow := func() {
		f.staging.Store(nil)
		windowNs := time.Since(windowStart).Nanoseconds()
		mDualWriteDur.Observe(windowNs)
		sp.SetAttr("dual_write_window_ns", windowNs)
	}
	f.staging.Store(ng)
	if fill != nil {
		insert := func(key Key) error { return f.insertInto(ng, key) }
		if err := fill(insert); err != nil {
			closeWindow()
			return fmt.Errorf("sharded: rotation fill: %w", err)
		}
	}
	// Seal build-once shards before the swap: their buffered fill keys
	// are solved into probe tables now, while readers still see the old
	// generation. Dual-writers may keep inserting into ng concurrently —
	// the shard lock serializes them against the seal, and keys arriving
	// after it take the shard's overflow path.
	if _, seals := ng.shards[0].f.(Sealer); seals {
		sealSp := sp.StartChild("sharded.seal")
		sealSp.SetAttr("shards", len(ng.shards))
		sealStart := time.Now()
		for i, s := range ng.shards {
			sealer, ok := s.f.(Sealer)
			if !ok {
				break // generations are homogeneous; no shard seals
			}
			s.mu.Lock()
			err := sealer.Seal()
			s.mu.Unlock()
			if err != nil {
				mSealDur.Observe(time.Since(sealStart).Nanoseconds())
				sealSp.SetAttr("error", err.Error())
				sealSp.End()
				closeWindow()
				return fmt.Errorf("sharded: seal shard %d: %w", i, err)
			}
		}
		mSealDur.Observe(time.Since(sealStart).Nanoseconds())
		sealSp.End()
	}
	f.factory = factory
	f.gen.Store(ng)
	closeWindow()
	return nil
}

// Reset clears every shard in place (the generation is kept; use Rotate to
// clear without blocking readers behind write locks).
func (f *Filter) Reset() {
	f.rotateMu.Lock()
	defer f.rotateMu.Unlock()
	g := f.gen.Load()
	for _, s := range g.shards {
		s.mu.Lock()
		s.f.Reset()
		s.count = 0
		s.mu.Unlock()
	}
}

// Count returns the total number of successful inserts into the current
// generation (a live snapshot; concurrent writers may change it).
func (f *Filter) Count() uint64 {
	var total uint64
	for _, s := range f.gen.Load().shards {
		s.mu.RLock()
		total += s.count
		s.mu.RUnlock()
	}
	return total
}

// SizeBits returns the summed size of all shards. Shard locks are taken
// because growable kinds (the exact set) reallocate under Insert.
func (f *Filter) SizeBits() uint64 {
	var total uint64
	for _, s := range f.gen.Load().shards {
		s.mu.RLock()
		total += s.f.SizeBits()
		s.mu.RUnlock()
	}
	return total
}

// FPR returns the analytic false-positive rate with n keys stored: the
// per-shard model evaluated at the expected n/P keys per shard (the
// partition hash spreads keys uniformly).
func (f *Filter) FPR(n uint64) float64 {
	g := f.gen.Load()
	p := uint64(len(g.shards))
	s := g.shards[0]
	s.mu.RLock()
	fpr := s.f.FPR((n + p - 1) / p)
	s.mu.RUnlock()
	return fpr
}

// Stats is a point-in-time snapshot of the sharded filter.
type Stats struct {
	Shards     int      // shard count P
	Generation uint64   // rotation sequence number
	SizeBits   uint64   // summed shard size
	Count      uint64   // total successful inserts this generation
	PerShard   []uint64 // per-shard insert counts (balance diagnostic)
}

// Stats snapshots shard counts and sizes.
func (f *Filter) Stats() Stats {
	g := f.gen.Load()
	st := Stats{
		Shards:     len(g.shards),
		Generation: g.seq,
		PerShard:   make([]uint64, len(g.shards)),
	}
	for i, s := range g.shards {
		s.mu.RLock()
		st.PerShard[i] = s.count
		st.SizeBits += s.f.SizeBits()
		s.mu.RUnlock()
		st.Count += st.PerShard[i]
	}
	return st
}

// Skew reports the insert-count imbalance across shards as max/mean
// (1.0 = perfectly balanced; P = everything on one shard). An empty
// filter reports 1. The partition hash should keep this near 1; a
// drifting skew gauge means the key distribution is defeating it, which
// degrades both the contention win and the per-shard FPR model.
func (f *Filter) Skew() float64 {
	g := f.gen.Load()
	var total, max uint64
	for _, s := range g.shards {
		s.mu.RLock()
		c := s.count
		s.mu.RUnlock()
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(g.shards))
	return float64(max) / mean
}

// Snapshot is a point-in-time serialized image of a sharded filter: the
// generation sequence plus every shard's payload and insert count. The
// shard count is len(Payloads); the payload encoding is whatever the
// marshal callback produced (the perfilter package uses its per-kind wire
// formats).
type Snapshot struct {
	Seq      uint64
	Counts   []uint64
	Payloads [][]byte
}

// Snapshot serializes every shard of the current generation through the
// marshal callback, each under its read lock. The rotation lock is held
// throughout, so the image is from one generation; inserts racing the
// walk may be captured or not (the usual relaxed-snapshot contract).
func (f *Filter) Snapshot(marshal func(Inner) ([]byte, error)) (*Snapshot, error) {
	f.rotateMu.Lock()
	defer f.rotateMu.Unlock()
	g := f.gen.Load()
	snap := &Snapshot{
		Seq:      g.seq,
		Counts:   make([]uint64, len(g.shards)),
		Payloads: make([][]byte, len(g.shards)),
	}
	for i, s := range g.shards {
		s.mu.RLock()
		payload, err := marshal(s.f)
		snap.Counts[i] = s.count
		s.mu.RUnlock()
		if err != nil {
			return nil, fmt.Errorf("sharded: marshal shard %d: %w", i, err)
		}
		snap.Payloads[i] = payload
	}
	return snap, nil
}

// Restore rebuilds a filter from a Snapshot, decoding each shard through
// the unmarshal callback. factory supplies replacement shards for future
// Rotate calls and must build filters compatible with the restored ones.
func Restore(snap *Snapshot, unmarshal func([]byte) (Inner, error), factory Factory) (*Filter, error) {
	if factory == nil {
		return nil, fmt.Errorf("sharded: nil factory")
	}
	p := len(snap.Payloads)
	if p == 0 || p&(p-1) != 0 || p > MaxShards {
		return nil, fmt.Errorf("sharded: restore: shard count %d is not a power of two in [1, %d]", p, MaxShards)
	}
	if len(snap.Counts) != p {
		return nil, fmt.Errorf("sharded: restore: %d counts for %d shards", len(snap.Counts), p)
	}
	f := &Filter{factory: factory, lg: log2(p)}
	g := &generation{shards: make([]*shard, p), seq: snap.Seq}
	for i, payload := range snap.Payloads {
		inner, err := unmarshal(payload)
		if err != nil {
			return nil, fmt.Errorf("sharded: restore shard %d: %w", i, err)
		}
		g.shards[i] = &shard{f: inner, count: snap.Counts[i]}
	}
	f.gen.Store(g)
	return f, nil
}

// String describes the wrapper and one shard's configuration.
func (f *Filter) String() string {
	g := f.gen.Load()
	s := g.shards[0]
	s.mu.RLock()
	inner := s.f.String()
	s.mu.RUnlock()
	return fmt.Sprintf("sharded[P=%d gen=%d] %s", len(g.shards), g.seq, inner)
}
