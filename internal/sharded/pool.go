package sharded

import (
	"runtime"
	"sync"
	"sync/atomic"

	"perfilter/internal/obs"
)

// Persistent gather workers.
//
// Large batches (>= parallelBatchMin keys) probe their shard runs in
// parallel. Spawning a goroutine per batch would put an allocation and a
// scheduler handoff on the steady-state hot path, so each Filter instead
// owns a small pool of long-lived workers, created lazily on the first
// qualifying batch and parked on a channel between batches. Dispatch is
// work-stealing in spirit: the caller enqueues up to poolSize wake-up
// tokens (one per idle worker it wants), then joins the shard-claim loop
// itself, so the batch completes at full speed even if every worker is
// busy with another caller's batch — a token that finds no work left is
// consumed for free.
//
// Lifecycle: workers hold a reference to the pool only, never to the
// Filter, so an abandoned Filter becomes unreachable and a finalizer
// releases its workers; Close does the same eagerly. A closed pool makes
// subsequent batches fall back to the caller's goroutine — the Filter
// stays fully usable.
var (
	poolBatchesHelp = "Batched sharded operations by gather mode " +
		"(parallel = persistent worker pool, sequential = caller's goroutine)."
	mPoolBatchesParallel = obs.Default.Counter("perfilter_sharded_pool_batches_total",
		poolBatchesHelp, "mode", "parallel")
	mPoolBatchesSeq = obs.Default.Counter("perfilter_sharded_pool_batches_total",
		poolBatchesHelp, "mode", "sequential")
	poolShardsHelp = "Per-shard runs executed by the parallel gather, by executor " +
		"(caller runs are successful steals from the dispatching goroutine's own claim loop)."
	mPoolShardsWorker = obs.Default.Counter("perfilter_sharded_pool_shards_total",
		poolShardsHelp, "executor", "worker")
	mPoolShardsCaller = obs.Default.Counter("perfilter_sharded_pool_shards_total",
		poolShardsHelp, "executor", "caller")
)

// liveWorkers counts parked-or-running pool workers across all Filters,
// surfaced as a gauge so an operator can spot pool leaks (a rising count
// with a flat filter count) at a glance.
var liveWorkers atomic.Int64

func init() {
	obs.Default.GaugeFunc("perfilter_sharded_pool_workers",
		"Live persistent gather workers across all sharded filters.",
		func() float64 { return float64(liveWorkers.Load()) })
}

// pool is one Filter's set of persistent gather workers.
type pool struct {
	ch      chan *gatherJob // wake-up tokens; cap == workers
	quit    chan struct{}   // closed by close(); never sends
	workers int             // worker goroutines spawned (0: always sequential)
	closed  atomic.Bool
}

func newPool(workers int) *pool {
	pl := &pool{workers: workers}
	if workers <= 0 {
		pl.workers = 0
		return pl
	}
	pl.ch = make(chan *gatherJob, workers)
	pl.quit = make(chan struct{})
	liveWorkers.Add(int64(workers))
	for i := 0; i < workers; i++ {
		go pl.worker()
	}
	return pl
}

// running reports whether dispatching to this pool can recruit help.
func (pl *pool) running() bool { return pl.workers > 0 && !pl.closed.Load() }

func (pl *pool) worker() {
	defer liveWorkers.Add(-1)
	for {
		select {
		case j := <-pl.ch:
			j.run(true)
			j.release()
		case <-pl.quit:
			return
		}
	}
}

// close releases the workers. Idempotent, and safe concurrently with
// dispatch: a dispatcher that raced the close and enqueued tokens nobody
// will drain still completes its batch on its own claim loop (completion
// waits on shard runs, never on token consumption); the stranded tokens
// keep their job out of the job pool and are garbage-collected with the
// channel.
func (pl *pool) close() {
	if !pl.closed.Swap(true) && pl.workers > 0 {
		close(pl.quit)
	}
}

// defaultPoolSize sizes a Filter's pool once, from GOMAXPROCS at first
// use: the dispatching caller participates, so one worker fewer than the
// parallelism target, and never more than could be useful for p shards.
func defaultPoolSize(p int) int {
	w := runtime.GOMAXPROCS(0)
	if w > p {
		w = p
	}
	return w - 1
}

// gatherJob is one batch's parallel fan-out state. Jobs are recycled
// through jobPool; a job returns there only when its reference count —
// one per enqueued token plus one for the dispatcher — drops to zero, so
// a token still sitting in a pool channel keeps its job (and nothing
// else) alive, and a recycled job can never be observed mid-rewrite.
//
// Completion and recycling are deliberately decoupled: the dispatcher
// waits for pending (shard runs outstanding), not for token consumption,
// so a busy pool can never stall a batch, and a worker picking up a
// token after the batch completed finds next >= p and returns without
// touching the scratch (which the dispatcher may already have recycled).
type gatherJob struct {
	f      *Filter
	g      *generation
	sc     *batchScratch
	parent *obs.Span
	insert bool // insert gather (write locks) vs probe gather (read locks)
	dual   bool // insert replay into a staging/successor generation

	p       int32
	next    atomic.Int32 // shard-claim cursor
	pending atomic.Int32 // shard runs not yet finished; 0 => batch done
	refs    atomic.Int32
	done    chan struct{} // buffered(1); exactly one send per batch

	inserted atomic.Int64 // insert gathers: keys successfully inserted
	failed   atomic.Bool  // insert gathers: short-circuit remaining runs
	errMu    sync.Mutex
	err      error // first insert error
}

var jobPool = sync.Pool{New: func() any {
	return &gatherJob{done: make(chan struct{}, 1)}
}}

// run claims shards until none remain. Whoever finishes the last
// outstanding run signals done. worker distinguishes the executor for
// the steal counters only.
func (j *gatherJob) run(worker bool) {
	ran := 0
	for {
		s := int(j.next.Add(1)) - 1
		if s >= int(j.p) {
			break
		}
		if j.insert {
			j.runInsert(s)
		} else {
			probeRun(j.g, j.sc, j.parent, s)
		}
		ran++
		if j.pending.Add(-1) == 0 {
			j.done <- struct{}{}
		}
	}
	if ran > 0 {
		if worker {
			mPoolShardsWorker.Add(uint64(ran))
		} else {
			mPoolShardsCaller.Add(uint64(ran))
		}
	}
}

func (j *gatherJob) runInsert(s int) {
	if j.failed.Load() {
		return // drain remaining claims cheaply after an error
	}
	count, err := insertRun(j.g, j.sc.run(s), j.parent, s, j.dual)
	j.inserted.Add(int64(count))
	if err != nil {
		j.errMu.Lock()
		if !j.failed.Load() {
			j.err = err
			j.failed.Store(true)
		}
		j.errMu.Unlock()
	}
}

func (j *gatherJob) release() {
	if j.refs.Add(-1) == 0 {
		j.f, j.g, j.sc, j.parent, j.err = nil, nil, nil, nil, nil
		jobPool.Put(j)
	}
}

// parallelGather fans one scattered batch out across the pool: enqueue up
// to min(workers, p-1) wake-up tokens, claim shards on this goroutine too,
// and wait for every shard run to finish. For insert gathers it returns
// the inserted count and the first error; remaining runs after an error
// are drained without inserting (the batch contract: keys are processed
// in shard order, so the inserted set is not an input-order prefix).
func (f *Filter) parallelGather(pl *pool, g *generation, sc *batchScratch, parent *obs.Span, p int, insert, dual bool) (int, error) {
	j := jobPool.Get().(*gatherJob)
	j.f, j.g, j.sc, j.parent = f, g, sc, parent
	j.insert, j.dual = insert, dual
	j.p = int32(p)
	j.next.Store(0)
	j.pending.Store(int32(p))
	j.inserted.Store(0)
	j.failed.Store(false)
	j.err = nil

	// Publish the full reference count before the first token becomes
	// visible; trim the unsent remainder afterwards. refs cannot reach
	// zero early: workers consume at most `sent` tokens.
	want := pl.workers
	if want > p-1 {
		want = p - 1
	}
	j.refs.Store(int32(want) + 1)
	sent := 0
	for ; sent < want; sent++ {
		select {
		case pl.ch <- j:
		default:
			// Every worker is either busy or already has a token
			// queued; more tokens would only pile up.
			goto dispatched
		}
	}
dispatched:
	if sent < want {
		j.refs.Add(int32(sent - want))
	}
	j.run(false)
	<-j.done
	inserted, err := int(j.inserted.Load()), j.err
	j.release()
	return inserted, err
}

// pool returns the Filter's worker pool, creating it (and arming the
// finalizer that tears it down) on first use.
func (f *Filter) pool() *pool {
	if pl := f.pl.Load(); pl != nil {
		return pl
	}
	f.poolMu.Lock()
	defer f.poolMu.Unlock()
	if pl := f.pl.Load(); pl != nil {
		return pl
	}
	pl := newPool(defaultPoolSize(f.NumShards()))
	if pl.workers > 0 {
		runtime.SetFinalizer(f, (*Filter).Close)
	}
	f.pl.Store(pl)
	return pl
}

// SetPoolSize replaces the persistent gather pool with one of exactly n
// workers (n <= 0: no workers, every batch runs on its caller's
// goroutine). It exists for benchmarks comparing pool-on/pool-off and for
// tests that need parallel gathers regardless of the host's GOMAXPROCS;
// production callers should let the pool size itself. Safe at any time:
// batches already dispatched to the old pool complete on their callers.
func (f *Filter) SetPoolSize(n int) {
	f.poolMu.Lock()
	defer f.poolMu.Unlock()
	if old := f.pl.Load(); old != nil {
		old.close()
	}
	pl := newPool(n)
	// SetFinalizer panics when replacing a live finalizer, so always clear
	// before re-arming.
	runtime.SetFinalizer(f, nil)
	if pl.workers > 0 {
		runtime.SetFinalizer(f, (*Filter).Close)
	}
	f.pl.Store(pl)
}

// Close releases the filter's persistent gather workers. The filter
// remains fully usable — concurrent and subsequent batches fall back to
// the caller's goroutine. Close is idempotent and safe under live
// traffic; it is also optional, since a finalizer performs the same
// teardown when the Filter becomes unreachable (parked workers reference
// only the pool, never the Filter, so they keep nothing else alive).
func (f *Filter) Close() {
	f.poolMu.Lock()
	defer f.poolMu.Unlock()
	if pl := f.pl.Load(); pl != nil {
		pl.close()
	}
	runtime.SetFinalizer(f, nil)
}

// PoolWorkers reports the number of workers the current pool was created
// with, 0 if the pool is absent, closed, or worker-less — i.e. whether
// the next qualifying batch can gather in parallel (diagnostics/tests).
func (f *Filter) PoolWorkers() int {
	pl := f.pl.Load()
	if pl == nil || !pl.running() {
		return 0
	}
	return pl.workers
}
