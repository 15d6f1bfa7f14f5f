package perfilter

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"perfilter/internal/adaptive"
	"perfilter/internal/obs"
)

// Control-loop instrumentation, on the process-wide registry: how often
// the control loop evaluates, how often hysteresis holds it back, and which
// kind→kind migrations actually happen. Migration counts are labeled by
// (from, to) so a flapping filter shows up as paired bloom→cuckoo /
// cuckoo→bloom increments instead of hiding inside one total.
var (
	mEvaluations = obs.Default.Counter("perfilter_adaptive_evaluations_total",
		"Re-optimization passes (Reoptimize calls), whatever their verdict.")
	mRejections = obs.Default.Counter("perfilter_adaptive_rejections_total",
		"Re-optimization passes that decided against migrating (hysteresis, min inserts, already optimal).")
	mEmergencyGrows = obs.Default.Counter("perfilter_adaptive_emergency_grows_total",
		"Emergency migrations triggered by a saturated (ErrFull) filter.")
)

// countMigration bumps the (from, to) migration counter. Cold path: the
// label lookup may allocate, a migration rebuilds the whole filter.
func countMigration(from, to Kind) {
	obs.Default.Counter("perfilter_adaptive_migrations_total",
		"Completed live migrations, by source and target filter kind.",
		"from", from.String(), "to", to.String()).Inc()
}

// AdaptiveOptions configures NewAdaptive.
type AdaptiveOptions struct {
	// Workload seeds the advisory inputs that cannot be observed: the work
	// saved per pruned probe Tw, the memory budget and the platform. N is
	// tracked live and ignored here; Sigma is only the fallback until the
	// first probes are observed.
	Workload Workload
	// Shards is the sharded wrapper's partition count (<= 0 picks the host
	// default, as NewSharded does).
	Shards int
	// MaxDecisions bounds the retained decision history (default 64).
	MaxDecisions int
	// DisableAutoGrow turns off the ErrFull emergency migration, so cuckoo
	// saturation surfaces to the caller instead of growing the filter in
	// place. The filter server sets this: its memory budget accounting owns
	// every size change, so growth must go through its migrate/autotune
	// paths rather than happen implicitly inside an insert handler.
	DisableAutoGrow bool
}

func (o AdaptiveOptions) withDefaults() AdaptiveOptions {
	if o.MaxDecisions == 0 {
		o.MaxDecisions = 64
	}
	return o
}

// Adaptive is a self-re-optimizing concurrent filter: a Sharded filter
// plus the control loop the paper's static Advise lacks. Every insert and
// probe feeds cheap atomic workload counters (observed n, positive
// fraction → σ); Reoptimize re-runs Advise against that observed workload
// and, when the recommended configuration's modeled overhead ρ beats the
// deployed one by the policy's hysteresis margin, migrates live — any
// size change and any kind change, Bloom→Cuckoo or Cuckoo→Bloom — by
// replaying the maintained key log into a staged generation under the
// sharded dual-write window, so no acknowledged write is lost and readers
// never block.
//
// All methods are safe for concurrent use.
type Adaptive struct {
	s     *Sharded
	opts  AdaptiveOptions
	stats adaptive.Stats

	// log is the current key-log epoch. Clearing operations (Rotate,
	// Reset) swap in a fresh log rather than truncating in place, and
	// writers re-check the pointer after their insert — the log-side
	// mirror of the sharded dual-write window, so a write racing a clear
	// can never be in the filter but missing from the log (the log stays
	// a conservative superset; see internal/adaptive).
	log atomic.Pointer[adaptive.KeyLog]

	// logComplete reports that the key log covers every key the filter
	// holds. It is false for a populated filter wrapped by NewAdaptiveFrom
	// and for one restored from a snapshot that carried no complete log;
	// migration is refused until the next Reset or Rotate clears both.
	logComplete atomic.Bool

	// mu serializes re-optimization, migration, rotation and reset.
	mu sync.Mutex
	// trace is the fixed-size ring of re-optimization decisions (the
	// control loop's flight recorder, capacity opts.MaxDecisions); it has
	// its own lock so readers never contend with a migration.
	trace *obs.Ring[adaptive.Decision]
	// baseline is the counter snapshot at the last migration (zero until
	// then, and after clearing rotations/resets). The control loop
	// evaluates the workload over the delta since this baseline, so the
	// read-mostly gate for the immutable xor family reflects the current
	// generation's traffic, not a long-dead write burst. Guarded by mu.
	baseline adaptive.Counters
}

// NewAdaptive builds an adaptive filter starting from the given
// configuration and size (the same parameters New takes, sharded per
// opts.Shards). Nothing re-optimizes it in the background: call
// Reoptimize on your own schedule (filter-server -autotune does).
func NewAdaptive(cfg Config, mBits uint64, opts AdaptiveOptions) (*Adaptive, error) {
	s, err := NewSharded(cfg, mBits, opts.Shards)
	if err != nil {
		return nil, err
	}
	return newAdaptive(s, opts, true), nil
}

// NewAdaptiveAdvised runs Advise on opts.Workload (N must be set to the
// expected initial size) and starts from the recommended configuration.
func NewAdaptiveAdvised(opts AdaptiveOptions) (*Adaptive, Advice, error) {
	advice, err := Advise(opts.Workload)
	if err != nil {
		return nil, Advice{}, err
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = advice.Shards
	}
	s, err := NewSharded(advice.Config, advice.MBits, shards)
	if err != nil {
		return nil, Advice{}, err
	}
	return newAdaptive(s, opts, true), advice, nil
}

func newAdaptive(s *Sharded, opts AdaptiveOptions, logComplete bool) *Adaptive {
	opts = opts.withDefaults()
	a := &Adaptive{s: s, opts: opts, trace: obs.NewRing[adaptive.Decision](opts.MaxDecisions)}
	a.log.Store(new(adaptive.KeyLog))
	a.logComplete.Store(logComplete)
	return a
}

// NewAdaptiveFrom wraps an existing sharded filter (e.g. one restored by
// UnmarshalSharded from a pre-adaptive snapshot). Because the filter may
// already hold keys that no log recorded, the key log starts complete only
// when the filter is empty; otherwise the wrapper tracks and advises but
// refuses to migrate until Reset.
func NewAdaptiveFrom(s *Sharded, opts AdaptiveOptions) *Adaptive {
	return newAdaptive(s, opts, s.Count() == 0)
}

// Close releases the underlying sharded filter's persistent batch-gather
// workers. The filter stays usable (large batches fall back to their
// caller's goroutine).
func (a *Adaptive) Close() { a.s.Close() }

// Insert implements Filter; safe for concurrent use. Unless AutoGrow is
// disabled, a cuckoo ErrFull triggers an emergency re-optimization (grow
// to the advised size for the observed n) before the error is surfaced.
func (a *Adaptive) Insert(key Key) error {
	_, err := a.insertLogged(context.Background(), []Key{key}, func() (int, error) {
		return 1, a.s.Insert(key)
	})
	return err
}

// InsertBatch adds a batch of keys (see Sharded.InsertBatch for the
// shard-grouped locking and the non-prefix ErrFull contract). On cuckoo
// saturation it grows once via an emergency re-optimization and replays
// the whole batch, which is idempotent for the logged/deduplicated replay
// path.
func (a *Adaptive) InsertBatch(keys []Key) (int, error) {
	return a.InsertBatchCtx(context.Background(), keys)
}

// InsertBatchCtx is InsertBatch with request-scoped tracing: a sampled
// span in ctx gains per-shard "shard.insert" children, and an emergency
// grow triggered by this batch runs its migration under the same trace.
func (a *Adaptive) InsertBatchCtx(ctx context.Context, keys []Key) (int, error) {
	return a.insertLogged(ctx, keys, func() (int, error) { return a.s.s.InsertBatch(ctx, keys) })
}

// maxFullRecoveries bounds the emergency-grow retries of one insert call:
// each recovery at least doubles the filter, so a handful always suffices
// unless growth itself is failing.
const maxFullRecoveries = 4

// insertLogged is the logged-insert protocol behind Insert and
// InsertBatchCtx; insert puts keys into the sharded filter (its count is
// ignored on error). The keys are logged before they are inserted, so an
// insert racing a migration's log snapshot is covered either by the
// snapshot or by the rotation's dual-write window — never dropped — and
// the log pointer is re-checked after every insert attempt so a
// concurrent clearing Rotate/Reset cannot leave a key in the filter but
// out of the log. On ErrFull it runs the emergency grow (recoverFull) up
// to maxFullRecoveries times.
func (a *Adaptive) insertLogged(ctx context.Context, keys []Key, insert func() (int, error)) (int, error) {
	log := a.log.Load()
	log.AppendBatch(keys)
	try := func() (int, error) {
		n, err := insert()
		if cur := a.log.Load(); cur != log {
			cur.AppendBatch(keys)
			log = cur
		}
		return n, err
	}
	inserted, err := try()
	for attempt := 0; errors.Is(err, ErrFull) && attempt < maxFullRecoveries && a.autoGrows(); attempt++ {
		self, rerr := a.recoverFull(ctx, a.s.SizeBits(), uint64(len(keys)))
		if rerr != nil {
			break
		}
		if self {
			// This call performed the migration: the keys were logged
			// before the failed attempt, so the fill snapshot replayed them,
			// deduplicated, into the grown generation — every key is present
			// exactly once and there is nothing to re-insert (a re-insert
			// would double a key's cuckoo occupancy).
			inserted, err = len(keys), nil
			break
		}
		// A concurrent recovery grew the filter; retry there (a batch goes
		// in shard order, so not an input-order prefix on a further error),
		// re-checking the log epoch again afterwards.
		inserted, err = try()
	}
	if err == nil {
		a.stats.RecordInsert(uint64(inserted))
	}
	return inserted, err
}

// Contains implements Filter, recording the probe.
func (a *Adaptive) Contains(key Key) bool {
	ok := a.s.Contains(key)
	var pos uint64
	if ok {
		pos = 1
	}
	a.stats.RecordProbe(1, pos)
	return ok
}

// ContainsBatch implements Filter, recording the batch.
func (a *Adaptive) ContainsBatch(keys []Key, sel []uint32) []uint32 {
	return a.ContainsBatchCtx(context.Background(), keys, sel)
}

// ContainsBatchCtx is ContainsBatch with request-scoped tracing: a
// sampled span in ctx gains per-shard "shard.probe" children.
func (a *Adaptive) ContainsBatchCtx(ctx context.Context, keys []Key, sel []uint32) []uint32 {
	before := len(sel)
	sel = a.s.s.ContainsBatch(ctx, keys, sel)
	a.stats.RecordProbe(uint64(len(keys)), uint64(len(sel)-before))
	return sel
}

// SizeBits implements Filter (the live filter only; the key log's
// footprint is reported separately by LogBits).
func (a *Adaptive) SizeBits() uint64 { return a.s.SizeBits() }

// LogBits returns the key log's current footprint in bits: its sealed
// runs' encoded size plus 32 bits per key not yet sealed.
func (a *Adaptive) LogBits() uint64 { return a.log.Load().Bits() }

// FPR implements Filter.
func (a *Adaptive) FPR(n uint64) float64 { return a.s.FPR(n) }

// Reset implements Filter: clears the filter, the key log and the tracked
// counters, and (re-)establishes the log as complete. The log is swapped,
// not truncated, so writers racing the clear keep the superset invariant
// via their post-insert pointer re-check.
func (a *Adaptive) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.log.Store(new(adaptive.KeyLog))
	a.s.Reset()
	a.stats.Reset()
	a.baseline = adaptive.Counters{}
	a.logComplete.Store(true)
}

// String implements Filter.
func (a *Adaptive) String() string { return "adaptive " + a.s.String() }

// Count returns the number of successful inserts into the current
// generation (after a migration: the deduplicated key count plus racing
// dual-writes — the live n estimate the control loop advises against).
func (a *Adaptive) Count() uint64 { return a.s.Count() }

// Generation returns the rotation sequence number.
func (a *Adaptive) Generation() uint64 { return a.s.Generation() }

// Stats snapshots shard occupancy (the workload counters are returned by
// Counters).
func (a *Adaptive) Stats() ShardStats { return a.s.Stats() }

// Counters returns a snapshot of the tracked workload.
func (a *Adaptive) Counters() adaptive.Counters { return a.stats.Snapshot() }

// WorkloadWindow returns the tracked counters since the last migration —
// the window the control loop evaluates — and whether that window
// currently qualifies as read-mostly (insert fraction at or below
// ReadMostlyMaxInsertFraction), which is what makes the immutable xor
// family eligible for this filter.
func (a *Adaptive) WorkloadWindow() (adaptive.Counters, bool) {
	a.mu.Lock()
	baseline := a.baseline
	a.mu.Unlock()
	delta := a.stats.Snapshot().Sub(baseline)
	return delta, delta.InsertFraction() <= ReadMostlyMaxInsertFraction
}

// Config returns the currently served configuration (migrations change it).
func (a *Adaptive) Config() Config { return a.s.Config() }

// Rotate is Sharded.Rotate with the standard clearing contract:
// the filter's contents are replaced by an empty generation of mBits
// total bits (0 keeps the size). The key log rotates in lockstep: a fresh
// log epoch is published before the sharded rotation opens its dual-write
// window, and writers re-check the log pointer after every insert — so
// after the swap the new log covers exactly (a superset of) the new
// generation, the tracked counters restart, and later migrations cannot
// resurrect cleared keys. To resize *without* clearing, use Migrate with
// the current configuration. A sampled span in ctx gains the sharded
// layer's "sharded.rotate" child.
func (a *Adaptive) Rotate(ctx context.Context, mBits uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	old := a.log.Load()
	fresh := new(adaptive.KeyLog)
	// Publish the new epoch before the rotation starts: a writer whose
	// insert lands in the staged generation observed the staging pointer,
	// which was published after this store, so its post-insert re-check
	// sees the new log and records the key there.
	a.log.Store(fresh)
	if err := a.s.Rotate(ctx, mBits, nil); err != nil {
		// The rotation aborted: the retiring generation still serves, so
		// restore its log and fold in the keys writers logged into the
		// aborted epoch (their inserts landed in the retiring generation).
		// Writers still holding the aborted epoch re-check after their
		// insert and re-append to the restored log, so the merge and the
		// re-checks together keep the superset invariant.
		a.log.Store(old)
		old.AppendBatch(fresh.Snapshot().Keys())
		return err
	}
	a.stats.Reset()
	a.baseline = adaptive.Counters{}
	a.logComplete.Store(true)
	return nil
}

// canMigrate reports whether a lossless rebuild source exists.
func (a *Adaptive) canMigrate() bool { return a.logComplete.Load() }

// autoGrows reports whether the ErrFull emergency path is armed.
func (a *Adaptive) autoGrows() bool { return !a.opts.DisableAutoGrow && a.canMigrate() }

// workload returns the observed workload: the configured Tw/budget with
// the tracked n, σ and read-mostliness substituted in. The σ and insert
// fraction come from the counter deltas since the given baseline (the
// last migration), so a filter that long ago absorbed its build burst
// and now only serves probes qualifies as read-mostly — which is what
// makes the immutable xor family enumerable for it.
func (a *Adaptive) workload(baseline adaptive.Counters) Workload {
	w := a.opts.Workload
	delta := a.stats.Snapshot().Sub(baseline)
	w.N = a.s.Count()
	if w.N == 0 {
		w.N = 1
	}
	w.Sigma = delta.Sigma(w.Sigma)
	w.ReadMostly = delta.InsertFraction() <= ReadMostlyMaxInsertFraction
	return w
}

// AdaptiveAdvice is the advice endpoint's full answer: what was observed,
// what is deployed, what the model now recommends, and what the policy
// would do about it.
type AdaptiveAdvice struct {
	// Counters is the tracked workload at evaluation time.
	Counters adaptive.Counters
	// Window is the tracked workload since the last migration (equal to
	// Counters until one happens) — the slice the σ estimate and the
	// read-mostly gate are computed from.
	Window adaptive.Counters
	// Workload is the advisory input derived from it.
	Workload Workload
	// Current models the deployed configuration at its actual size.
	Current Advice
	// Best is the static Advise answer for the observed workload.
	Best Advice
	// KindChange reports that Best switches the filter family.
	KindChange bool
	// WouldMigrate is the hysteresis policy's verdict; Reason explains it.
	WouldMigrate bool
	Reason       string
}

const reasonAtBest = "already at the recommended configuration"

// atBest reports that the recommendation is the deployed configuration at
// its deployed size, so migrating to it would change nothing.
func (adv AdaptiveAdvice) atBest() bool {
	return adv.Best.Config == adv.Current.Config && adv.Best.MBits == adv.Current.MBits
}

// Advice re-runs the advisor against the observed workload without acting
// on the answer. For a stationary workload whose Tw and σ match the
// configured ones, Best reproduces the static Advise answer exactly.
func (a *Adaptive) Advice() (AdaptiveAdvice, error) { return a.AdviceTw(0) }

// AdviceTw is Advice with the work-saved term overridden (tw <= 0 keeps
// the configured value) — the exploration knob behind the server's
// ?tw= query parameter: "what would the optimum be if a pruned probe
// saved this much?".
func (a *Adaptive) AdviceTw(tw float64) (AdaptiveAdvice, error) {
	a.mu.Lock()
	baseline := a.baseline
	a.mu.Unlock()
	return a.adviceAt(baseline, tw)
}

func (a *Adaptive) adviceAt(baseline adaptive.Counters, tw float64) (AdaptiveAdvice, error) {
	w := a.workload(baseline)
	if tw > 0 {
		w.Tw = tw
	}
	cur, err := EvaluateOverhead(w, a.s.Config(), a.s.SizeBits())
	if err != nil {
		return AdaptiveAdvice{}, err
	}
	best, err := Advise(w)
	if err != nil {
		return AdaptiveAdvice{}, err
	}
	counters := a.stats.Snapshot()
	adv := AdaptiveAdvice{
		Counters:   counters,
		Window:     counters.Sub(baseline),
		Workload:   w,
		Current:    cur,
		Best:       best,
		KindChange: best.Config.Kind != cur.Config.Kind,
	}
	ok, reason := adaptive.ShouldMigrate(cur.Overhead, best.Overhead, adv.Counters.Inserts)
	if !ok && !KindMutable(cur.Config.Kind) && !w.ReadMostly && KindMutable(best.Config.Kind) &&
		adv.Window.Inserts >= adaptive.MinInserts {
		// Writes resumed on an immutable filter: the deployed build-once
		// table cannot absorb them (they pile up in overflow buffers and
		// the key log), so move back to a mutable family even when the
		// modeled ρ gap alone would not clear the hysteresis margin.
		ok = true
		reason = fmt.Sprintf("writes resumed on an immutable filter (%d inserts, %.1f%% of the window)",
			adv.Window.Inserts, adv.Window.InsertFraction()*100)
	}
	if ok && adv.atBest() {
		ok, reason = false, reasonAtBest
	}
	if ok && !a.canMigrate() {
		ok, reason = false, "key log incomplete after restore"
	}
	adv.WouldMigrate, adv.Reason = ok, reason
	return adv, nil
}

// Reoptimize runs one control-loop pass: re-advise against the observed
// workload and migrate if the policy's hysteresis margin is cleared, or
// regardless with force (unless already at the recommendation). It is the
// only code that turns advice into a migration; call it on your own
// schedule (filter-server's autotune sweep and empty-body migrate do).
// admit, when non-nil, wraps the rebuild: it calls build once, or refuses
// with an error (filter-server reserves mBits against its memory budget).
// admit runs under the filter's lock, so it must not call back into a.
//
// Every pass records one decision (a refused or failed migration with the
// error as its reason), counts one evaluation, plus one rejection when it
// declines, and ends one "adaptive.evaluate" span: a child of a sampled
// span in ctx, else a forced root on the process tracer. The span carries
// the observed workload (n, σ), the modeled ρ_cur/ρ_new, the verdict and
// its reason. The returned advice is the evidence for the verdict.
func (a *Adaptive) Reoptimize(ctx context.Context, force bool, admit func(mBits uint64, build func() error) error) (adaptive.Decision, AdaptiveAdvice, error) {
	var sp *obs.Span
	if obs.SpanFromContext(ctx) != nil {
		ctx, sp = obs.StartSpan(ctx, "adaptive.evaluate")
	} else {
		ctx, sp = obs.DefaultTracer.StartRootForced(ctx, "adaptive.evaluate")
	}
	defer sp.End()
	a.mu.Lock()
	defer a.mu.Unlock()
	mEvaluations.Inc()
	adv, err := a.adviceAt(a.baseline, 0)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return adaptive.Decision{}, AdaptiveAdvice{}, err
	}
	d := newDecision(adv.Workload.N, adv.Current.Config, adv.Best.Config, adv.Best.MBits, adv.Reason)
	d.Sigma, d.Window, d.Margin = adv.Workload.Sigma, adv.Window, adaptive.Margin
	d.CurrentRho, d.BestRho = adv.Current.Overhead, adv.Best.Overhead
	migrate := adv.WouldMigrate
	if force && !migrate {
		if adv.atBest() {
			d.Reason = reasonAtBest
		} else {
			migrate, d.Reason = true, "forced ("+adv.Reason+")"
		}
	}
	if migrate {
		build := func() error { return a.migrateLocked(ctx, adv.Best.Config, adv.Best.MBits, &d) }
		if admit == nil {
			err = build()
		} else {
			err = admit(adv.Best.MBits, build)
		}
	}
	switch {
	case !migrate:
		mRejections.Inc()
	case err != nil:
		d.Reason = "migration failed: " + err.Error()
		sp.SetAttr("error", err.Error())
	default:
		d.Migrated = true
	}
	sp.SetAttr("n", adv.Workload.N)
	sp.SetAttr("sigma", adv.Workload.Sigma)
	sp.SetAttr("rho_cur", adv.Current.Overhead)
	sp.SetAttr("rho_new", adv.Best.Overhead)
	sp.SetAttr("current", d.Current)
	sp.SetAttr("best", d.Best)
	sp.SetAttr("would_migrate", migrate)
	sp.SetAttr("reason", d.Reason)
	sp.SetAttr("migrated", d.Migrated)
	a.trace.Add(d)
	return d, adv, err
}

// Migrate forces a live migration to an explicit configuration and size,
// bypassing the hysteresis policy (the server's migrate endpoint with an
// explicit target). mBits 0 keeps the current size. The same losslessness
// guarantees apply. A sampled span in ctx gains the sharded layer's
// "sharded.rotate" child (and seal span for build-once targets).
func (a *Adaptive) Migrate(ctx context.Context, cfg Config, mBits uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.migrateAs(ctx, cfg, mBits, newDecision(a.s.Count(), a.s.Config(), cfg, mBits, "explicit migration"))
}

// migrateLocked rebuilds the filter as cfg/mBits from a key-log snapshot
// under the sharded dual-write window. The snapshot is taken *inside* the
// fill callback — i.e. after Rotate has published the staging generation —
// so the two windows overlap: a write that completes too early for the
// dual-write re-checks to see the rotation has, by then, already appended
// to the log and is in the snapshot, and a write the snapshot misses
// observes the staging pointer and dual-writes itself. (Snapshotting
// before the publication would leave a gap where a whole append+insert
// could fall between the two.) The replay is deduplicated so a
// multiply-inserted key cannot saturate a cuckoo bucket — and so a
// duplicated key cannot make an xor target's peeling unsolvable. The
// replayed key count and the migration's wall time go into d.
//
// An immutable (xor) target needs no special path here: the staged
// shards buffer the replayed keys and the sharded rotation seals them
// into solved tables before the swap; writes racing the window land in
// the shards' overflow buffers and stay queryable.
func (a *Adaptive) migrateLocked(ctx context.Context, cfg Config, mBits uint64, d *adaptive.Decision) error {
	if !a.canMigrate() {
		return fmt.Errorf("perfilter: adaptive filter cannot migrate without a complete key log")
	}
	prev := a.s.Config()
	log := a.log.Load()
	start := time.Now()
	err := a.s.Migrate(ctx, cfg, mBits, func(insert func(Key) error) error {
		return log.Snapshot().Replay(func(k Key) error {
			d.ReplayedKeys++
			return insert(k)
		})
	})
	d.MigrationNs = time.Since(start).Nanoseconds()
	if err != nil {
		return err
	}
	countMigration(prev.Kind, cfg.Kind)
	// Open a fresh evaluation window: σ and the read-mostly gate are
	// computed over traffic since this migration.
	a.baseline = a.stats.Snapshot()
	return nil
}

// recoverFull is the ErrFull emergency path: grow to the advised size for
// twice the observed n plus the incoming keys (falling back to doubling
// the current size when the advisor has nothing better). It reports
// whether this call performed the migration itself: if another writer's
// recovery already grew the filter past what the failing insert saw, the
// caller must retry its insert — the concurrent migration's log snapshot
// may predate the caller's log append, so only its own migration is
// guaranteed to have replayed the caller's keys.
func (a *Adaptive) recoverFull(ctx context.Context, sawBits, incoming uint64) (bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.s.SizeBits() > sawBits {
		return false, nil // a concurrent recovery already grew the filter
	}
	mEmergencyGrows.Inc()
	w := a.workload(a.baseline)
	w.N = 2 * (w.N + incoming)
	// An emergency grow is triggered by inserts, so never pick an
	// immutable target whatever the window's fraction says.
	w.ReadMostly = false
	prev := a.s.Config()
	cfg, mBits := prev, 2*sawBits
	if adv, err := Advise(w); err == nil && adv.MBits > sawBits {
		cfg, mBits = adv.Config, adv.MBits
	}
	if err := a.migrateAs(ctx, cfg, mBits, newDecision(w.N/2, prev, cfg, mBits, "emergency grow after ErrFull")); err != nil {
		return false, err
	}
	return true, nil
}

// newDecision starts a decision record, stamped now, for moving n keys
// from the deployed configuration cur to best at bestMBits bits.
func newDecision(n uint64, cur, best Config, bestMBits uint64, reason string) adaptive.Decision {
	return adaptive.Decision{
		At: time.Now().UTC(), N: n, Current: cur.String(), Best: best.String(),
		BestMBits: bestMBits, KindChanged: best.Kind != cur.Kind, Reason: reason,
	}
}

// migrateAs migrates to cfg/mBits and records d as the completed
// migration. Callers hold mu.
func (a *Adaptive) migrateAs(ctx context.Context, cfg Config, mBits uint64, d adaptive.Decision) error {
	if err := a.migrateLocked(ctx, cfg, mBits, &d); err != nil {
		return err
	}
	d.Migrated = true
	a.trace.Add(d)
	return nil
}

// DecisionTrace returns the retained decision history, oldest first,
// together with the number of decisions ever recorded (including ones
// the bounded trace has since overwritten), read atomically so the
// history never outnumbers the total.
func (a *Adaptive) DecisionTrace() ([]adaptive.Decision, uint64) { return a.trace.Snapshot() }

// LastMigration returns the most recent decision that actually migrated
// the filter (explicit, control-loop or emergency), if one is still
// retained in the trace.
func (a *Adaptive) LastMigration() (last adaptive.Decision, ok bool) {
	a.trace.Walk(func(d adaptive.Decision) bool {
		if d.Migrated {
			last, ok = d, true
		}
		return !ok
	})
	return last, ok
}

// Skew reports the per-shard insert imbalance as max/mean (1 = even).
func (a *Adaptive) Skew() float64 { return a.s.Skew() }

var _ Filter = (*Adaptive)(nil)
