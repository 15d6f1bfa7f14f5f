package perfilter

import (
	"context"
	"fmt"
	"sync"

	"perfilter/internal/sharded"
)

// ShardStats is a point-in-time snapshot of a sharded filter.
type ShardStats = sharded.Stats

// Sharded is a Filter that is safe for concurrent writers and can be
// rebuilt under live read traffic: cfg split across P hash-selected
// shards, each a standalone filter of mBits/P bits behind its own
// reader/writer lock, with batched probes scatter/gathered across shards
// and atomic generation rotation. See internal/sharded for the design.
type Sharded struct {
	s   *sharded.Filter
	cfg Config
	// mu serializes the wrapper-level rotate (its read-modify-write of
	// perShard) and the serialization snapshot, so a Marshal never pairs
	// one rotation's shard payloads with another's per-shard size.
	mu sync.Mutex
	// perShard is the current per-shard size request in bits, recorded so
	// serialization (serialize.go) can rebuild an equivalent factory on
	// restore; guarded by mu.
	perShard uint64
}

// NewSharded builds a sharded concurrent filter: cfg at (at least) mBits
// total, partitioned across the given shard count (rounded up to a power
// of two; <= 0 picks RecommendShards' default for this host and N ≈
// mBits/12). Each shard is an independent filter of mBits/P bits, so
// per-shard false-positive behaviour matches a standalone filter of that
// size holding 1/P of the keys. Unlike New, mBits is always interpreted
// as bits for the Exact kind (64 bits per slot), never as a capacity
// hint — splitting would otherwise flip a bits-sized request into the
// hint regime per shard.
func NewSharded(cfg Config, mBits uint64, shards int) (*Sharded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if shards <= 0 {
		// Estimate the key count the size implies: the sweep's 12
		// bits/key midpoint for approximate filters, 64 bits/slot for
		// exact sets.
		est := mBits / 12
		if cfg.Kind == Exact {
			est = mBits / 64
		}
		shards = RecommendShards(est, 0)
	}
	perShard, p := sharded.SplitBits(mBits, shards)
	if perShard == 0 {
		return nil, fmt.Errorf("perfilter: %d bits cannot be split across %d shards", mBits, p)
	}
	sh := &Sharded{cfg: cfg, perShard: perShard}
	s, err := sharded.New(factoryFor(cfg, perShard), p)
	if err != nil {
		return nil, err
	}
	sh.s = s
	return sh, nil
}

// factoryFor builds one shard of the given size, in bits for every kind
// (newFilter's shard mode), so a small per-shard split never lands in
// New's below-2^16 capacity-hint regime for the exact set. cfg is captured
// by value: the factory outlives the Rotate/Migrate call that installed
// it, and must keep building the generation it was made for even after a
// later Migrate changes the wrapper's configuration.
func factoryFor(cfg Config, perShardBits uint64) sharded.Factory {
	return func() (sharded.Inner, error) {
		mc, err := cfg.toModel()
		if err != nil {
			return nil, err
		}
		return newFilter(mc, perShardBits, true)
	}
}

// Insert implements Filter; it is safe for concurrent use (the interface
// comment's "writes need external synchronization" does not apply here).
func (s *Sharded) Insert(key Key) error { return s.s.Insert(key) }

// InsertBatch adds a batch of keys, taking each shard's write lock once
// per batch instead of once per key. It returns the number of keys
// inserted; on error the inserted keys are not an input-order prefix
// (keys are processed in shard order), so recover from ErrFull by
// rotating larger and replaying the batch.
func (s *Sharded) InsertBatch(keys []Key) (int, error) {
	return s.s.InsertBatch(context.Background(), keys)
}

// Contains implements Filter.
func (s *Sharded) Contains(key Key) bool { return s.s.Contains(key) }

// ContainsBatch implements Filter: the probe batch is partitioned by
// shard, probed in parallel for large batches, and merged back into one
// ascending, position-preserving selection vector — byte-identical to
// probing the shards one at a time.
func (s *Sharded) ContainsBatch(keys []Key, sel []uint32) []uint32 {
	return s.s.ContainsBatch(context.Background(), keys, sel)
}

// SizeBits implements Filter (summed over shards).
func (s *Sharded) SizeBits() uint64 { return s.s.SizeBits() }

// FPR implements Filter: the per-shard model at n/P keys.
func (s *Sharded) FPR(n uint64) float64 { return s.s.FPR(n) }

// Reset implements Filter, clearing every shard in place.
func (s *Sharded) Reset() { s.s.Reset() }

// String implements Filter.
func (s *Sharded) String() string { return s.s.String() }

// NumShards returns the partition count.
func (s *Sharded) NumShards() int { return s.s.NumShards() }

// Count returns the number of successful inserts into the current
// generation.
func (s *Sharded) Count() uint64 { return s.s.Count() }

// Generation returns the rotation sequence number (0 until the first
// Rotate).
func (s *Sharded) Generation() uint64 { return s.s.Generation() }

// Stats snapshots shard occupancy and rotation state.
func (s *Sharded) Stats() ShardStats { return s.s.Stats() }

// Close releases the filter's persistent batch-gather workers (see
// internal/sharded). The filter remains fully usable afterwards — large
// batches just run on their caller's goroutine. Optional: a finalizer
// performs the same teardown when the filter becomes unreachable.
func (s *Sharded) Close() { s.s.Close() }

// Skew reports the per-shard insert-count imbalance as max/mean
// (1 = perfectly even, P = all keys on one shard) — the balance
// diagnostic behind the server's shard-skew gauge.
func (s *Sharded) Skew() float64 { return s.s.Skew() }

// Rotate builds a replacement generation of mBits total bits (0 keeps the
// current size) off to the side, runs fill against it if non-nil, then
// swaps it in with one atomic store. Readers never block, and the staging
// generation doubles as a dual-write target from before fill starts until
// after the swap: an insert whose final re-check observes the window is
// present afterwards. Inserts that complete before the window opens
// (including ones racing the new generation's construction) are dropped
// unless fill's source observes them — rotation replaces contents; pair
// fill with a key log that writers append to before inserting and every
// acknowledged key is retained. Rotate is Migrate to the current
// configuration. A sampled span in ctx gains a "sharded.rotate" child
// (and a "sharded.seal" grandchild for build-once kinds).
func (s *Sharded) Rotate(ctx context.Context, mBits uint64, fill func(insert func(Key) error) error) error {
	return s.migrate(ctx, nil, mBits, fill)
}

// Migrate is a configuration-changing Rotate: it swaps in a freshly built
// generation of a *different* filter configuration (including a different
// Kind — Bloom→Cuckoo or Cuckoo→Bloom) at mBits total bits (0 keeps the
// current size), with the same losslessness contract as Rotate. fill
// repopulates the staged generation; because approximate filters cannot
// enumerate their keys, a kind change needs an external key source — pair
// fill with a key log that writers append to before inserting (what
// perfilter.NewAdaptive maintains) and no acknowledged write is lost. On
// error the filter is unchanged, still serving its previous configuration.
func (s *Sharded) Migrate(ctx context.Context, cfg Config, mBits uint64, fill func(insert func(Key) error) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return s.migrate(ctx, &cfg, mBits, fill)
}

// migrate rebuilds the filter as cfg (nil keeps the current configuration)
// at mBits total bits (0 keeps the current size).
func (s *Sharded) migrate(ctx context.Context, cfg *Config, mBits uint64, fill func(insert func(Key) error) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cfg == nil {
		cfg = &s.cfg
	}
	shards := s.s.NumShards()
	if mBits == 0 {
		mBits = s.perShard * uint64(shards)
	}
	perShard, p := sharded.SplitBits(mBits, shards)
	if perShard == 0 {
		return fmt.Errorf("perfilter: %d bits cannot be split across %d shards", mBits, p)
	}
	if err := s.s.Rotate(ctx, factoryFor(*cfg, perShard), fill); err != nil {
		return err
	}
	s.cfg = *cfg
	s.perShard = perShard
	return nil
}

// Config returns the per-shard filter configuration the wrapper currently
// serves (Migrate changes it).
func (s *Sharded) Config() Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

var _ Filter = (*Sharded)(nil)
