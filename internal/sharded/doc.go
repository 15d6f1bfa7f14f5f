// Package sharded partitions any batched filter across P hash-selected
// shards so that inserts scale with cores instead of serializing on one
// lock, while batched lookups keep the paper's selection-vector contract.
//
// The paper's cost model ρ(F) = tl(F) + f(F)·tw treats the filter as a
// single-threaded object; every kernel in this repository is safe for
// concurrent readers but requires external synchronization for writes. In
// a service with many concurrent writers (the filter server's batch
// plane), a single writer lock caps insert throughput at one core. This
// package restores multi-core scaling the standard way high-throughput
// hash structures do:
//
//   - Partitioning. Each key is assigned to one of P shards (P a power of
//     two) by the top bits of an independent multiplicative hash — a
//     different odd constant than the filters consume internally, so shard
//     selection does not bias the bits a shard's kernel uses and each
//     shard's false-positive behaviour matches a standalone filter of the
//     same size.
//   - Per-shard locks. Every shard pairs its filter with a sync.RWMutex.
//     Writers contend only 1/P of the time; readers proceed in parallel.
//   - Scatter/gather batches. ContainsBatch and InsertBatch partition the
//     batch by shard with the same counting-sort pass and run each
//     shard's keys under its lock — in parallel for large batches.
//     insertRun hands a shard's whole run to the shard's own InsertBatch
//     in one call, so a kind with a batch insert kernel (blocked Bloom's
//     default geometry) overlaps the run's cache misses under the lock.
//     ContainsBatch merges per-shard hits back into one
//     position-preserving, ascending selection vector: byte-identical to
//     probing the same P filters sequentially, and to the scalar Contains
//     path.
//   - Generation rotation. The shard array lives behind an
//     atomic.Pointer. Rotate builds a complete replacement generation off
//     to the side (optionally pre-filled by the caller while readers keep
//     hitting the old generation) and swaps it in with one atomic store,
//     so a filter can be resized or rebuilt under live traffic with no
//     stop-the-world pause.
//   - Lossless writes across rotations. While a rotation is staging, a
//     second atomic pointer publishes the staging generation as a
//     dual-write target; writers (Insert and InsertBatch share one
//     protocol) re-check it and then the current generation after every
//     insert as their final step, so a write that observes the rotation
//     survives the swap instead of vanishing with the retiring
//     generation, and a write that predates it is the rotation fill's to
//     replay (see Rotate for the key-log recipe that makes the
//     combination airtight).
//   - Snapshots. Snapshot serializes every shard (under the rotation
//     lock) through a caller-supplied codec and Restore rebuilds the
//     filter, which is how the filter server persists across restarts.
//   - Build-once shards. A staged shard implementing Sealer (the
//     xor/fuse family) is sealed — its buffered fill keys solved into a
//     probe table — after the rotation's fill completes and before the
//     swap, under the shard's write lock; dual-writes racing the seal
//     take the shard's overflow path, so the no-false-negative contract
//     survives the window.
//
// The package is generic over Inner (core.Filter) rather than depending on
// the root perfilter package (which would be an import cycle);
// perfilter.NewSharded wires the two together, and internal/bench reuses
// the same wrapper for the parallel-throughput experiments.
package sharded
