// Package core holds the small set of types shared by every filter kernel:
// the key type, selection vectors, the batched-lookup contract and the
// filter contract.
//
// The paper's unified filter interface takes an entire list of keys at once
// and produces a position list ("selection vector") of 32-bit integers
// identifying the keys that may be contained (§5). All filters in this
// repository implement that contract.
package core

// Key is the key type used throughout the reproduction. The paper's
// evaluation uses uniformly distributed random 32-bit integers generated
// with a Mersenne Twister; we keep 32-bit keys as the canonical type and
// widen to 64 bits inside the hashing substrate.
type Key = uint32

// SelVec is a selection vector: a list of positions (indexes into a probed
// key batch) for which the filter reported a possible match. Positions are
// 32-bit as in the paper's implementation.
type SelVec = []uint32

// BatchProber is the batched lookup contract shared by all filters.
//
// ContainsBatch appends to sel the positions i (0-based within keys) for
// which keys[i] may be in the set, and returns the extended slice. It must
// behave exactly like calling a scalar Contains per key; property tests
// enforce this equivalence for every kernel.
type BatchProber interface {
	ContainsBatch(keys []Key, sel SelVec) SelVec
}

// Filter is the unified filter contract every kind implements, declared
// once here so the root package, the kernels and the sharded
// wrapper share it without importing each other.
type Filter interface {
	// Insert adds a key. Only cuckoo filters can fail.
	Insert(key Key) error
	// InsertBatch adds keys and returns how many were inserted, stopping
	// at the first error. A single filter inserts in input order, so on
	// error exactly keys[:n] are in it; a sharded filter inserts shard by
	// shard, so its n keys need not be a prefix. The filter ends up
	// exactly as if Insert had been called per key — batch kernels only
	// overlap the keys' memory accesses — and the call allocates nothing
	// beyond what those Inserts would.
	InsertBatch(keys []Key) (int, error)
	// Contains reports whether key may be in the set. Inserted keys are
	// always reported (no false negatives).
	Contains(key Key) bool
	// ContainsBatch is the BatchProber contract.
	ContainsBatch(keys []Key, sel SelVec) SelVec
	// SizeBits is the actual size in bits after rounding.
	SizeBits() uint64
	// FPR is the analytic expected false-positive rate with n keys stored.
	FPR(n uint64) float64
	// Reset clears the filter for reuse.
	Reset()
	// String describes the configuration.
	String() string
}

// DefaultBatch is the batch size used by the vectorized pipelines. 1024 keys
// of 4 bytes fit comfortably in L1 alongside a selection vector, mirroring
// vector-at-a-time query processing.
const DefaultBatch = 1024
