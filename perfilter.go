// Package perfilter is a Go implementation of performance-optimal
// filtering (Lang, Neumann, Kemper, Boncz: "Performance-Optimal Filtering:
// Bloom Overtakes Cuckoo at High Throughput", PVLDB 12(5), 2019).
//
// It provides the paper's filter family — classic, blocked,
// register-blocked, sectorized and cache-sectorized Bloom filters, cuckoo
// filters with partial-key cuckoo hashing, and an exact hash set — behind a
// single batched interface, together with the performance model that picks
// the configuration minimizing the filtering overhead
//
//	ρ(F) = tl(F) + f(F)·tw
//
// for a concrete workload (problem size n, work saved per pruned probe tw,
// true-hit rate σ, memory budget).
//
// Quick start:
//
//	f, _ := perfilter.NewCacheSectorizedBloom(8, 2, n*16)
//	for _, k := range buildKeys {
//		f.Insert(k)
//	}
//	sel := f.ContainsBatch(probeKeys, nil) // positions that may match
//
// Or let the model choose:
//
//	advice, _ := perfilter.Advise(perfilter.Workload{
//		N: 1e6, Tw: 200, Sigma: 0.1, BitsPerKeyBudget: 16,
//	})
//	f, _ := perfilter.New(advice.Config, advice.MBits)
//
// All sizes are given and reported in bits; constructors round up to each
// structure's addressing granularity (powers of two, or "magic modulo"
// sizes within 0.014% of the request). Filters are safe for concurrent
// readers; writes need external synchronization — or use NewSharded,
// which partitions any configuration across per-shard locks for
// multi-core writers, scatter/gather batch probes, and atomic generation
// rotation (see Sharded).
package perfilter

import (
	"fmt"

	"perfilter/internal/blocked"
	"perfilter/internal/bloom"
	"perfilter/internal/core"
	"perfilter/internal/cuckoo"
	"perfilter/internal/exact"
	"perfilter/internal/hashing"
	"perfilter/internal/model"
	"perfilter/internal/xor"
)

// Key is the key type: 32-bit integers, as in the paper's evaluation.
// Hash wider keys down to 32 bits before insertion (Hash64, HashString).
type Key = uint32

// Hash64 folds a 64-bit key into the 32-bit key space the filters operate
// on, preserving entropy from both halves. Collisions at 32 bits are part
// of the filter's false-positive budget.
func Hash64(key uint64) Key {
	return hashing.Fold64(key * hashing.Golden64)
}

// HashString hashes an arbitrary byte string into the 32-bit key space
// (FNV-1a folded through the multiplicative finalizer).
func HashString(s string) Key {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return Hash64(h)
}

// ErrFull is returned by Insert when a cuckoo filter cannot place a key.
// Bloom filters never return it.
var ErrFull = cuckoo.ErrFull

// Filter is the unified filter interface (§5 of the paper): scalar and
// batched inserts and membership tests, with the batched probe producing
// a selection vector of matching positions. Insert and InsertBatch fail
// only for cuckoo filters (ErrFull); InsertBatch stops at the first
// failure and reports how many keys it inserted.
type Filter = core.Filter

// Kind selects a filter family.
type Kind uint8

const (
	// BlockedBloom covers register-blocked, plain blocked, sectorized and
	// cache-sectorized Bloom filters, distinguished by Config geometry.
	BlockedBloom Kind = iota
	// ClassicBloom is the unblocked Bloom filter baseline.
	ClassicBloom
	// Cuckoo is the cuckoo filter (supports Delete; see CuckooFilter).
	Cuckoo
	// Exact is a Robin Hood hash set: no false positives, ~64+ bits/key.
	Exact
	// Xor is the immutable xor/fuse filter family (Graf & Lemire):
	// 2^-w FPR at ≈1.23·w bits/key (≈1.13·w fuse), solved by peeling from
	// the complete key set. Filters of this kind build in phases — buffer
	// inserts, Seal, then serve — and absorb post-seal writes in a side
	// buffer until the next rebuild; see XorFilter.
	Xor
)

// String returns the canonical kind name from the model's kind-spec table
// (the public and model Kind spaces are numerically identical).
func (k Kind) String() string { return model.Kind(k).String() }

// Config describes a filter configuration in the paper's parameter space.
// Zero-valued fields that don't apply to the Kind are ignored.
type Config struct {
	Kind Kind

	// Bloom geometry (BlockedBloom): word size W ∈ {32,64}, block size
	// B ∈ {32..512} bits, sector size S | B, sector groups Z, hash count K.
	// See internal/blocked for the variant semantics.
	WordBits   uint32
	BlockBits  uint32
	SectorBits uint32
	Groups     uint32
	K          uint32 // also used by ClassicBloom

	// Cuckoo geometry: signature bits l ∈ {4,8,12,16,32} and bucket size
	// b ∈ {1,2,4,8}.
	TagBits    uint32
	BucketSize uint32

	// Xor geometry: fingerprint width w ∈ {8,16} and the binary-fuse
	// layout flag.
	FingerprintBits uint32
	Fuse            bool

	// Magic selects magic-modulo addressing (near-arbitrary sizes) over
	// power-of-two addressing.
	Magic bool
}

// toModel converts to the internal model configuration.
func (c Config) toModel() (model.Config, error) {
	switch c.Kind {
	case BlockedBloom:
		p := blocked.Params{
			WordBits: c.WordBits, BlockBits: c.BlockBits,
			SectorBits: c.SectorBits, Z: c.Groups, K: c.K, Magic: c.Magic,
		}
		return model.Config{Kind: model.KindBlockedBloom, Bloom: p}, p.Validate()
	case ClassicBloom:
		p := bloom.Params{K: c.K, Magic: c.Magic}
		return model.Config{Kind: model.KindClassicBloom, Classic: p}, p.Validate()
	case Cuckoo:
		p := cuckoo.Params{TagBits: c.TagBits, BucketSize: c.BucketSize, Magic: c.Magic}
		return model.Config{Kind: model.KindCuckoo, Cuckoo: p}, p.Validate()
	case Xor:
		p := xor.Params{FingerprintBits: c.FingerprintBits, Fuse: c.Fuse}
		return model.Config{Kind: model.KindXor, Xor: p}, p.Validate()
	case Exact:
		return model.Config{Kind: model.KindExact}, nil
	default:
		return model.Config{}, fmt.Errorf("perfilter: invalid kind %d", c.Kind)
	}
}

// fromModel converts an internal model configuration to the public form.
func fromModel(mc model.Config) Config {
	switch mc.Kind {
	case model.KindBlockedBloom:
		return Config{
			Kind: BlockedBloom, WordBits: mc.Bloom.WordBits,
			BlockBits: mc.Bloom.BlockBits, SectorBits: mc.Bloom.SectorBits,
			Groups: mc.Bloom.Z, K: mc.Bloom.K, Magic: mc.Bloom.Magic,
		}
	case model.KindClassicBloom:
		return Config{Kind: ClassicBloom, K: mc.Classic.K, Magic: mc.Classic.Magic}
	case model.KindCuckoo:
		return Config{
			Kind: Cuckoo, TagBits: mc.Cuckoo.TagBits,
			BucketSize: mc.Cuckoo.BucketSize, Magic: mc.Cuckoo.Magic,
		}
	case model.KindXor:
		return Config{
			Kind: Xor, FingerprintBits: mc.Xor.FingerprintBits,
			Fuse: mc.Xor.Fuse,
		}
	default:
		return Config{Kind: Exact}
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	_, err := c.toModel()
	return err
}

// String renders the configuration in the paper's notation.
func (c Config) String() string {
	mc, err := c.toModel()
	if err != nil {
		return fmt.Sprintf("invalid(%v)", err)
	}
	return mc.String()
}

// FPR evaluates the configuration's analytic false-positive model at the
// given size and key count without building a filter.
func (c Config) FPR(mBits, n uint64) float64 {
	mc, err := c.toModel()
	if err != nil {
		return 1
	}
	return mc.FPR(mBits, n)
}

// New builds a filter of (at least) mBits for the configuration. For
// Exact, mBits is interpreted as a capacity hint in keys when below 2^16,
// else as bits (64 bits per slot).
func New(c Config, mBits uint64) (Filter, error) {
	mc, err := c.toModel()
	if err != nil {
		return nil, err
	}
	return newFilter(mc, mBits, false)
}

// NewRegisterBlockedBloom returns a register-blocked Bloom filter
// (B = W = 64 bits) with k hash bits — the cheapest-lookup filter in the
// paper, optimal at very small tw.
func NewRegisterBlockedBloom(k uint32, mBits uint64) (Filter, error) {
	return New(Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 64,
		SectorBits: 64, Groups: 1, K: k, Magic: true}, mBits)
}

// NewBlockedBloom returns a cache-line blocked Bloom filter (Putze et al.):
// B = 512 bits, no sectorization.
func NewBlockedBloom(k uint32, mBits uint64) (Filter, error) {
	return New(Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
		SectorBits: 512, Groups: 1, K: k, Magic: true}, mBits)
}

// NewSectorizedBloom returns a word-sectorized blocked Bloom filter:
// B = 512, S = 64, k spread over all 8 sectors (k must be a multiple of 8).
func NewSectorizedBloom(k uint32, mBits uint64) (Filter, error) {
	return New(Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
		SectorBits: 64, Groups: 8, K: k, Magic: true}, mBits)
}

// NewCacheSectorizedBloom returns the paper's new cache-sectorized variant:
// B = 512, S = 64, z groups (k must be a multiple of z). The headline
// configuration is k=8, z=2.
func NewCacheSectorizedBloom(k, z uint32, mBits uint64) (Filter, error) {
	return New(Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
		SectorBits: 64, Groups: z, K: k, Magic: true}, mBits)
}

// NewClassicBloom returns the classic (unblocked) Bloom filter.
func NewClassicBloom(k uint32, mBits uint64) (Filter, error) {
	return New(Config{Kind: ClassicBloom, K: k, Magic: true}, mBits)
}

// NewCuckoo returns a cuckoo filter with the given signature length and
// bucket size. Use CuckooSizeForKeys to pick mBits for a planned key count.
func NewCuckoo(tagBits, bucketSize uint32, mBits uint64) (*CuckooFilter, error) {
	return cuckoo.New(cuckoo.Params{TagBits: tagBits, BucketSize: bucketSize, Magic: true}, mBits)
}

// CuckooSizeForKeys returns a size (bits) that fits n keys within the
// practical load limit for the bucket size.
func CuckooSizeForKeys(tagBits, bucketSize uint32, n uint64) uint64 {
	return cuckoo.Params{TagBits: tagBits, BucketSize: bucketSize}.SizeForKeys(n)
}

// NewExact returns an exact filter (Robin Hood hash set) for about
// n keys; it can grow beyond that.
func NewExact(n int) Filter {
	return exact.New(n)
}

// BuildXor constructs a sealed xor/fuse filter directly from a key slice
// (duplicates are deduplicated) — the natural entry point for the
// family's build-once contract. fingerprintBits selects w ∈ {8,16}
// (FPR 2^-w); fuse selects the binary-fuse layout (≈1.13·w instead of
// ≈1.23·w bits/key, better probe locality).
func BuildXor(keys []Key, fingerprintBits uint32, fuse bool) (*XorFilter, error) {
	return xor.Build(xor.Params{FingerprintBits: fingerprintBits, Fuse: fuse}, keys)
}

// CuckooFilter is the Filter implementation for cuckoo filters, exposing
// the family's extra capabilities: deletion (Delete removes one
// occurrence of a key — only delete keys that were inserted; deleting
// arbitrary keys can evict a colliding key's signature), duplicate (bag)
// support, LoadFactor and Count. Insert and InsertBatch can return
// ErrFull.
type CuckooFilter = cuckoo.Filter

// XorFilter is the Filter implementation for the immutable xor/fuse
// family, exposing its build-once lifecycle: inserts buffer until Seal
// solves the fingerprint table, and inserts after Seal park in an
// overflow set that probes also consult (so the no-false-negative
// contract holds for writers racing a sealed generation). Sharded
// rotations seal staged xor shards automatically after their fill
// completes; standalone users populate via New + Insert + Seal, or build
// in one step with BuildXor. Folding overflow keys into the table takes a
// rebuild from the full key set — the adaptive wrapper's key-log
// migration does exactly that. KindMutable(Xor) is false, so the adaptive
// control loop migrates back to a mutable family when writes resume. The
// table is sized by key count, so there is no magic addressing.
type XorFilter = xor.Filter

// compile-time interface checks
var (
	_ Filter           = (*bloom.Filter)(nil)
	_ Filter           = (*CuckooFilter)(nil)
	_ Filter           = (*XorFilter)(nil)
	_ Filter           = (*exact.Set)(nil)
	_ core.BatchProber = (Filter)(nil)
)
