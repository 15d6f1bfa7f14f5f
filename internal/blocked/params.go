package blocked

import (
	"fmt"
	"math/bits"

	"perfilter/internal/fpr"
)

// Params describes a blocked Bloom filter configuration. The zero value is
// invalid; fill every field and check Validate (or use one of the preset
// constructors below).
type Params struct {
	// WordBits is the processor word size the filter is built on: 32 or 64.
	// The paper's SIMD kernels operate on 32-bit lanes; scalar code favors
	// 64-bit words.
	WordBits uint32
	// BlockBits is the block size B in bits. Must be a power of two, a
	// multiple of WordBits, and at most 512 (one cache line).
	BlockBits uint32
	// SectorBits is the sector size S in bits; S must divide B. S == B
	// means no sectorization (plain blocked / register-blocked).
	SectorBits uint32
	// Z is the number of sector groups per block. Z == s (= B/S) means
	// plain sectorization (each sector is its own group, chosen
	// deterministically); 1 < Z < s means cache-sectorization (one sector
	// chosen per group). Z must divide s.
	Z uint32
	// K is the total number of bits set/tested per key, 1..fpr.MaxK.
	// Must be a multiple of Z.
	K uint32
	// Magic selects magic-modulo block addressing; false selects
	// power-of-two addressing (block count rounded up to a power of two).
	Magic bool
}

// Variant labels the blocked Bloom filter sub-family a Params falls into.
type Variant uint8

const (
	// RegisterBlocked: B == WordBits (Listing 2).
	RegisterBlocked Variant = iota
	// PlainBlocked: S == B > WordBits (Listing 1).
	PlainBlocked
	// Sectorized: S < B, one group per sector (Eq. 4).
	Sectorized
	// CacheSectorized: S < B, 1 < Z < s (Eq. 5).
	CacheSectorized
)

func (v Variant) String() string {
	switch v {
	case RegisterBlocked:
		return "register-blocked"
	case PlainBlocked:
		return "blocked"
	case Sectorized:
		return "sectorized"
	case CacheSectorized:
		return "cache-sectorized"
	default:
		return "invalid"
	}
}

// Validate checks all structural constraints from §3 of the paper.
func (p Params) Validate() error {
	if p.WordBits != 32 && p.WordBits != 64 {
		return fmt.Errorf("blocked: word size %d not in {32, 64}", p.WordBits)
	}
	if p.BlockBits < p.WordBits || p.BlockBits > 512 ||
		!isPow2(p.BlockBits) || p.BlockBits%p.WordBits != 0 {
		return fmt.Errorf("blocked: block size %d invalid for word size %d",
			p.BlockBits, p.WordBits)
	}
	if p.SectorBits < 8 || p.SectorBits > p.BlockBits ||
		!isPow2(p.SectorBits) || p.BlockBits%p.SectorBits != 0 {
		return fmt.Errorf("blocked: sector size %d invalid for block size %d",
			p.SectorBits, p.BlockBits)
	}
	s := p.BlockBits / p.SectorBits
	if p.Z == 0 || s%p.Z != 0 {
		return fmt.Errorf("blocked: z=%d must divide sector count %d", p.Z, s)
	}
	if p.Z != s && p.Z == 1 && s > 1 {
		return fmt.Errorf("blocked: z=1 with %d sectors is redundant "+
			"(equivalent to a smaller block size); use Z == sectors or Z > 1", s)
	}
	if p.K == 0 || p.K > fpr.MaxK {
		return fmt.Errorf("blocked: k=%d out of range [1, %d]", p.K, fpr.MaxK)
	}
	if p.K%p.Z != 0 {
		return fmt.Errorf("blocked: k=%d must be a multiple of z=%d", p.K, p.Z)
	}
	return nil
}

// Variant classifies the configuration; Params must be valid.
func (p Params) Variant() Variant {
	s := p.BlockBits / p.SectorBits
	switch {
	case p.BlockBits == p.WordBits && p.SectorBits == p.BlockBits:
		return RegisterBlocked
	case s == 1:
		return PlainBlocked
	case p.Z == s:
		return Sectorized
	default:
		return CacheSectorized
	}
}

// Sectors returns s = B/S.
func (p Params) Sectors() uint32 { return p.BlockBits / p.SectorBits }

// WordsPerBlock returns B/W.
func (p Params) WordsPerBlock() uint32 { return p.BlockBits / p.WordBits }

// WordsAccessed returns how many words one lookup touches: the key quantity
// behind the paper's CPU- vs bandwidth-efficiency trade-off (1 for
// register-blocked, z for cache-sectorized, s for sectorized, up to k for
// plain blocked).
func (p Params) WordsAccessed() uint32 {
	switch p.Variant() {
	case RegisterBlocked:
		return 1
	case PlainBlocked:
		w := p.K
		if max := p.WordsPerBlock(); w > max {
			w = max
		}
		return w
	case Sectorized:
		if p.SectorBits >= p.WordBits {
			return p.Sectors() * (p.SectorBits / p.WordBits)
		}
		// Sub-word sectors share words.
		return p.Sectors() * p.SectorBits / p.WordBits
	default: // CacheSectorized
		words := p.Z * p.SectorBits / p.WordBits
		if words == 0 {
			words = p.Z
		}
		return words
	}
}

// FPR evaluates the matching analytic model (Eq. 3/4/5) for a filter of
// mBits total size holding n keys.
func (p Params) FPR(mBits uint64, n uint64) float64 {
	m := float64(mBits)
	nn := float64(n)
	s := p.Sectors()
	switch {
	case s == 1:
		return fpr.Blocked(m, nn, p.K, p.BlockBits)
	case p.Z == s:
		return fpr.Sectorized(m, nn, p.K, p.BlockBits, p.SectorBits)
	default:
		return fpr.CacheSectorized(m, nn, p.K, p.BlockBits, p.SectorBits, p.Z)
	}
}

// String renders the configuration in the paper's notation.
func (p Params) String() string {
	mod := "pow2"
	if p.Magic {
		mod = "magic"
	}
	switch p.Variant() {
	case RegisterBlocked:
		return fmt.Sprintf("bloom/register[B=%d,k=%d,%s]", p.BlockBits, p.K, mod)
	case PlainBlocked:
		return fmt.Sprintf("bloom/blocked[B=%d,k=%d,%s]", p.BlockBits, p.K, mod)
	case Sectorized:
		return fmt.Sprintf("bloom/sectorized[B=%d,S=%d,k=%d,%s]",
			p.BlockBits, p.SectorBits, p.K, mod)
	default:
		return fmt.Sprintf("bloom/cache-sectorized[B=%d,S=%d,z=%d,k=%d,%s]",
			p.BlockBits, p.SectorBits, p.Z, p.K, mod)
	}
}

// RegisterBlockedParams returns the register-blocked preset (B = W = S).
func RegisterBlockedParams(wordBits, k uint32, useMagic bool) Params {
	return Params{
		WordBits: wordBits, BlockBits: wordBits, SectorBits: wordBits,
		Z: 1, K: k, Magic: useMagic,
	}
}

// PlainBlockedParams returns the classic cache-line blocked preset of Putze
// et al. (S = B).
func PlainBlockedParams(wordBits, blockBits, k uint32, useMagic bool) Params {
	return Params{
		WordBits: wordBits, BlockBits: blockBits, SectorBits: blockBits,
		Z: 1, K: k, Magic: useMagic,
	}
}

// SectorizedParams returns the word-sectorized preset (S = W, z = s).
func SectorizedParams(wordBits, blockBits, k uint32, useMagic bool) Params {
	return Params{
		WordBits: wordBits, BlockBits: blockBits, SectorBits: wordBits,
		Z: blockBits / wordBits, K: k, Magic: useMagic,
	}
}

// CacheSectorizedParams returns the cache-sectorized preset (S = W).
func CacheSectorizedParams(wordBits, blockBits, z, k uint32, useMagic bool) Params {
	return Params{
		WordBits: wordBits, BlockBits: blockBits, SectorBits: wordBits,
		Z: z, K: k, Magic: useMagic,
	}
}

// DefaultParams is the paper's cache-sectorized headline configuration
// (B=512, S=W=64, z=2, k=8, magic addressing). It is the registry's
// default bloom geometry, and batchCacheSectorizedZ2K8 is specialised to it.
func DefaultParams() Params { return CacheSectorizedParams(64, 512, 2, 8, true) }

func isPow2(x uint32) bool { return x != 0 && x&(x-1) == 0 }

func log2u32(x uint32) uint32 { return uint32(bits.Len32(x)) - 1 }
