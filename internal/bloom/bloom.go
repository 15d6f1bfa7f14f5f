// Package bloom implements the classic (unblocked) Bloom filter of Bloom
// (1970): k hash functions address bits anywhere in the m-bit array.
//
// The classic filter is the paper's precision baseline (Eq. 2) and its cost
// cautionary tale (§2): negative lookups short-circuit on the first unset
// bit (t−l is small), but positive lookups must compute all k hashes and
// touch up to k cache lines (t+l ≫ t−l), and the access pattern defeats the
// SIMD batching that makes blocked filters cheap. The paper found classic
// Bloom filters never performance-optimal; this implementation exists so
// the repository can demonstrate that, and as the precision reference for
// the FPR experiments.
//
// Safe for concurrent readers; inserts require external synchronization.
package bloom

import (
	"fmt"

	"perfilter/internal/core"
	"perfilter/internal/fpr"
	"perfilter/internal/hashing"
	"perfilter/internal/magic"
	"perfilter/internal/mem"
	"perfilter/internal/simd"
)

// Params describes a classic Bloom filter configuration.
type Params struct {
	// K is the number of hash functions, 1..fpr.MaxK.
	K uint32
	// Magic selects magic-modulo bit addressing; false selects
	// power-of-two addressing.
	Magic bool
}

// Validate checks the configuration.
func (p Params) Validate() error {
	if p.K == 0 || p.K > fpr.MaxK {
		return fmt.Errorf("bloom: k=%d out of range [1, %d]", p.K, fpr.MaxK)
	}
	return nil
}

// String renders the configuration.
func (p Params) String() string {
	mod := "pow2"
	if p.Magic {
		mod = "magic"
	}
	return fmt.Sprintf("bloom/classic[k=%d,%s]", p.K, mod)
}

// FPR evaluates Eq. 2.
func (p Params) FPR(mBits, n uint64) float64 {
	return fpr.Std(float64(mBits), float64(n), p.K)
}

// Filter is a classic Bloom filter. Construct with New.
type Filter struct {
	params  Params
	words   []uint64
	mBits   uint32 // actual size in bits (≤ 2^32 − granularity)
	bitMask uint32
	dv      magic.Divider
}

// New builds a filter of the requested size in bits, rounded up to the next
// power of two (power-of-two addressing) or the next class-(ii) magic
// divisor of 64-bit words (magic addressing). Classic filters address
// individual bits with 32-bit hashes, so sizes are limited to 2^31 bits
// (256 MiB) — beyond every classic-Bloom configuration the paper evaluates.
func New(p Params, mBits uint64) (*Filter, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if mBits == 0 {
		return nil, fmt.Errorf("bloom: size must be positive")
	}
	if mBits > 1<<31 {
		return nil, fmt.Errorf("bloom: classic filter size %d exceeds 2^31 bits", mBits)
	}
	f := &Filter{params: p}
	if p.Magic {
		// The divider addresses individual bits; the word array is sized
		// to cover the rounded bit count.
		f.dv = magic.Next(uint32(mBits))
		f.mBits = f.dv.D()
	} else {
		pow := uint64(1)
		for pow < mBits {
			pow <<= 1
		}
		f.mBits = uint32(pow)
		f.bitMask = uint32(pow) - 1
	}
	f.words = mem.Make[uint64](int((uint64(f.mBits) + 63) / 64))
	return f, nil
}

// bitPos consumes 32 hash bits and maps them to a bit position.
func (f *Filter) bitPos(s *hashing.Sink) uint32 {
	h := s.Next(32)
	if f.params.Magic {
		return f.dv.Mod(h)
	}
	return h & f.bitMask
}

// Insert adds a key, setting k bits anywhere in the array (up to k cache
// lines touched — the classic filter's bandwidth cost). It never fails.
func (f *Filter) Insert(key core.Key) error {
	s := hashing.NewSink(key)
	for i := uint32(0); i < f.params.K; i++ {
		pos := f.bitPos(&s)
		f.words[pos>>6] |= 1 << (pos & 63)
	}
	return nil
}

// InsertBatch adds keys, one Insert per key; it never fails.
func (f *Filter) InsertBatch(keys []core.Key) (int, error) {
	for _, k := range keys {
		f.Insert(k)
	}
	return len(keys), nil
}

// Contains reports whether key may be in the set. Negative probes
// short-circuit on the first unset bit: the t−l ≪ t+l asymmetry of §2.
func (f *Filter) Contains(key core.Key) bool {
	s := hashing.NewSink(key)
	for i := uint32(0); i < f.params.K; i++ {
		pos := f.bitPos(&s)
		if f.words[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}

// ContainsBatch appends matching positions to sel. Classic Bloom filters
// resist lane-parallel batching (each key needs a variable number of
// dependent probes — §7 discusses the refill problem of SIMD attempts), so
// the batch path is the scalar loop with branch-free selection writes.
func (f *Filter) ContainsBatch(keys []core.Key, sel core.SelVec) core.SelVec {
	buf, cnt := simd.GrowSel(sel, len(keys))
	for i, key := range keys {
		buf[cnt] = uint32(i)
		cnt += simd.B2I(f.Contains(key))
	}
	return buf[:cnt]
}

// SizeBits returns the actual size in bits.
func (f *Filter) SizeBits() uint64 { return uint64(f.mBits) }

// Params returns the configuration.
func (f *Filter) Params() Params { return f.params }

// String renders the configuration in the paper's notation.
func (f *Filter) String() string { return f.params.String() }

// FPR returns the analytic false-positive rate with n keys inserted.
func (f *Filter) FPR(n uint64) float64 { return f.params.FPR(f.SizeBits(), n) }

// Reset clears the filter.
func (f *Filter) Reset() { clear(f.words) }
