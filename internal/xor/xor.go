// Package xor implements the xor filter family (Graf & Lemire, "Xor
// Filters: Faster and Smaller Than Bloom and Cuckoo Filters", see
// PAPERS.md): xor8/xor16 and their 3-wise binary-fuse layout variants.
//
// An xor filter stores one w-bit fingerprint per table slot; a key k maps
// to three slots h0(k), h1(k), h2(k) and is a member iff
//
//	fingerprint(k) == T[h0] ^ T[h1] ^ T[h2]
//
// which gives a false-positive rate of 2^-w at ≈1.23·w bits per key (the
// fuse layout tightens the constant to ≈1.13 and confines the three slots
// to three adjacent segments, improving probe locality). The structure is
// build-once: the table is solved by hypergraph peeling from the complete
// key set, and single-key inserts cannot be applied to a solved table.
//
// This package therefore models a filter lifecycle with three phases:
//
//   - building: Insert buffers keys; probes scan the buffer linearly.
//   - sealed (after Seal or Build): probes run the O(1) fingerprint test.
//   - overflow: Insert after Seal parks keys in a side hash set that
//     probes also consult, so the no-false-negative contract survives
//     writers racing a sealed generation (the sharded rotation window).
//     Overflow keys are NOT in the solved table; rebuilding them in is
//     the next migration's job (perfilter's adaptive key log replays
//     them losslessly).
//
// Construction retries peeling with fresh seeds and, every few failures,
// a slightly larger table, so Seal always terminates. Duplicate keys are
// deduplicated before peeling (a duplicated key's three slots could never
// peel).
package xor

import (
	"fmt"
	"math"

	"perfilter/internal/core"
	"perfilter/internal/fpr"
	"perfilter/internal/rng"
)

// Key is the key type shared with the rest of the repository.
type Key = core.Key

// Params selects the family member: fingerprint width (8 or 16 bits) and
// the table layout (three equal blocks for the classic xor layout, or
// consecutive small segments for the binary-fuse layout).
type Params struct {
	// FingerprintBits is the stored fingerprint width w ∈ {8, 16}; the
	// false-positive rate is 2^-w.
	FingerprintBits uint32
	// Fuse selects the 3-wise binary-fuse layout: the three probe slots
	// fall in three consecutive segments instead of three thirds of the
	// table, which lowers the space overhead (≈1.13 vs ≈1.23) and keeps
	// the probe's memory accesses near one another.
	Fuse bool
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.FingerprintBits != 8 && p.FingerprintBits != 16 {
		return fmt.Errorf("xor: fingerprint width %d not in {8, 16}", p.FingerprintBits)
	}
	return nil
}

// String renders the parameters in the family's usual notation.
func (p Params) String() string {
	if p.Fuse {
		return fmt.Sprintf("fuse%d", p.FingerprintBits)
	}
	return fmt.Sprintf("xor%d", p.FingerprintBits)
}

// FPR returns the analytic false-positive rate 2^-w (fpr.Xor). Unlike
// the Bloom and cuckoo models it does not depend on the load: the table
// is solved exactly for its key set. Invalid parameters report 1, the
// same convention as the root Config.FPR.
func (p Params) FPR() float64 {
	if p.Validate() != nil {
		return 1
	}
	return fpr.Xor(p.FingerprintBits)
}

// SpaceFactor is the asymptotic slots-per-key constant of the layout:
// the solved table needs ≈1.23·n slots (xor) or ≈1.13·n (fuse) for
// peeling to succeed with high probability at large n. Small fuse tables
// need more headroom (see spaceFactor), which SizeForKeys accounts for.
func (p Params) SpaceFactor() float64 {
	if p.Fuse {
		return 1.13
	}
	return 1.23
}

// spaceFactor is the n-aware slots-per-key ratio. The segmented fuse
// layout's peeling threshold degrades for small sets; the correction
// follows the binary-fuse paper's sizing rule (max(1.125, 0.875 +
// 0.25·ln(10^6)/ln(n))), so construction rarely needs a growth retry.
func (p Params) spaceFactor(n uint64) float64 {
	if !p.Fuse {
		return 1.23
	}
	if n < 16 {
		return 2 // the constant slack dominates tiny sets anyway
	}
	f := 0.875 + 0.25*math.Log(1e6)/math.Log(float64(n))
	if f < 1.125 {
		f = 1.125
	}
	return f
}

// slotsForKeys returns the table slot count construction starts from for
// n distinct keys: the layout's space factor plus a constant slack that
// keeps tiny sets peelable.
func (p Params) slotsForKeys(n uint64) uint64 {
	slots := uint64(math.Ceil(p.spaceFactor(n)*float64(n))) + 32
	if slots < 3 {
		slots = 3
	}
	return slots
}

// SizeForKeys returns the sealed filter's approximate size in bits for n
// distinct keys — the sizing rule the performance model uses (layout
// rounding adds at most a few percent on top).
func (p Params) SizeForKeys(n uint64) uint64 {
	return p.slotsForKeys(n) * uint64(p.FingerprintBits)
}

// Filter is one xor/fuse filter with the building → sealed → overflow
// lifecycle described in the package comment. It is not internally
// synchronized: like every other filter in this repository, concurrent
// readers are safe on a quiescent filter, and writes (Insert, Seal,
// Reset) need external synchronization — the sharded wrapper's per-shard
// locks provide it on the concurrent paths.
type Filter struct {
	params Params
	tab    table
	sealed bool
	// pending buffers inserts until Seal solves the table from them.
	pending []Key
	// overflow holds keys inserted after Seal: a slice in arrival order
	// (serialization) plus a set for O(1) probes.
	overflow    []Key
	overflowSet map[Key]struct{}
}

// table is the solved (immutable) probe structure.
type table struct {
	seed uint64
	// segLen/segCount describe the layout: for the fuse layout the table
	// is (segCount+2)·segLen slots and a key probes one offset in each of
	// three consecutive segments; for the xor layout segCount == 3 and
	// segLen is the block length (offsets drawn by multiply-shift rather
	// than masking). segLen is a power of two for fuse, arbitrary for xor.
	segLen   uint32
	segCount uint32
	fuse     bool
	n        uint64 // distinct keys solved into the table
	fp8      []uint8
	fp16     []uint16
}

// New returns an empty filter in the building phase. sizeHint, in bits,
// only presizes the insert buffer (the sealed size is determined by the
// key count at Seal time, not by a byte budget); 0 is fine.
func New(p Params, sizeHint uint64) (*Filter, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := &Filter{params: p}
	if perKey := uint64(p.FingerprintBits); sizeHint > 0 {
		hint := sizeHint / (perKey * 2)
		if hint > 1<<24 {
			hint = 1 << 24
		}
		f.pending = make([]Key, 0, hint)
	}
	return f, nil
}

// Build constructs a sealed filter directly from a key slice (duplicates
// allowed; they are deduplicated). The input slice is not retained.
func Build(p Params, keys []Key) (*Filter, error) {
	f, err := New(p, 0)
	if err != nil {
		return nil, err
	}
	f.pending = append(f.pending, keys...)
	if err := f.Seal(); err != nil {
		return nil, err
	}
	return f, nil
}

// Sealed reports whether the table has been solved.
func (f *Filter) Sealed() bool { return f.sealed }

// OverflowLen returns the number of keys parked in the post-seal overflow
// buffer (keys awaiting the next rebuild).
func (f *Filter) OverflowLen() int { return len(f.overflow) }

// Insert adds a key: into the build buffer before Seal, into the overflow
// set after. It never fails — the filter has no load limit, only a
// deferred build. A post-seal insert of a key the table already answers
// for is a no-op: the membership contract is already satisfied, and
// keeping such keys out of overflow preserves the batched kernel's fast
// path (and the overflow buffer's footprint) under re-insert/upsert
// traffic.
func (f *Filter) Insert(key Key) error {
	if !f.sealed {
		f.pending = append(f.pending, key)
		return nil
	}
	if f.tab.contains(key) {
		return nil
	}
	if _, dup := f.overflowSet[key]; dup {
		return nil
	}
	if f.overflowSet == nil {
		f.overflowSet = make(map[Key]struct{}, 8)
	}
	f.overflowSet[key] = struct{}{}
	f.overflow = append(f.overflow, key)
	return nil
}

// InsertBatch adds keys, one Insert per key; it never fails.
func (f *Filter) InsertBatch(keys []Key) (int, error) {
	for _, k := range keys {
		f.Insert(k)
	}
	return len(keys), nil
}

// Seal solves the table from the buffered keys and enters the sealed
// phase. Sealing an already-sealed filter is a no-op (the overflow buffer
// cannot be folded into a solved table; a rebuild from the full key set —
// e.g. the adaptive key log — is the way to absorb it). Construction
// retries peeling across seeds and growing table sizes, so an error is
// effectively impossible; it is surfaced rather than panicking to match
// the repository's constructor conventions.
func (f *Filter) Seal() error {
	if f.sealed {
		return nil
	}
	tab, err := solve(f.params, dedup(f.pending))
	if err != nil {
		return err
	}
	f.tab = tab
	f.pending = nil
	f.sealed = true
	return nil
}

// Contains reports whether key may be in the set. Sealed filters answer
// with the three-slot fingerprint test plus an overflow-set lookup;
// building filters scan the insert buffer (exact, O(pending) — the
// building phase is for construction, not serving).
func (f *Filter) Contains(key Key) bool {
	if f.sealed {
		if f.tab.contains(key) {
			return true
		}
		_, ok := f.overflowSet[key]
		return ok
	}
	for _, k := range f.pending {
		if k == key {
			return true
		}
	}
	return false
}

// SizeBits returns the filter's current footprint: the solved table plus
// 32 bits per buffered (pending or overflow) key.
func (f *Filter) SizeBits() uint64 {
	var bits uint64
	if f.sealed {
		bits = uint64(len(f.tab.fp8))*8 + uint64(len(f.tab.fp16))*16
	}
	return bits + uint64(len(f.pending)+len(f.overflow))*32
}

// Count returns the number of keys the filter answers for: solved keys
// plus buffered ones.
func (f *Filter) Count() uint64 {
	return f.tab.n + uint64(len(f.pending)+len(f.overflow))
}

// FPR returns the analytic false-positive rate (2^-w, independent of n).
func (f *Filter) FPR(n uint64) float64 { return f.params.FPR() }

// Reset returns the filter to the empty building phase.
func (f *Filter) Reset() {
	f.tab = table{}
	f.sealed = false
	f.pending = nil
	f.overflow = nil
	f.overflowSet = nil
}

// String describes the configuration and phase.
func (f *Filter) String() string {
	if !f.sealed {
		return f.params.String() + "[building]"
	}
	return f.params.String()
}

// hashOf mixes a key with the table seed into the 64-bit hash all probe
// math derives from. rng.Mix64 is a full-avalanche permutation, so every
// seed yields an independent hash family — what the peeling retry loop
// relies on.
func hashOf(key Key, seed uint64) uint64 {
	return rng.Mix64(uint64(key) + seed)
}

// reduce maps a 32-bit hash onto [0, n) by multiply-shift (Lemire's
// fastrange), the same reduction the repository's magic-modulo addressing
// builds on.
func reduce(x, n uint32) uint32 {
	return uint32(uint64(x) * uint64(n) >> 32)
}

// positions returns the three probe slots and the fingerprint for a key
// under the given layout. For the fuse layout the slots land at masked
// offsets inside three consecutive segments; for the xor layout each slot
// is multiply-shift-reduced into its own third of the table.
func (t *table) positions(key Key) (h0, h1, h2 uint32, fp uint16) {
	h := hashOf(key, t.seed)
	fp = fingerprint(h)
	r0, r1, r2 := uint32(h), uint32(h>>21), uint32(h>>42|h<<22)
	if t.fuse {
		seg := reduce(uint32(h>>32), t.segCount)
		mask := t.segLen - 1
		h0 = (seg+0)*t.segLen + (r0 & mask)
		h1 = (seg+1)*t.segLen + (r1 & mask)
		h2 = (seg+2)*t.segLen + (r2 & mask)
		return
	}
	h0 = reduce(r0, t.segLen)
	h1 = t.segLen + reduce(r1, t.segLen)
	h2 = 2*t.segLen + reduce(r2, t.segLen)
	return
}

// fingerprint folds the hash into a 16-bit fingerprint; 8-bit tables use
// the low byte. The fold draws on all 64 hash bits so the fingerprint is
// not a simple alias of the position bits.
func fingerprint(h uint64) uint16 {
	return uint16(h ^ (h >> 32) ^ (h >> 48))
}

// contains is the sealed probe: three loads and an xor compare.
func (t *table) contains(key Key) bool {
	if t.n == 0 {
		return false
	}
	h0, h1, h2, fp := t.positions(key)
	if t.fp16 != nil {
		return fp == t.fp16[h0]^t.fp16[h1]^t.fp16[h2]
	}
	return uint8(fp) == t.fp8[h0]^t.fp8[h1]^t.fp8[h2]
}

// dedup returns the distinct keys of the buffer (order unspecified).
func dedup(keys []Key) []Key {
	seen := make(map[Key]struct{}, len(keys))
	out := make([]Key, 0, len(keys))
	for _, k := range keys {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, k)
	}
	return out
}
