// Package cuckoo implements the Cuckoo filter of Fan et al. (§4 of the
// paper): a cuckoo hash table of l-bit key signatures ("tags") with b slots
// per bucket and partial-key cuckoo hashing for relocation.
//
// Two addressing modes are provided. With power-of-two bucket counts the
// alternate bucket is the classic XOR form (Eq. 6/7):
//
//	i2 = i1 ⊕ hash(sig)
//
// With magic-modulo bucket counts XOR is no longer self-inverse, so the
// filter uses the paper's replacement (Eq. 11), the negated-sum form
//
//	i2 = −(i1 + hash(sig)) mod C
//
// which is self-inverse for any C (TestAltIndexInvolution verifies it).
//
// Tags are stored packed at their exact bit width, so SizeBits reflects the
// true m = C·b·l the paper's space accounting uses.
//
// Both batch kernels work on groups of 16 keys and hash the whole group
// before touching the table, so the group's cache misses overlap (the
// paper's §5 batched interface). ContainsBatch then tests both candidate
// buckets of every key with one branch-free SWAR comparison each when a
// bucket fits in a 64-bit word, mirroring the paper's SIMD bucket probes.
// InsertBatch loads both candidate bucket words of every key in the group,
// then places the keys in input order through the same code path as
// Insert, so the table bytes and kick draws equal those of an Insert loop.
//
// Like the reference implementation, a single victim slot holds the last
// evicted tag when an insert fails to place after the kick limit, keeping
// the no-false-negative guarantee; the filter reports ErrFull only when the
// victim slot is occupied too.
//
// Filters are safe for concurrent readers; writes need external
// synchronization.
package cuckoo

import (
	"errors"
	"fmt"
	"math/bits"

	"perfilter/internal/core"
	"perfilter/internal/fpr"
	"perfilter/internal/hashing"
	"perfilter/internal/magic"
	"perfilter/internal/mem"
	"perfilter/internal/rng"
)

// ErrFull is returned by Insert when a tag cannot be placed and the victim
// slot is already occupied. The filter remains queryable for everything
// previously inserted.
var ErrFull = errors.New("cuckoo: filter is full")

// MaxKicks bounds the relocation chain per insert, as in the reference
// implementation.
const MaxKicks = 500

// Params describes a cuckoo filter configuration.
type Params struct {
	// TagBits is the signature length l in bits: 4, 8, 12, 16 or 32.
	TagBits uint32
	// BucketSize is the number of slots b per bucket: 1, 2, 4 or 8.
	BucketSize uint32
	// Magic selects magic-modulo bucket addressing; false selects
	// power-of-two addressing.
	Magic bool
}

// Validate checks the configuration against the space the paper explores.
func (p Params) Validate() error {
	switch p.TagBits {
	case 4, 8, 12, 16, 32:
	default:
		return fmt.Errorf("cuckoo: tag bits %d not in {4,8,12,16,32}", p.TagBits)
	}
	switch p.BucketSize {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("cuckoo: bucket size %d not in {1,2,4,8}", p.BucketSize)
	}
	return nil
}

// String renders the configuration in the paper's notation.
func (p Params) String() string {
	mod := "pow2"
	if p.Magic {
		mod = "magic"
	}
	return fmt.Sprintf("cuckoo[l=%d,b=%d,%s]", p.TagBits, p.BucketSize, mod)
}

// FPR evaluates Eq. 8 for a filter of mBits total size holding n keys.
func (p Params) FPR(mBits, n uint64) float64 {
	return fpr.CuckooFromSize(float64(mBits), float64(n), p.TagBits, p.BucketSize)
}

// SizeForKeys returns a filter size in bits that accommodates n keys within
// the practical load limit for the bucket size (§4: ~50%, 84%, 95%, 98% for
// b = 1, 2, 4, 8).
func (p Params) SizeForKeys(n uint64) uint64 {
	maxLoad := fpr.CuckooMaxLoad(p.BucketSize)
	slots := uint64(float64(n)/maxLoad) + 1
	buckets := (slots + uint64(p.BucketSize) - 1) / uint64(p.BucketSize)
	return buckets * uint64(p.BucketSize) * uint64(p.TagBits)
}

// Filter is a cuckoo filter. Construct with New.
type Filter struct {
	params     Params
	words      []uint64 // packed tags, bucket-major
	numBuckets uint32
	bucketMask uint32        // pow2 addressing
	dv         magic.Divider // magic addressing

	tagMask    uint32
	bucketBits uint32 // b·l
	count      uint64 // currently stored tags (including victim)

	victim    uint32 // evicted tag waiting for a slot
	victimIdx uint32 // one of its candidate buckets
	hasVictim bool

	kickRNG rng.SplitMix64

	// gathered absorbs the bucket words InsertBatch loads ahead of
	// placement, so the compiler keeps those loads; nothing reads it.
	gathered uint64
}

// New builds a filter of the requested size in bits, rounded up to whole
// buckets and then to the addressing granularity (next power of two or next
// class-(ii) magic divisor).
func New(p Params, mBits uint64) (*Filter, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if mBits == 0 {
		return nil, fmt.Errorf("cuckoo: size must be positive")
	}
	f := &Filter{params: p}
	f.tagMask = uint32(1)<<p.TagBits - 1
	if p.TagBits == 32 {
		f.tagMask = 0xFFFFFFFF
	}
	f.bucketBits = p.TagBits * p.BucketSize
	buckets := (mBits + uint64(f.bucketBits) - 1) / uint64(f.bucketBits)
	if buckets == 0 {
		buckets = 1
	}
	if p.Magic {
		if buckets > 0xFFFFFFFF {
			return nil, fmt.Errorf("cuckoo: %d buckets exceed 2^32", buckets)
		}
		f.dv = magic.Next(uint32(buckets))
		f.numBuckets = f.dv.D()
	} else {
		pow := nextPow2u64(buckets)
		if pow >= 1<<32 {
			return nil, fmt.Errorf("cuckoo: %d buckets exceed addressing range", pow)
		}
		f.numBuckets = uint32(pow)
		f.bucketMask = uint32(pow) - 1
	}
	totalBits := uint64(f.numBuckets) * uint64(f.bucketBits)
	f.words = mem.Make[uint64](int((totalBits+63)/64 + 1)) // +1: straddle-free tail reads
	f.kickRNG = *rng.NewSplitMix64(kickSeed)
	return f, nil
}

// kickSeed seeds the kick-loop RNG; New and Reset must use the same seed
// so a reset filter is byte-for-byte equivalent to a fresh one under
// identical inserts.
const kickSeed = 0x6B756B6F6F6B6375

// tagAndIndex hashes a key into its signature and primary bucket index.
// The signature is drawn from hash bits after the index so the two are
// independent; a zero signature (reserved for empty slots) is remapped to 1,
// as in the reference implementation.
func (f *Filter) tagAndIndex(key core.Key) (tag, i1 uint32) {
	sink := hashing.NewSink(key)
	h := sink.Next(32)
	tag = sink.Next(f.params.TagBits) & f.tagMask
	if tag == 0 {
		tag = 1
	}
	if f.params.Magic {
		i1 = f.dv.Mod(h)
	} else {
		i1 = h & f.bucketMask
	}
	return tag, i1
}

// altIndex returns the other candidate bucket for a tag (Eq. 7 / Eq. 11).
// It is an involution: altIndex(altIndex(i, tag), tag) == i.
func (f *Filter) altIndex(i, tag uint32) uint32 {
	h := hashing.TagHash(tag)
	if !f.params.Magic {
		return (i ^ h) & f.bucketMask
	}
	hm := f.dv.Mod(h)
	y := i + hm
	if y >= f.numBuckets {
		y -= f.numBuckets
	}
	if y == 0 {
		return 0
	}
	return f.numBuckets - y
}

// slotBit returns the starting bit offset of a bucket slot.
func (f *Filter) slotBit(bucket, slot uint32) uint64 {
	return uint64(bucket)*uint64(f.bucketBits) + uint64(slot)*uint64(f.params.TagBits)
}

// getTag reads the tag stored in (bucket, slot); 0 means empty.
func (f *Filter) getTag(bucket, slot uint32) uint32 {
	bit := f.slotBit(bucket, slot)
	w, off := bit>>6, bit&63
	v := f.words[w] >> off
	if off+uint64(f.params.TagBits) > 64 {
		v |= f.words[w+1] << (64 - off)
	}
	return uint32(v) & f.tagMask
}

// setTag stores a tag into (bucket, slot).
func (f *Filter) setTag(bucket, slot, tag uint32) {
	bit := f.slotBit(bucket, slot)
	w, off := bit>>6, bit&63
	mask := uint64(f.tagMask) << off
	f.words[w] = f.words[w]&^mask | uint64(tag)<<off
	if off+uint64(f.params.TagBits) > 64 {
		rem := 64 - off
		mask2 := uint64(f.tagMask) >> rem
		f.words[w+1] = f.words[w+1]&^mask2 | uint64(tag)>>rem
	}
}

// insertIntoBucket places the tag in the first empty slot, reporting success.
func (f *Filter) insertIntoBucket(bucket, tag uint32) bool {
	for s := uint32(0); s < f.params.BucketSize; s++ {
		if f.getTag(bucket, s) == 0 {
			f.setTag(bucket, s, tag)
			return true
		}
	}
	return false
}

// Insert adds a key. Duplicate keys may be inserted (bag semantics) as long
// as slots are available. Returns ErrFull when the tag cannot be placed and
// the victim slot is occupied; the filter still answers Contains correctly
// for every successfully inserted key.
func (f *Filter) Insert(key core.Key) error {
	tag, i1 := f.tagAndIndex(key)
	return f.place(tag, i1)
}

// place stores a tag whose primary bucket is i1 and is the one placement
// path behind Insert and InsertBatch: the first empty slot of i1, then of
// its alternate bucket i2, then the kick loop, then the victim slot.
func (f *Filter) place(tag, i1 uint32) error {
	if f.insertIntoBucket(i1, tag) {
		f.count++
		return nil
	}
	i2 := f.altIndex(i1, tag)
	if f.insertIntoBucket(i2, tag) {
		f.count++
		return nil
	}
	// The kick loop displaces existing tags; if its end state (a homeless
	// tag) has nowhere to go it must be parked in the victim slot. With the
	// victim slot already occupied, refuse *before* mutating the table so no
	// inserted key is ever lost (the reference implementation does the same).
	if f.hasVictim {
		return ErrFull
	}
	// Kick loop: evict a random occupant and chase it to its alternate
	// bucket, up to MaxKicks relocations.
	cur := i1
	if f.kickRNG.Uint32n(2) == 1 {
		cur = i2
	}
	for kick := 0; kick < MaxKicks; kick++ {
		slot := f.kickRNG.Uint32n(f.params.BucketSize)
		evicted := f.getTag(cur, slot)
		f.setTag(cur, slot, tag)
		tag = evicted
		cur = f.altIndex(cur, tag)
		if f.insertIntoBucket(cur, tag) {
			f.count++
			return nil
		}
	}
	f.victim, f.victimIdx, f.hasVictim = tag, cur, true
	f.count++
	return nil
}

// Contains reports whether key may be in the set (no false negatives for
// successfully inserted keys).
func (f *Filter) Contains(key core.Key) bool {
	tag, i1 := f.tagAndIndex(key)
	if f.bucketHasTag(i1, tag) {
		return true
	}
	i2 := f.altIndex(i1, tag)
	if f.bucketHasTag(i2, tag) {
		return true
	}
	if f.hasVictim && f.victim == tag {
		// The victim belongs to a specific bucket pair; match it.
		if f.victimIdx == i1 || f.victimIdx == i2 {
			return true
		}
	}
	return false
}

// bucketHasTag scans one bucket for the tag (scalar slot walk; the batch
// kernels use SWAR instead).
func (f *Filter) bucketHasTag(bucket, tag uint32) bool {
	for s := uint32(0); s < f.params.BucketSize; s++ {
		if f.getTag(bucket, s) == tag {
			return true
		}
	}
	return false
}

// Delete removes one occurrence of key's signature from its bucket pair,
// returning whether anything was removed. Deleting a key that was never
// inserted can (rarely) remove a colliding key's tag — the documented
// cuckoo-filter caveat; callers must only delete keys they inserted.
func (f *Filter) Delete(key core.Key) bool {
	tag, i1 := f.tagAndIndex(key)
	i2 := f.altIndex(i1, tag)
	for _, b := range [2]uint32{i1, i2} {
		for s := uint32(0); s < f.params.BucketSize; s++ {
			if f.getTag(b, s) == tag {
				f.setTag(b, s, 0)
				f.count--
				f.reinsertVictim()
				return true
			}
		}
	}
	if f.hasVictim && f.victim == tag && (f.victimIdx == i1 || f.victimIdx == i2) {
		f.hasVictim = false
		f.count--
		return true
	}
	return false
}

// reinsertVictim tries to place a parked victim after a deletion freed a
// slot, as the reference implementation does.
func (f *Filter) reinsertVictim() {
	if !f.hasVictim {
		return
	}
	tag, idx := f.victim, f.victimIdx
	if f.insertIntoBucket(idx, tag) || f.insertIntoBucket(f.altIndex(idx, tag), tag) {
		f.hasVictim = false
	}
}

// SizeBits returns the actual filter size in bits (C·b·l).
func (f *Filter) SizeBits() uint64 {
	return uint64(f.numBuckets) * uint64(f.bucketBits)
}

// NumBuckets returns the bucket count C.
func (f *Filter) NumBuckets() uint32 { return f.numBuckets }

// Count returns the number of stored tags.
func (f *Filter) Count() uint64 { return f.count }

// LoadFactor returns count / (C·b).
func (f *Filter) LoadFactor() float64 {
	return float64(f.count) / (float64(f.numBuckets) * float64(f.params.BucketSize))
}

// Params returns the configuration.
func (f *Filter) Params() Params { return f.params }

// String renders the configuration in the paper's notation.
func (f *Filter) String() string { return f.params.String() }

// FPR returns the analytic false-positive rate (Eq. 8) with n keys stored.
func (f *Filter) FPR(n uint64) float64 { return f.params.FPR(f.SizeBits(), n) }

// Reset clears the filter, including the kick-loop RNG state, so the
// reset filter behaves identically to a freshly constructed one: the same
// insert sequence yields the same table bytes (and the same eviction
// choices) either way.
func (f *Filter) Reset() {
	clear(f.words)
	f.count = 0
	f.hasVictim = false
	f.kickRNG = *rng.NewSplitMix64(kickSeed)
}

func nextPow2u64(x uint64) uint64 {
	if x <= 1 {
		return 1
	}
	return 1 << (64 - bits.LeadingZeros64(x-1))
}
