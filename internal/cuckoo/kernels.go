package cuckoo

import (
	"perfilter/internal/core"
	"perfilter/internal/simd"
)

// groupWidth is how many keys both batch kernels hash before they touch
// the table: the software analogue of the paper's gather-based SIMD probe
// (§5.1, see package simd). It is twice simd.Width, like the blocked-Bloom
// kernels' unroll, so a group keeps 32 independent bucket loads in flight.
const groupWidth = 2 * simd.Width

// InsertBatch adds keys and stops at the first ErrFull, returning how
// many keys it inserted (keys[:n]). Each group of groupWidth keys runs in
// three phases: hash every key to its tag and bucket pair, load both
// candidate bucket words of every key, then place the keys in input order
// through place, the path Insert takes. The loads of the second phase
// overlap their cache misses, so the third finds its buckets in cache; the
// table bytes, count and kick draws equal those of calling Insert per key.
func (f *Filter) InsertBatch(keys []core.Key) (int, error) {
	var (
		words       = f.words
		bb          = uint64(f.bucketBits)
		tag, ia, ib [groupWidth]uint32 // tag and candidate buckets
	)
	for i := 0; i < len(keys); i += groupWidth {
		group := keys[i:min(i+groupWidth, len(keys))]
		for j, key := range group {
			t, i1 := f.tagAndIndex(key)
			tag[j], ia[j], ib[j] = t, i1, f.altIndex(i1, t)
		}
		var gathered uint64
		for j := range group {
			gathered ^= words[uint64(ia[j])*bb>>6] ^ words[uint64(ib[j])*bb>>6]
		}
		f.gathered ^= gathered
		for j := range group {
			if err := f.place(tag[j], ia[j]); err != nil {
				return i + j, err
			}
		}
	}
	return len(keys), nil
}

// ContainsBatch appends the positions of possibly-contained keys to sel and
// returns the extended selection vector. Results are identical to scalar
// Contains. Buckets that fit in a 64-bit word with 8/16/32-bit tags use a
// branch-free SWAR comparison ("one comparison per bucket"); other
// configurations fall back to the scalar path.
func (f *Filter) ContainsBatch(keys []core.Key, sel core.SelVec) core.SelVec {
	buf, cnt := simd.GrowSel(sel, len(keys))
	if f.swarOK() {
		cnt = f.batchSWAR(keys, buf, cnt)
	} else {
		for i, key := range keys {
			buf[cnt] = uint32(i)
			var inc int
			if f.Contains(key) {
				inc = 1
			}
			cnt += inc
		}
	}
	return buf[:cnt]
}

// swarOK reports whether the configuration supports the SWAR bucket probe:
// the tag width must be a byte multiple (8/16/32) and a whole bucket must
// fit in one aligned 64-bit word. The paper likewise restricts its SIMD
// fast paths to "SIMD-friendly" 8-, 16- and 32-bit signatures.
func (f *Filter) swarOK() bool {
	l := f.params.TagBits
	if l != 8 && l != 16 && l != 32 {
		return false
	}
	return f.bucketBits <= 64 && 64%f.bucketBits == 0
}

// swarConsts returns the per-lane low-bit and high-bit constants for the
// zero-lane test, truncated to the bucket width.
func (f *Filter) swarConsts() (lo, hi, bucketMask uint64) {
	l := f.params.TagBits
	var loFull, hiFull uint64
	switch l {
	case 8:
		loFull, hiFull = 0x0101010101010101, 0x8080808080808080
	case 16:
		loFull, hiFull = 0x0001000100010001, 0x8000800080008000
	default: // 32
		loFull, hiFull = 0x0000000100000001, 0x8000000080000000
	}
	if f.bucketBits == 64 {
		return loFull, hiFull, ^uint64(0)
	}
	bucketMask = uint64(1)<<f.bucketBits - 1
	return loFull & bucketMask, hiFull & bucketMask, bucketMask
}

// broadcast replicates an l-bit tag across the b lanes of a bucket word.
func broadcast(tag uint32, l, b uint32) uint64 {
	v := uint64(tag)
	for i := uint32(1); i < b; i++ {
		v |= uint64(tag) << (i * l)
	}
	return v
}

// batchSWAR is the software-SIMD probe. Per group of groupWidth keys (the
// last group may be shorter), phase 1 computes the broadcast tags and both
// candidate bucket addresses; phase 2 gathers the bucket words and tests
// all slots of both buckets branch-free. swarOK guarantees a bucket never
// straddles a word, so one shifted, masked word is the whole bucket. A
// filter holding a victim also matches each group against the victim's
// tag and bucket, as Contains does.
func (f *Filter) batchSWAR(keys []core.Key, out []uint32, cnt int) int {
	lo, hi, mask := f.swarConsts()
	var (
		l, b   = f.params.TagBits, f.params.BucketSize
		bb     = uint64(f.bucketBits)
		words  = f.words
		bc     [groupWidth]uint64 // broadcast tag
		a1, a2 [groupWidth]uint64 // first bit of each candidate bucket
		vic    [groupWidth]uint64 // nonzero: the key matches the victim
	)
	// The victim as batchSWAR sees a key: its broadcast tag and the first
	// bit of its bucket.
	vbc, va := broadcast(f.victim, l, b), uint64(f.victimIdx)*bb
	for i := 0; i < len(keys); i += groupWidth {
		group := keys[i:min(i+groupWidth, len(keys))]
		for j, key := range group {
			tag, i1 := f.tagAndIndex(key)
			bc[j] = broadcast(tag, l, b)
			a1[j] = uint64(i1) * bb
			a2[j] = uint64(f.altIndex(i1, tag)) * bb
		}
		if f.hasVictim {
			for j := range group {
				vic[j] = 0
				if bc[j] == vbc && (a1[j] == va || a2[j] == va) {
					vic[j] = 1
				}
			}
		}
		for j := range group {
			x1 := words[a1[j]>>6]>>(a1[j]&63)&mask ^ bc[j]
			x2 := words[a2[j]>>6]>>(a2[j]&63)&mask ^ bc[j]
			// Zero-lane test on both buckets at once: a lane of x is zero
			// iff the tag matched that slot.
			z := (x1 - lo) & ^x1 & hi
			z |= (x2 - lo) & ^x2 & hi
			z |= vic[j]
			out[cnt] = uint32(i + j)
			var inc int
			if z != 0 {
				inc = 1
			}
			cnt += inc
		}
	}
	return cnt
}
