package main

// Key streams. Every key the benchmark sends is perm(i) for an index i,
// where perm is a seeded bijection on uint32: distinct indices give
// distinct keys, so inserted keys never repeat, and the index ranges below
// keep absent keys disjoint from present ones by construction.
const (
	presentBase = 0       // inserted keys: indices [0, 2^31)
	absentBase  = 1 << 31 // absent keys probed during a run: [2^31, 2^31+2^30)
	fprBase     = 3 << 30 // absent keys of the post-run FPR pass: [2^31+2^30, 2^32)
	absentSpan  = 1 << 30
)

// perm is a seeded bijection on uint32: xor, fmix32, add, fmix32 — each
// step is invertible, so the composition is too.
type perm struct{ a, b uint32 }

func newPerm(seed uint64) perm {
	r := rng{s: seed}
	return perm{a: uint32(r.next()), b: uint32(r.next())}
}

func (p perm) key(i uint32) uint32 { return fmix32(fmix32(i^p.a) + p.b) }

// fmix32 is MurmurHash3's finalizer, a bijection on uint32.
func fmix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// rng is splitmix64: cheap, seedable, and good enough to pick indices.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below returns a value in [0, n) for n < 2^32 (Lemire's multiply-shift).
func (r *rng) below(n uint32) uint32 { return uint32((r.next() & 0xffffffff) * uint64(n) >> 32) }

// streamSeed derives an independent generator seed for one (run seed,
// stream) pair, so each worker and phase draws its own reproducible stream.
func streamSeed(seed uint64, stream uint64) uint64 {
	r := rng{s: seed ^ stream*0xd1b54a32d192ed03}
	return r.next()
}

// probeBatch fills keys with exactly half present keys, drawn from the
// first nPresent inserted indices, and half fresh absent keys, in a
// seeded random order; present[i] records which positions hold inserted
// keys. Selection sampling keeps the present count exact with one draw
// per position.
func probeBatch(p perm, r *rng, keys []uint32, present []bool, nPresent uint32) {
	n := len(keys)
	need := n / 2
	for i := range keys {
		isPresent := r.below(uint32(n-i)) < uint32(need)
		present[i] = isPresent
		if isPresent {
			need--
			keys[i] = p.key(presentBase + r.below(nPresent))
		} else {
			keys[i] = p.key(absentBase + r.below(absentSpan))
		}
	}
}

// rangeBatch fills keys with perm(base+start), perm(base+start+1), ….
func rangeBatch(p perm, keys []uint32, base, start uint32) {
	for i := range keys {
		keys[i] = p.key(base + start + uint32(i))
	}
}
