// Package magic implements "magic modulo" (§5.2 of the paper): replacing
// the integer division inside `hash mod C` with a multiply-and-shift by a
// precomputed magic number, so filters can use (almost) arbitrary sizes
// instead of powers of two.
//
// Magic numbers for unsigned division fall into two classes: (i) those that
// need a multiply-shift-add instruction sequence and (ii) those that need
// only a multiply and a shift. Because a filter may slightly overshoot its
// desired size, Next searches upward from the desired divisor for the first
// class-(ii) divisor, saving the trailing add exactly as the paper describes.
// The paper reports the overshoot is at most 0.0134% for up to 2^32 blocks;
// TestNextOvershoot verifies the same bound for this implementation.
//
// Note: the paper's Eq. 9 prints the remainder as
// h − (mulhi_u32(h, magicNo) >> shift) ∗ h; the trailing factor must be the
// divisor C, not h, and that is what Mod computes.
package magic

import "math/bits"

// Divider divides and reduces 32-bit values by a fixed divisor using a
// precomputed magic number. The zero value is invalid; construct with
// Compute or Next.
type Divider struct {
	d   uint32 // divisor
	m   uint32 // magic multiplier
	s   uint32 // post-multiply shift
	add bool   // class (i): needs the n−t fixup sequence
}

// Compute returns the Divider for d using the minimal magic number for
// unsigned 32-bit division (the classic algorithm from Hacker's Delight
// §10-9, "magicu"). d must be ≥ 1. Divisors that are powers of two yield a
// pure shift (class (ii)); d == 1 yields the identity.
func Compute(d uint32) Divider {
	if d == 0 {
		panic("magic: divisor must be >= 1")
	}
	if d == 1 {
		return Divider{d: 1, m: 0, s: 0, add: false}
	}
	if d&(d-1) == 0 {
		// Power of two: mulhi(n, 2^(32-k)) == n >> k with no further shift.
		k := uint32(bits.TrailingZeros32(d))
		return Divider{d: d, m: 1 << (32 - k), s: 0, add: false}
	}

	// magicu: search for the smallest p ≥ 32 such that a 32/33-bit magic
	// exists. All arithmetic is 32-bit unsigned exactly as in the reference
	// formulation; q2/r2 track the candidate magic, q1/r1 the bound.
	var (
		p        = uint32(31)
		nc       = uint32(0xFFFFFFFF) - (uint32(0)-d)%d
		q1       = uint32(0x80000000) / nc
		r1       = uint32(0x80000000) - q1*nc
		q2       = uint32(0x7FFFFFFF) / d
		r2       = uint32(0x7FFFFFFF) - q2*d
		needsAdd = false
		delta    uint32
	)
	for {
		p++
		if r1 >= nc-r1 {
			q1 = 2*q1 + 1
			r1 = 2*r1 - nc
		} else {
			q1 = 2 * q1
			r1 = 2 * r1
		}
		if r2+1 >= d-r2 {
			if q2 >= 0x7FFFFFFF {
				needsAdd = true
			}
			q2 = 2*q2 + 1
			r2 = 2*r2 + 1 - d
		} else {
			if q2 >= 0x80000000 {
				needsAdd = true
			}
			q2 = 2 * q2
			r2 = 2*r2 + 1
		}
		delta = d - 1 - r2
		if p >= 64 || (q1 >= delta && !(q1 == delta && r1 == 0)) {
			break
		}
	}
	return Divider{d: d, m: q2 + 1, s: p - 32, add: needsAdd}
}

// Next returns the Divider for the smallest divisor ≥ d whose magic number
// is class (ii) — multiply-shift only, no trailing add. This is the paper's
// nextMagicNo: filters round their block/bucket count up to this divisor.
func Next(d uint32) Divider {
	for {
		dv := Compute(d)
		if !dv.add {
			return dv
		}
		d++ // cannot overflow in practice: powers of two are class (ii)
	}
}

// D returns the divisor.
func (v Divider) D() uint32 { return v.d }

// NeedsAdd reports whether the divider is class (i) (multiply-shift-add).
func (v Divider) NeedsAdd() bool { return v.add }

// Div returns n / d.
func (v Divider) Div(n uint32) uint32 {
	if v.d == 1 {
		return n
	}
	t := mulhi(n, v.m)
	if v.add {
		// Class (i) fixup: q = (t + (n−t)/2) >> (s−1). The intermediate
		// t + (n−t)/2 cannot overflow because (n−t)/2 ≤ 2^31.
		return (t + (n-t)>>1) >> (v.s - 1)
	}
	return t >> v.s
}

// Mod returns n mod d via n − Div(n)·d (Eq. 9, corrected).
func (v Divider) Mod(n uint32) uint32 {
	return n - v.Div(n)*v.d
}

// mulhi multiplies two 32-bit integers producing a 64-bit intermediate and
// returns the upper 32 bits — the paper's mulhi_u32.
func mulhi(a, b uint32) uint32 {
	return uint32(uint64(a) * uint64(b) >> 32)
}

// NextSize implements the paper's Eq. 10: given a desired size in units
// (e.g. bits) and the granule x (block bits for Bloom, l·b for Cuckoo),
// it returns the actual unit count x·Next(⌈desired/x⌉) and the Divider
// addressing the ⌈desired/x⌉-rounded block count.
func NextSize(desired uint64, x uint32) (actual uint64, dv Divider) {
	if x == 0 {
		panic("magic: granule must be >= 1")
	}
	blocks := (desired + uint64(x) - 1) / uint64(x)
	if blocks == 0 {
		blocks = 1
	}
	if blocks > 0xFFFFFFFF {
		panic("magic: more than 2^32 blocks requested")
	}
	dv = Next(uint32(blocks))
	return uint64(dv.d) * uint64(x), dv
}
