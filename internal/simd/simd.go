// Package simd hosts the shared pieces of the repository's "software SIMD"
// batch kernels.
//
// The paper's hot loops execute one filter lookup per 32-bit SIMD lane using
// AVX2/AVX-512 GATHER instructions (§5.1). Pure Go (stdlib only, no
// assembly) has no vector intrinsics, so the kernels here reproduce the
// *algorithmic* content of that design instead:
//
//   - lookups are batched: hashing/addressing for Width keys is completed
//     before any filter memory is touched, giving the out-of-order core
//     independent loads to overlap (the software analogue of GATHER);
//   - results are materialized branch-free into selection vectors
//     (position lists of 32-bit indexes), exactly the interface the paper's
//     unified contains functions expose;
//   - per-batch dispatch replaces the paper's per-configuration template
//     instantiation: the kernel switch happens once per batch, never per key.
//
// The substitution preserves the paper's relative shapes (batching still
// overlaps independent cache misses, and the selection-vector interface is
// the same) while compressing absolute SIMD speedups, because each lane's
// arithmetic still runs as scalar instructions.
package simd

// Width is the software pipeline width of the batch kernels: the number of
// keys whose hashes and addresses are computed before their filter words
// are loaded. Eight matches one AVX2 register of 32-bit lanes; the unrolled
// kernels therefore mirror the paper's 8-lane AVX2 configuration.
const Width = 8

// GrowSel extends sel by add writable slots, reallocating if necessary, and
// returns the full-length buffer together with the current write position.
// Kernels write candidate positions with the branch-free pattern
//
//	buf[cnt] = pos; if match { cnt++ }
//
// and finally return buf[:cnt].
func GrowSel(sel []uint32, add int) (buf []uint32, cnt int) {
	cnt = len(sel)
	need := cnt + add
	if cap(sel) < need {
		buf = make([]uint32, need)
		copy(buf, sel)
		return buf, cnt
	}
	return sel[:need], cnt
}

// B2I converts a match flag to 0/1 for branch-free selection-vector
// advancement. The compiler lowers this to a conditional set, not a branch.
func B2I(b bool) int {
	if b {
		return 1
	}
	return 0
}
