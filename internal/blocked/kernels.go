package blocked

import (
	"perfilter/internal/core"
	"perfilter/internal/hashing"
	"perfilter/internal/rng"
	"perfilter/internal/simd"
)

// Batch kernels. The paper compiles one branch-free function per filter
// configuration (§5); here ContainsBatch switches once per batch on a
// probe kernel chosen at construction from the filter's own Params
// (selectKernel):
//
//   - batchRegister: register-blocked, one word per key;
//   - batchCacheSectorizedZ2K8: the default cache-sectorized
//     geometry (W = S = 64, z = 2, k = 8, DefaultParams) with both
//     addressing modes, its draw plan hoisted into shifts and its four
//     field extractions per group unrolled;
//   - batchCacheSectorized: every other cache-sectorized geometry with
//     word-sized sectors;
//   - batchSectorized: z == s with word-sized sectors;
//   - batchGeneric: everything else, and the reference every other kernel
//     is pinned to by TestPipelinedKernelsMatchGeneric.
//
// All probe kernels return exactly what Contains returns per key.
//
// InsertBatch has one kernel, insertCacheSectorizedZ2K8, for the default
// geometry: it shares the compute phase drawsZ2K8 with
// batchCacheSectorizedZ2K8 and ORs each group's masks in after it. Every
// other geometry, and the tail of a batch shorter than cacheUnroll, runs
// scalar Insert. The filter words end up byte-identical to scalar Insert
// per key (TestBatchSizesIncludingTails).

// Software-pipeline depths of the batch kernels: hashes, block addresses
// and search masks for this many keys are computed before the
// corresponding words are loaded and tested, mirroring the paper's
// one-key-per-SIMD-lane GATHER kernels (§5.1, see package simd). The
// compute phase runs several groups of simd.Width ahead of the load
// phase, so the out-of-order window always holds multiple independent
// cache misses.
//
// Each kernel's depth is a constant >= simd.Width chosen by benchmark
// (BenchmarkPipelineDepth; the system-level numbers land in
// BENCH_kernels.json via `filter-bench -fig kernels`): two groups ahead
// beat one by ~8% on the cache-missing register-blocked probe, while
// four groups ahead gave the win back — the per-key address/mask state
// starts spilling — and the cache-sectorized kernel, which carries z
// addresses and masks per key (8× the register kernel's state), showed
// the same shape. Both kernels therefore precompute two simd.Width
// groups ahead of the load phase.
const (
	registerUnroll = 2 * simd.Width // batchRegister
	cacheUnroll    = 2 * simd.Width // both cache-sectorized kernels
)

// ContainsBatch appends to sel the positions of the keys that may be
// contained and returns the extended selection vector. The kernel is fixed
// at construction and dispatched once per batch, never per key. Results
// are bit-identical to calling Contains per key.
//
// len(keys) must fit in a uint32 position; callers batch at vector
// granularity (core.DefaultBatch) in practice.
func (f *Filter[W]) ContainsBatch(keys []core.Key, sel core.SelVec) core.SelVec {
	buf, cnt := simd.GrowSel(sel, len(keys))
	switch f.kernel {
	case kernelRegister:
		cnt = f.batchRegister(keys, buf, cnt)
	case kernelCacheSectorizedZ2K8:
		cnt = f.batchCacheSectorizedZ2K8(keys, buf, cnt)
	case kernelCacheSectorized:
		cnt = f.batchCacheSectorized(keys, buf, cnt)
	case kernelSectorized:
		cnt = f.batchSectorized(keys, buf, cnt)
	default:
		cnt = f.batchGeneric(keys, buf, cnt)
	}
	return buf[:cnt]
}

// InsertBatch adds keys, leaving the filter words byte-identical to
// calling Insert per key; only the default geometry has a kernel. It
// never fails, so it always returns (len(keys), nil).
func (f *Filter[W]) InsertBatch(keys []core.Key) (int, error) {
	i := 0
	if f.kernel == kernelCacheSectorizedZ2K8 {
		i = f.insertCacheSectorizedZ2K8(keys)
	}
	for _, key := range keys[i:] {
		f.Insert(key)
	}
	return len(keys), nil
}

// kernelID names the batch kernel ContainsBatch runs for a filter.
type kernelID uint8

const (
	kernelGeneric             kernelID = iota // batchGeneric
	kernelRegister                            // batchRegister
	kernelSectorized                          // batchSectorized
	kernelCacheSectorized                     // batchCacheSectorized
	kernelCacheSectorizedZ2K8                 // batchCacheSectorizedZ2K8
)

// selectKernel picks the batch kernel from the filter's own geometry and
// draw plan, once at construction. The specialised cache-sectorized kernel
// takes the default geometry (W = S = 64, z = 2, k = 8, any
// block size and either addressing mode) whenever its fixed draw layout
// holds; every other word-sector configuration runs the general kernels.
func (f *Filter[W]) selectKernel() kernelID {
	switch {
	case f.params.Variant() == RegisterBlocked:
		return kernelRegister
	case f.params.SectorBits != f.wordBits:
		return kernelGeneric
	case f.secPerGroup == 1:
		return kernelSectorized
	case f.wordBits == 64 && f.groups == 2 && f.kPerGroup == 4 && f.planIsZ2K8():
		return kernelCacheSectorizedZ2K8
	default:
		return kernelCacheSectorized
	}
}

// planIsZ2K8 reports whether the draw plan has the layout drawsZ2K8
// hard-codes: one 24-bit chunk per group, the block address, both sector
// selects and group 0's chunk in hash word 0, and group 1's chunk in hash
// word 1.
func (f *Filter[W]) planIsZ2K8() bool {
	return f.chunksPerGroup == 1 && f.chunkBits == 24 && f.planWords == 2 &&
		f.blockLoc.word == 0 && f.secLoc[0].word == 0 && f.chunkLoc[0][0].word == 0 &&
		f.secLoc[1].word == 0 && f.chunkLoc[1][0].word == 1
}

// batchRegister is the register-blocked kernel (Listing 2): one word load
// and one comparison per key. The pipeline phase computes registerUnroll
// block addresses and search masks, then the gather phase loads and tests.
func (f *Filter[W]) batchRegister(keys []core.Key, out []uint32, cnt int) int {
	// Hoist every per-config constant into locals: the paper compiles one
	// branch-free function per configuration; hoisting gives the Go
	// compiler the same freedom (no reloads across the hw writes).
	var (
		n        = len(keys)
		kpg      = f.kPerGroup
		fpc      = f.fieldsPerChunk
		cpg      = f.chunksPerGroup
		l2s      = f.log2Sector
		secMask  = f.sectorMask
		chkMask  = f.chunkMask
		wb       = f.wordBits - 1
		bLoc     = f.blockLoc
		chunks   = f.chunkLoc[0]
		useMagic = f.params.Magic
		dv       = f.dv
		bMask    = f.blockMask
		planW    = f.planWords
		hw       [6]uint64
		idx      [registerUnroll]uint32
		mask     [registerUnroll]W
	)
	i := 0
	for ; i+registerUnroll <= n; i += registerUnroll {
		for l := 0; l < registerUnroll; l++ {
			key := keys[i+l]
			hw[0] = hashing.Mult64(key)
			for w := uint32(1); w < planW; w++ {
				hw[w] = rng.Mix64(uint64(key) + uint64(w)*hashing.Golden64)
			}
			h := uint32(hw[bLoc.word] >> bLoc.shift)
			if useMagic {
				idx[l] = dv.Mod(h)
			} else {
				idx[l] = h & bMask
			}
			var m W
			fi := uint32(0)
			for c := uint32(0); c < cpg; c++ {
				cl := chunks[c]
				chunk := uint32(hw[cl.word]>>cl.shift) & chkMask
				top := fpc
				if rem := kpg - fi; top > rem {
					top = rem
				}
				sh := (fpc - 1) * l2s
				for j := uint32(0); j < top; j++ {
					m |= W(1) << (chunk >> sh & secMask & wb)
					sh -= l2s
				}
				fi += top
			}
			mask[l] = m
		}
		for l := 0; l < registerUnroll; l++ {
			w := f.words[idx[l]]
			out[cnt] = uint32(i + l)
			var inc int
			if w&mask[l] == mask[l] {
				inc = 1
			}
			cnt += inc
		}
	}
	for ; i < n; i++ {
		out[cnt] = uint32(i)
		var inc int
		if f.Contains(keys[i]) {
			inc = 1
		}
		cnt += inc
	}
	return cnt
}

// batchCacheSectorized is the cache-sectorized kernel for word-sized
// sectors: per key, z words of one cache line are gathered and tested. The
// hash-bit consumption order matches Insert exactly (per group: sector
// select, then k/z bit positions).
func (f *Filter[W]) batchCacheSectorized(keys []core.Key, out []uint32, cnt int) int {
	var (
		wpb      = uint64(f.wordsPerBlock)
		g        = f.secPerGroup
		z        = f.groups
		n        = len(keys)
		kpg      = f.kPerGroup
		fpc      = f.fieldsPerChunk
		cpg      = f.chunksPerGroup
		l2s      = f.log2Sector
		secMask  = f.sectorMask
		gMask    = f.groupMask
		chkMask  = f.chunkMask
		wb       = f.wordBits - 1
		bLoc     = f.blockLoc
		secLoc   = f.secLoc
		chunkLoc = f.chunkLoc
		useMagic = f.params.Magic
		dv       = f.dv
		bMask    = f.blockMask
		planW    = f.planWords
		hw       [6]uint64
		widx     [cacheUnroll][8]uint64 // cache-sectorized has z < s ≤ 16 ⇒ z ≤ 8
		mask     [cacheUnroll][8]W
	)
	i := 0
	for ; i+cacheUnroll <= n; i += cacheUnroll {
		for l := 0; l < cacheUnroll; l++ {
			key := keys[i+l]
			hw[0] = hashing.Mult64(key)
			for w := uint32(1); w < planW; w++ {
				hw[w] = rng.Mix64(uint64(key) + uint64(w)*hashing.Golden64)
			}
			h := uint32(hw[bLoc.word] >> bLoc.shift)
			var block uint32
			if useMagic {
				block = dv.Mod(h)
			} else {
				block = h & bMask
			}
			base := uint64(block) * wpb
			for gi := uint32(0); gi < z; gi++ {
				sl := secLoc[gi]
				sector := uint32(hw[sl.word]>>sl.shift) & gMask
				var m W
				fi := uint32(0)
				for c := uint32(0); c < cpg; c++ {
					cl := chunkLoc[gi][c]
					chunk := uint32(hw[cl.word]>>cl.shift) & chkMask
					top := fpc
					if rem := kpg - fi; top > rem {
						top = rem
					}
					sh := (fpc - 1) * l2s
					for j := uint32(0); j < top; j++ {
						m |= W(1) << (chunk >> sh & secMask & wb)
						sh -= l2s
					}
					fi += top
				}
				widx[l][gi] = base + uint64(gi*g+sector)
				mask[l][gi] = m
			}
		}
		for l := 0; l < cacheUnroll; l++ {
			var missing W
			for gi := uint32(0); gi < z; gi++ {
				w := f.words[widx[l][gi]]
				m := mask[l][gi]
				missing |= w&m ^ m
			}
			out[cnt] = uint32(i + l)
			var inc int
			if missing == 0 {
				inc = 1
			}
			cnt += inc
		}
	}
	for ; i < n; i++ {
		out[cnt] = uint32(i)
		var inc int
		if f.Contains(keys[i]) {
			inc = 1
		}
		cnt += inc
	}
	return cnt
}

// drawsZ2K8 is the compute phase of both default-geometry kernels
// (selectKernel): W = S = 64, z = 2 and k = 8, so each group's k/z = 4 bit
// addresses come from one 24-bit chunk, and a key needs two hash words.
// For the cacheUnroll keys of grp it fills each group's word index and
// sector-relative mask without touching a filter word. The plan's shifts
// are hoisted into locals once per group of keys and the four field
// extractions are unrolled, leaving no per-field loop or hash-word
// indexing.
func (f *Filter[W]) drawsZ2K8(grp *[cacheUnroll]core.Key, widx *[cacheUnroll][2]uint64, mask *[cacheUnroll][2]W) {
	var (
		wpb      = uint64(f.wordsPerBlock)
		g        = uint64(f.secPerGroup)
		gMask    = f.groupMask
		useMagic = f.params.Magic
		dv       = f.dv
		bMask    = f.blockMask
		bShift   = f.blockLoc.shift
		s0Shift  = f.secLoc[0].shift
		c0Shift  = f.chunkLoc[0][0].shift
		s1Shift  = f.secLoc[1].shift
		c1Shift  = f.chunkLoc[1][0].shift
	)
	for l, key := range grp {
		h0 := hashing.Mult64(key)
		h1 := rng.Mix64(uint64(key) + hashing.Golden64)
		h := uint32(h0 >> bShift)
		var block uint32
		if useMagic {
			block = dv.Mod(h)
		} else {
			block = h & bMask
		}
		base := uint64(block) * wpb
		c0 := uint32(h0 >> c0Shift)
		c1 := uint32(h1 >> c1Shift)
		widx[l][0] = base + uint64(uint32(h0>>s0Shift)&gMask)
		widx[l][1] = base + g + uint64(uint32(h0>>s1Shift)&gMask)
		mask[l][0] = W(1)<<(c0>>18&63) | W(1)<<(c0>>12&63) | W(1)<<(c0>>6&63) | W(1)<<(c0&63)
		mask[l][1] = W(1)<<(c1>>18&63) | W(1)<<(c1>>12&63) | W(1)<<(c1>>6&63) | W(1)<<(c1&63)
	}
}

// batchCacheSectorizedZ2K8 is batchCacheSectorized specialised to the
// default geometry: drawsZ2K8 computes a group of keys, then their two
// words each are loaded and tested.
func (f *Filter[W]) batchCacheSectorizedZ2K8(keys []core.Key, out []uint32, cnt int) int {
	var (
		n     = len(keys)
		words = f.words
		widx  [cacheUnroll][2]uint64
		mask  [cacheUnroll][2]W
	)
	i := 0
	for ; i+cacheUnroll <= n; i += cacheUnroll {
		f.drawsZ2K8((*[cacheUnroll]core.Key)(keys[i:]), &widx, &mask)
		for l := 0; l < cacheUnroll; l++ {
			m0, m1 := mask[l][0], mask[l][1]
			missing := (words[widx[l][0]]&m0 ^ m0) | (words[widx[l][1]]&m1 ^ m1)
			out[cnt] = uint32(i + l)
			var inc int
			if missing == 0 {
				inc = 1
			}
			cnt += inc
		}
	}
	for ; i < n; i++ {
		out[cnt] = uint32(i)
		var inc int
		if f.Contains(keys[i]) {
			inc = 1
		}
		cnt += inc
	}
	return cnt
}

// insertCacheSectorizedZ2K8 is the insert kernel of the default geometry:
// drawsZ2K8 computes a group of keys, then their masks are ORed into
// their words, so the group's cache misses overlap instead of one
// unoverlapped miss per key. It returns how many keys it inserted, a
// multiple of cacheUnroll; the caller inserts the tail.
func (f *Filter[W]) insertCacheSectorizedZ2K8(keys []core.Key) int {
	var (
		words = f.words
		widx  [cacheUnroll][2]uint64
		mask  [cacheUnroll][2]W
	)
	i := 0
	for ; i+cacheUnroll <= len(keys); i += cacheUnroll {
		f.drawsZ2K8((*[cacheUnroll]core.Key)(keys[i:]), &widx, &mask)
		for l := 0; l < cacheUnroll; l++ {
			words[widx[l][0]] |= mask[l][0]
			words[widx[l][1]] |= mask[l][1]
		}
	}
	return i
}

// batchSectorized is the fully sectorized kernel (z == s, word-sized
// sectors): the s words of the block are read sequentially, each tested
// against a k/s-bit mask.
func (f *Filter[W]) batchSectorized(keys []core.Key, out []uint32, cnt int) int {
	var (
		wpb      = uint64(f.wordsPerBlock)
		s        = f.sectors
		kpg      = f.kPerGroup
		fpc      = f.fieldsPerChunk
		cpg      = f.chunksPerGroup
		l2s      = f.log2Sector
		secMask  = f.sectorMask
		chkMask  = f.chunkMask
		wb       = f.wordBits - 1
		bLoc     = f.blockLoc
		chunkLoc = f.chunkLoc
		useMagic = f.params.Magic
		dv       = f.dv
		bMask    = f.blockMask
		planW    = f.planWords
		hw       [6]uint64
	)
	for i, key := range keys {
		hw[0] = hashing.Mult64(key)
		for w := uint32(1); w < planW; w++ {
			hw[w] = rng.Mix64(uint64(key) + uint64(w)*hashing.Golden64)
		}
		h := uint32(hw[bLoc.word] >> bLoc.shift)
		var block uint32
		if useMagic {
			block = dv.Mod(h)
		} else {
			block = h & bMask
		}
		base := uint64(block) * wpb
		var missing W
		for si := uint32(0); si < s; si++ {
			var m W
			fi := uint32(0)
			for c := uint32(0); c < cpg; c++ {
				cl := chunkLoc[si][c]
				chunk := uint32(hw[cl.word]>>cl.shift) & chkMask
				top := fpc
				if rem := kpg - fi; top > rem {
					top = rem
				}
				sh := (fpc - 1) * l2s
				for j := uint32(0); j < top; j++ {
					m |= W(1) << (chunk >> sh & secMask & wb)
					sh -= l2s
				}
				fi += top
			}
			w := f.words[base+uint64(si)]
			missing |= w&m ^ m
		}
		out[cnt] = uint32(i)
		var inc int
		if missing == 0 {
			inc = 1
		}
		cnt += inc
	}
	return cnt
}

// batchGeneric covers plain-blocked and sub-word-sector configurations
// with a branch-free bit walk (Listing 1): all k bits are tested with no
// early exit, matching the paper's SIMD kernels where positive and negative
// probes cost the same (t+l == t−l, §2). Results are identical to the
// short-circuiting scalar path.
func (f *Filter[W]) batchGeneric(keys []core.Key, out []uint32, cnt int) int {
	var (
		wpb = uint64(f.wordsPerBlock)
		z   = f.groups
		l2s = f.log2Sector
		l2w = f.log2Word
		wb  = f.wordBits - 1
		hw  [6]uint64
	)
	var pos [16]uint32
	for i, key := range keys {
		f.hashWords(key, &hw)
		base := uint64(f.planBlockIndex(&hw)) * wpb
		missing := W(0)
		for g := uint32(0); g < z; g++ {
			sector, nf := f.planGroupPositions(&hw, g, &pos)
			startBit := (g*f.secPerGroup + sector) << l2s
			for j := uint32(0); j < nf; j++ {
				p := startBit + pos[j]
				word := f.words[base+uint64(p>>l2w)]
				// Accumulate "bit absent" without branching.
				missing |= ^word >> (p & wb) & 1
			}
		}
		out[cnt] = uint32(i)
		var inc int
		if missing == 0 {
			inc = 1
		}
		cnt += inc
	}
	return cnt
}
