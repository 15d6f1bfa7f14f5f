package blocked

import (
	"fmt"
	"math/bits"

	"perfilter/internal/core"
	"perfilter/internal/hashing"
	"perfilter/internal/magic"
	"perfilter/internal/mem"
	"perfilter/internal/rng"
)

// Word constrains the machine word type a filter is built on.
type Word interface {
	~uint32 | ~uint64
}

// Probe is the type-erased view of a blocked Bloom filter, independent of
// the word type: the core.Filter contract (Insert and InsertBatch never
// fail; InsertBatch leaves the filter words byte-identical to calling
// Insert per key in order, overlapping the keys' cache misses in a
// pipelined kernel for the default geometry and allocating nothing) plus
// the family's diagnostics and wire form.
type Probe interface {
	core.Filter
	// NumBlocks returns the block count the addressing resolves into.
	NumBlocks() uint32
	// Params returns the configuration.
	Params() Params
	// PopCount returns the number of set bits (for load diagnostics).
	PopCount() uint64
	// MarshalBinary encodes the filter in its wire format.
	MarshalBinary() ([]byte, error)
}

// Filter is a blocked Bloom filter over word type W. Use New to construct a
// validated instance.
type Filter[W Word] struct {
	params Params
	words  []W

	numBlocks uint32
	blockMask uint32        // power-of-two addressing
	dv        magic.Divider // magic addressing

	// Derived constants, hoisted out of the per-key loops.
	wordBits      uint32
	wordsPerBlock uint32
	sectors       uint32 // s = B/S
	groups        uint32 // z
	secPerGroup   uint32 // g = s/z
	kPerGroup     uint32 // k/z
	log2Sector    uint32 // log2(S)
	log2Group     uint32 // log2(g); 0 bits consumed when g == 1
	log2Word      uint32 // log2(W)
	sectorMask    uint32 // S-1, for sub-word sector offsets

	// Chunked hash-bit drawing: bit-address fields are consumed from the
	// sink fieldsPerChunk at a time (one Next per chunk) and extracted
	// with independent shifts, shortening the serial dependency through
	// the sink's word. All code paths (Insert, Contains, batch kernels)
	// share drawMask/drawPositions, so the consumed bit stream — and
	// therefore every answer — is identical across paths.
	fieldsPerChunk uint32 // fields per 32-bit draw: 32 / log2(S)
	chunkBits      uint32 // fieldsPerChunk · log2(S)

	// Draw plan: the paper compiles one branch-free function per filter
	// configuration (§5); the equivalent here is precomputing, per draw,
	// which hash word and shift the bits come from. The plan replays the
	// sink's consumption (including its refill boundaries) so kernels can
	// evaluate all draws as independent shifts of at most planWords
	// precomputed hash words — no serial dependency, no branches.
	// TestBatchMatchesScalar pins the equivalence to the sink paths.
	planWords      uint32         // hash words one lookup needs (≤ 6)
	blockLoc       drawLoc        // 32-bit block-address draw
	secLoc         [16]drawLoc    // per group: sector-select draw
	chunkLoc       [16][6]drawLoc // per group: chunk draws
	chunksPerGroup uint32         // chunk draws per group
	groupMask      uint32         // secPerGroup − 1
	chunkMask      uint32         // (1 << chunkBits) − 1

	kernel kernelID // batch kernel, fixed by the configuration
}

// drawLoc addresses one hash-bit draw: bits [shift, shift+width) of hash
// word `word`, counted from bit 0 (i.e. value = hw[word] >> shift & mask).
type drawLoc struct {
	word  uint8
	shift uint8
}

// New builds a filter of the requested size (in bits) with the given
// parameters. The size is rounded up to whole blocks, and then to the next
// power-of-two block count (power-of-two addressing) or the next class-(ii)
// magic divisor (magic addressing). The actual size is available via
// SizeBits.
func New(p Params, mBits uint64) (Probe, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if mBits == 0 {
		return nil, fmt.Errorf("blocked: size must be positive")
	}
	if p.WordBits == 32 {
		return newFilter[uint32](p, mBits)
	}
	return newFilter[uint64](p, mBits)
}

func newFilter[W Word](p Params, mBits uint64) (*Filter[W], error) {
	f := &Filter[W]{params: p}
	f.wordBits = p.WordBits
	f.wordsPerBlock = p.WordsPerBlock()
	f.sectors = p.Sectors()
	f.groups = p.Z
	f.secPerGroup = f.sectors / f.groups
	f.kPerGroup = p.K / p.Z
	f.log2Sector = log2u32(p.SectorBits)
	f.log2Group = log2u32(f.secPerGroup)
	f.log2Word = log2u32(p.WordBits)
	f.sectorMask = p.SectorBits - 1
	f.fieldsPerChunk = 32 / f.log2Sector
	if f.fieldsPerChunk > f.kPerGroup {
		f.fieldsPerChunk = f.kPerGroup
	}
	f.chunkBits = f.fieldsPerChunk * f.log2Sector
	f.groupMask = f.secPerGroup - 1
	f.chunkMask = uint32(1)<<f.chunkBits - 1
	f.buildPlan()
	f.kernel = f.selectKernel()

	blocks := (mBits + uint64(p.BlockBits) - 1) / uint64(p.BlockBits)
	if blocks == 0 {
		blocks = 1
	}
	if p.Magic {
		if blocks > 0xFFFFFFFF {
			return nil, fmt.Errorf("blocked: %d blocks exceed 2^32", blocks)
		}
		f.dv = magic.Next(uint32(blocks))
		f.numBlocks = f.dv.D()
	} else {
		pow := nextPow2u64(blocks)
		if pow >= 1<<32 {
			return nil, fmt.Errorf("blocked: %d blocks exceed addressing range", pow)
		}
		f.numBlocks = uint32(pow)
		f.blockMask = uint32(pow) - 1
	}
	f.words = mem.Make[W](int(uint64(f.numBlocks) * uint64(f.wordsPerBlock)))
	return f, nil
}

// blockIndex consumes 32 hash bits and maps them onto [0, numBlocks).
// Power-of-two and magic addressing consume the same number of bits so the
// two modes are directly comparable in FPR terms.
func (f *Filter[W]) blockIndex(s *hashing.Sink) uint32 {
	h := s.Next(32)
	if f.params.Magic {
		return f.dv.Mod(h)
	}
	return h & f.blockMask
}

// buildPlan replays the sink's draw sequence symbolically, recording for
// every draw the hash word and shift it resolves to. The sink consumes from
// the top of 64-bit words and discards the remainder of a word when a draw
// does not fit (refill); the plan replicates both rules exactly.
func (f *Filter[W]) buildPlan() {
	var wordIdx, off uint32
	next := func(n uint32) drawLoc {
		if n == 0 {
			return drawLoc{}
		}
		if 64-off < n {
			wordIdx++
			off = 0
		}
		loc := drawLoc{word: uint8(wordIdx), shift: uint8(64 - off - n)}
		off += n
		return loc
	}
	f.blockLoc = next(32)
	if f.groups > 16 {
		panic("blocked: plan supports at most 16 groups")
	}
	for g := uint32(0); g < f.groups; g++ {
		f.secLoc[g] = next(f.log2Group)
		c := uint32(0)
		for remaining := f.kPerGroup; remaining > 0; c++ {
			nf := f.fieldsPerChunk
			if nf > remaining {
				nf = remaining
			}
			f.chunkLoc[g][c] = next(f.chunkBits)
			remaining -= nf
		}
		f.chunksPerGroup = c
	}
	f.planWords = wordIdx + 1
	if f.planWords > 6 {
		panic("blocked: draw plan exceeds 6 hash words")
	}
}

// hashWords computes the hash words the plan indexes into: word 0 is the
// multiplicative hash, later words are the sink's refill outputs.
func (f *Filter[W]) hashWords(key core.Key, hw *[6]uint64) {
	hw[0] = hashing.Mult64(key)
	for w := uint32(1); w < f.planWords; w++ {
		hw[w] = rng.Mix64(uint64(key) + uint64(w)*hashing.Golden64)
	}
}

// planBlockIndex maps the planned block-address draw onto [0, numBlocks).
func (f *Filter[W]) planBlockIndex(hw *[6]uint64) uint32 {
	h := uint32(hw[f.blockLoc.word] >> f.blockLoc.shift)
	if f.params.Magic {
		return f.dv.Mod(h)
	}
	return h & f.blockMask
}

// planGroupPositions evaluates one group's planned draws into sector-
// relative bit positions (for sectors spanning multiple words).
func (f *Filter[W]) planGroupPositions(hw *[6]uint64, g uint32, dst *[16]uint32) (sector, n uint32) {
	sl := f.secLoc[g]
	sector = uint32(hw[sl.word]>>sl.shift) & f.groupMask
	fi := uint32(0)
	for c := uint32(0); c < f.chunksPerGroup; c++ {
		cl := f.chunkLoc[g][c]
		chunk := uint32(hw[cl.word]>>cl.shift) & f.chunkMask
		top := f.fieldsPerChunk
		if rem := f.kPerGroup - fi; top > rem {
			top = rem
		}
		for j := uint32(0); j < top; j++ {
			dst[fi+j] = chunk >> ((f.fieldsPerChunk - 1 - j) * f.log2Sector) & f.sectorMask
		}
		fi += top
	}
	return sector, fi
}

// drawMask consumes one group's bit-address fields and returns the k/z-bit
// search mask, sector-relative (valid when S ≤ W). The fields are drawn in
// whole chunks; field extraction uses independent shifts for ILP.
func (f *Filter[W]) drawMask(sink *hashing.Sink) W {
	var mask W
	wb := f.wordBits - 1
	for remaining := f.kPerGroup; remaining > 0; {
		nf := f.fieldsPerChunk
		if nf > remaining {
			nf = remaining
		}
		c := sink.Next(f.chunkBits)
		for fi := uint32(0); fi < nf; fi++ {
			pos := c >> ((f.fieldsPerChunk - 1 - fi) * f.log2Sector) & f.sectorMask
			mask |= W(1) << (pos & wb)
		}
		remaining -= nf
	}
	return mask
}

// drawPositions consumes one group's bit-address fields into dst (used when
// sectors span multiple words). Returns the field count (k/z ≤ 16).
func (f *Filter[W]) drawPositions(sink *hashing.Sink, dst *[16]uint32) uint32 {
	i := uint32(0)
	for remaining := f.kPerGroup; remaining > 0; {
		nf := f.fieldsPerChunk
		if nf > remaining {
			nf = remaining
		}
		c := sink.Next(f.chunkBits)
		for fi := uint32(0); fi < nf; fi++ {
			dst[i] = c >> ((f.fieldsPerChunk - 1 - fi) * f.log2Sector) & f.sectorMask
			i++
		}
		remaining -= nf
	}
	return i
}

// Insert adds key to the filter; it never fails.
func (f *Filter[W]) Insert(key core.Key) error {
	sink := hashing.NewSink(key)
	base := uint64(f.blockIndex(&sink)) * uint64(f.wordsPerBlock)
	if f.params.SectorBits <= f.wordBits {
		for g := uint32(0); g < f.groups; g++ {
			sector := g*f.secPerGroup + sink.Next(f.log2Group)
			startBit := sector << f.log2Sector
			mask := f.drawMask(&sink) << (startBit & (f.wordBits - 1))
			f.words[base+uint64(startBit>>f.log2Word)] |= mask
		}
		return nil
	}
	var pos [16]uint32
	for g := uint32(0); g < f.groups; g++ {
		sector := g*f.secPerGroup + sink.Next(f.log2Group)
		startBit := sector << f.log2Sector
		n := f.drawPositions(&sink, &pos)
		for j := uint32(0); j < n; j++ {
			p := startBit + pos[j]
			f.words[base+uint64(p>>f.log2Word)] |= W(1) << (p & (f.wordBits - 1))
		}
	}
	return nil
}

// Contains reports whether key may be in the set. The test is branch-free
// within a block (blocked filters do equal work for positive and negative
// probes, §2), except for the plain-blocked variant where bits span words.
func (f *Filter[W]) Contains(key core.Key) bool {
	sink := hashing.NewSink(key)
	base := uint64(f.blockIndex(&sink)) * uint64(f.wordsPerBlock)
	if f.params.SectorBits <= f.wordBits {
		// Every group's bits land in one word: build the search mask and
		// compare once per group (Listing 2 generalized).
		all := W(1)
		for g := uint32(0); g < f.groups; g++ {
			sector := g*f.secPerGroup + sink.Next(f.log2Group)
			startBit := sector << f.log2Sector
			mask := f.drawMask(&sink) << (startBit & (f.wordBits - 1))
			word := f.words[base+uint64(startBit>>f.log2Word)]
			if word&mask != mask {
				all = 0
			}
		}
		return all != 0
	}
	// Sectors span multiple words (plain blocked S == B > W, or mid-size
	// sectors): walk groups and sectors, testing each bit in its word
	// (Listing 1), with early exit on the first missing bit.
	var pos [16]uint32
	for g := uint32(0); g < f.groups; g++ {
		sector := g*f.secPerGroup + sink.Next(f.log2Group)
		startBit := sector << f.log2Sector
		n := f.drawPositions(&sink, &pos)
		for j := uint32(0); j < n; j++ {
			p := startBit + pos[j]
			word := f.words[base+uint64(p>>f.log2Word)]
			if word&(W(1)<<(p&(f.wordBits-1))) == 0 {
				return false
			}
		}
	}
	return true
}

// SizeBits returns the actual size in bits.
func (f *Filter[W]) SizeBits() uint64 {
	return uint64(f.numBlocks) * uint64(f.params.BlockBits)
}

// NumBlocks returns the number of blocks.
func (f *Filter[W]) NumBlocks() uint32 { return f.numBlocks }

// Params returns the configuration.
func (f *Filter[W]) Params() Params { return f.params }

// String renders the configuration in the paper's notation.
func (f *Filter[W]) String() string { return f.params.String() }

// FPR returns the analytic false-positive rate for n inserted keys.
func (f *Filter[W]) FPR(n uint64) float64 { return f.params.FPR(f.SizeBits(), n) }

// PopCount returns the number of set bits.
func (f *Filter[W]) PopCount() uint64 {
	var total uint64
	for _, w := range f.words {
		total += uint64(bits.OnesCount64(uint64(w)))
	}
	return total
}

// Reset clears all bits.
func (f *Filter[W]) Reset() {
	clear(f.words)
}

func nextPow2u64(x uint64) uint64 {
	if x <= 1 {
		return 1
	}
	return 1 << (64 - bits.LeadingZeros64(x-1))
}
