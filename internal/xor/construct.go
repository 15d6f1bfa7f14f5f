package xor

import (
	"fmt"
	"math"

	"perfilter/internal/mem"
	"perfilter/internal/rng"
)

// Construction solves the fingerprint table by hypergraph peeling (the
// standard xor-filter algorithm): count the keys mapping to every slot,
// repeatedly peel a slot covering exactly one key onto a stack, and — if
// every key peels — assign fingerprints in reverse stack order so each
// key's three-slot xor equals its fingerprint. A random 3-uniform
// hypergraph at ≥1.23 slots per key (≥1.13 with the segmented fuse
// layout) peels with high probability; failures retry with a fresh seed,
// and every few failed seeds the table grows a notch so termination does
// not ride on luck.

const (
	// maxSeedAttempts bounds the retry loop; with size growth every
	// growEvery failures, reaching it is practically impossible.
	maxSeedAttempts = 64
	growEvery       = 4
)

// solve builds the table for a deduplicated key set.
func solve(p Params, keys []Key) (table, error) {
	n := uint64(len(keys))
	if n == 0 {
		return table{fuse: p.Fuse}, nil
	}
	slots := p.slotsForKeys(n)
	for attempt := 0; attempt < maxSeedAttempts; attempt++ {
		t := layoutFor(p, slots, n)
		t.seed = rng.Mix64(uint64(attempt)*0x9E3779B97F4A7C15 + 0xA076_1D64_78BD_642F)
		t.n = n
		if sk, ss, ok := peel(&t, keys); ok {
			assign(&t, sk, ss)
			return t, nil
		}
		if (attempt+1)%growEvery == 0 {
			slots += slots/16 + 16
		}
	}
	return table{}, fmt.Errorf("xor: peeling failed for %d keys after %d seeds", n, maxSeedAttempts)
}

// layoutFor resolves the slot budget into a concrete layout (without
// fingerprints or seed).
func layoutFor(p Params, slots uint64, n uint64) table {
	t := table{fuse: p.Fuse}
	if p.Fuse {
		// Segments are power-of-two sized so in-segment offsets mask. The
		// length follows the binary-fuse paper's rule ~2^(log3.33(n)+2.25):
		// small sets get short segments (more of them), which keeps the
		// peeling graph irregular enough to peel at the layout's space
		// factor.
		segLen := uint32(1) << 12
		if n > 1 {
			if lg := int(math.Log(float64(n))/math.Log(3.33) + 2.25); lg < 12 {
				segLen = 1 << max(lg, 3)
			}
		}
		for segLen > 8 && uint64(segLen)*6 > slots {
			segLen >>= 1
		}
		segCount := uint32((slots + uint64(segLen) - 1) / uint64(segLen))
		if segCount <= 2 {
			segCount = 3
		}
		segCount -= 2
		t.segLen, t.segCount = segLen, segCount
	} else {
		blockLen := uint32((slots + 2) / 3)
		if blockLen == 0 {
			blockLen = 1
		}
		t.segLen, t.segCount = blockLen, 3
	}
	total := t.totalSlots()
	if p.FingerprintBits == 16 {
		t.fp16 = mem.Make[uint16](int(total))
	} else {
		t.fp8 = mem.Make[uint8](int(total))
	}
	return t
}

// totalSlots returns the table length implied by the layout.
func (t *table) totalSlots() uint64 {
	if t.fuse {
		return uint64(t.segLen) * uint64(t.segCount+2)
	}
	return 3 * uint64(t.segLen)
}

// peel runs the peeling pass: it returns the peeled (key, slot) stack and
// whether every key peeled. Both layouts place a key's three slots in
// disjoint ranges, so the per-key positions are always distinct and the
// count/xor bookkeeping needs no special cases.
func peel(t *table, keys []Key) (stackKeys []Key, stackSlots []uint32, ok bool) {
	total := t.totalSlots()
	keyMask := make([]Key, total)
	count := make([]uint32, total)
	for _, k := range keys {
		h0, h1, h2, _ := t.positions(k)
		keyMask[h0] ^= k
		count[h0]++
		keyMask[h1] ^= k
		count[h1]++
		keyMask[h2] ^= k
		count[h2]++
	}
	queue := make([]uint32, 0, len(keys))
	for i := uint64(0); i < total; i++ {
		if count[i] == 1 {
			queue = append(queue, uint32(i))
		}
	}
	stackKeys = make([]Key, 0, len(keys))
	stackSlots = make([]uint32, 0, len(keys))
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if count[i] != 1 {
			continue // the slot's last key was peeled via another slot
		}
		k := keyMask[i]
		stackKeys = append(stackKeys, k)
		stackSlots = append(stackSlots, i)
		h0, h1, h2, _ := t.positions(k)
		for _, j := range [3]uint32{h0, h1, h2} {
			keyMask[j] ^= k
			count[j]--
			if count[j] == 1 {
				queue = append(queue, j)
			}
		}
	}
	return stackKeys, stackSlots, len(stackKeys) == len(keys)
}

// assign fills the fingerprint table in reverse peel order (last peeled
// first). When a key is assigned, its peel slot is still zero, so
//
//	T[slot] = fp ^ T[h0] ^ T[h1] ^ T[h2]
//
// (the slot's own zero included in the xor) makes the key's three-slot
// xor equal its fingerprint. The equality then survives all later
// assignments: those belong to earlier-peeled keys, each writing only its
// own peel slot, and a peel slot is never incident to a key that was
// still unpeeled at its peel time — i.e. never to an already-assigned
// key.
func assign(t *table, stackKeys []Key, stackSlots []uint32) {
	for i := len(stackKeys) - 1; i >= 0; i-- {
		k, slot := stackKeys[i], stackSlots[i]
		h0, h1, h2, fp := t.positions(k)
		if t.fp16 != nil {
			t.fp16[slot] = fp ^ t.fp16[h0] ^ t.fp16[h1] ^ t.fp16[h2]
		} else {
			t.fp8[slot] = uint8(fp) ^ t.fp8[h0] ^ t.fp8[h1] ^ t.fp8[h2]
		}
	}
}
