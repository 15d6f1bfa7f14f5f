// Package exact implements an exact membership structure — a Robin Hood
// open-addressing hash set of 32-bit keys — for the region of Figure 1
// where the paper recommends "better use an exact filter (hash map, tree)":
// small problem sizes with expensive work savings, where false positives
// should be avoided entirely.
//
// Robin Hood hashing bounds probe-sequence variance by displacing entries
// that are closer to their home slot than the inserting entry, and deletes
// with backward shifting so no tombstones accumulate. The set also serves
// as ground truth in the workload generators and tests.
//
// Safe for concurrent readers; writes need external synchronization.
package exact

import (
	"fmt"

	"perfilter/internal/core"
	"perfilter/internal/hashing"
	"perfilter/internal/mem"
	"perfilter/internal/simd"
)

// maxLoad is the occupancy at which the table grows. Robin Hood probing
// stays fast well past 0.8; 0.85 keeps memory overhead modest.
const maxLoad = 0.85

// Set is an exact set of 32-bit keys. The zero value is not ready; use New.
type Set struct {
	slots []slot
	mask  uint32
	count int
}

// slot holds a key and its occupancy marker. dist is the probe distance
// from the key's home slot plus one; 0 marks an empty slot.
type slot struct {
	key  core.Key
	dist uint32
}

// New returns a set pre-sized for capacity keys.
func New(capacity int) *Set {
	size := uint32(16)
	for float64(size)*maxLoad < float64(capacity) {
		size <<= 1
	}
	return &Set{slots: mem.Make[slot](int(size)), mask: size - 1}
}

// home returns the key's preferred slot (multiplicative hashing, top bits).
func (s *Set) home(key core.Key) uint32 {
	return uint32(hashing.Mult64(key)>>32) & s.mask
}

// Insert adds key to the set; duplicate inserts are no-ops. It never
// fails (the table grows).
func (s *Set) Insert(key core.Key) error {
	if float64(s.count+1) > float64(len(s.slots))*maxLoad {
		s.grow()
	}
	// Phase 1: walk the key's probe path. The Robin Hood invariant means
	// the key, if present, appears before any slot whose occupant is closer
	// to its own home than we are to ours.
	idx := s.home(key)
	dist := uint32(1)
	for {
		sl := &s.slots[idx]
		if sl.dist == 0 {
			*sl = slot{key: key, dist: dist}
			s.count++
			return nil
		}
		if sl.key == key {
			return nil
		}
		if sl.dist < dist {
			break
		}
		dist++
		idx = (idx + 1) & s.mask
	}
	// Phase 2: the key is absent; place it here and ripple the displaced
	// entries forward ("steal from the rich").
	cur := slot{key: key, dist: dist}
	s.count++
	for {
		sl := &s.slots[idx]
		if sl.dist == 0 {
			*sl = cur
			return nil
		}
		if sl.dist < cur.dist {
			*sl, cur = cur, *sl
		}
		cur.dist++
		idx = (idx + 1) & s.mask
	}
}

// InsertBatch adds keys, one Insert per key; it never fails.
func (s *Set) InsertBatch(keys []core.Key) (int, error) {
	for _, k := range keys {
		s.Insert(k)
	}
	return len(keys), nil
}

// Contains reports whether key is in the set — exactly.
func (s *Set) Contains(key core.Key) bool {
	idx := s.home(key)
	dist := uint32(1)
	for {
		sl := s.slots[idx]
		if sl.dist == 0 || sl.dist < dist {
			// An empty slot, or an entry closer to home than we would be,
			// proves the key is absent (the Robin Hood invariant).
			return false
		}
		if sl.key == key {
			return true
		}
		dist++
		idx = (idx + 1) & s.mask
	}
}

// ContainsBatch appends matching positions to sel (the shared batched
// contract; exact sets produce no false positives at all).
func (s *Set) ContainsBatch(keys []core.Key, sel core.SelVec) core.SelVec {
	buf, cnt := simd.GrowSel(sel, len(keys))
	for i, key := range keys {
		buf[cnt] = uint32(i)
		cnt += simd.B2I(s.Contains(key))
	}
	return buf[:cnt]
}

// Delete removes key, returning whether it was present. Backward-shift
// deletion maintains the Robin Hood invariant without tombstones.
func (s *Set) Delete(key core.Key) bool {
	idx := s.home(key)
	dist := uint32(1)
	for {
		sl := s.slots[idx]
		if sl.dist == 0 || sl.dist < dist {
			return false
		}
		if sl.key == key {
			break
		}
		dist++
		idx = (idx + 1) & s.mask
	}
	// Shift successors back until an empty or home-positioned entry.
	for {
		next := (idx + 1) & s.mask
		ns := s.slots[next]
		if ns.dist <= 1 {
			s.slots[idx] = slot{}
			break
		}
		ns.dist--
		s.slots[idx] = ns
		idx = next
	}
	s.count--
	return true
}

// Len returns the number of keys in the set.
func (s *Set) Len() int { return s.count }

// SizeBits returns the memory footprint in bits (8 bytes per slot), for
// apples-to-apples comparisons with the approximate filters.
func (s *Set) SizeBits() uint64 { return uint64(len(s.slots)) * 64 }

// FPR is always 0: the set has no false positives.
func (s *Set) FPR(n uint64) float64 { return 0 }

// Reset removes all keys, keeping the capacity.
func (s *Set) Reset() {
	clear(s.slots)
	s.count = 0
}

// grow doubles the table and reinserts all entries.
func (s *Set) grow() {
	old := s.slots
	s.slots = mem.Make[slot](2 * len(old))
	s.mask = uint32(len(s.slots)) - 1
	s.count = 0
	for _, sl := range old {
		if sl.dist != 0 {
			s.Insert(sl.key)
		}
	}
}

// String summarizes the set.
func (s *Set) String() string {
	return fmt.Sprintf("exact[n=%d,slots=%d]", s.count, len(s.slots))
}
