package adaptive

import (
	"math/bits"
	"slices"
	"sync"

	"perfilter/internal/core"
)

// Sizes of the key log. The raw tail starts at firstChunkKeys, so a small
// filter's log costs 1 KiB, and doubles until it holds segmentKeys keys
// (256 KiB). A full segment is sealed into one run.
//
// The log keeps up to maxSpareSegments empty segment buffers for later
// tails. While inserts run flat out, the sealer trails the appenders by a
// segment or two (a 512 MiB blocked filter filled over loopback HTTP on
// two vCPUs kept two queued). With one spare, 107 of that fill's 256
// segments took a fresh buffer; with four, 3 did. Buffers beyond the
// spares go to the collector.
const (
	firstChunkKeys   = 1 << 8
	segmentKeys      = 1 << 16
	maxSpareSegments = 4
)

// KeyLog is an append-only record of every key inserted into an adaptive
// filter — the replay source that makes kind-changing migrations
// lossless. Approximate filters cannot enumerate their keys (Bloom stores
// bit positions, Cuckoo stores partial-key tags), so rebuilding a Bloom
// filter as a Cuckoo filter (or vice versa) requires the original keys.
//
// The log is log-structured, after the cascade filter of "Don't Thrash:
// How to Cache Your Hash on Flash". Appends copy raw keys into a tail
// under one mutex, so the insert path stays at memory speed. Every full
// segment of segmentKeys raw keys is handed to a sealer goroutine, which
// encodes it, outside the lock, into an immutable run of about 18 bits
// per key (see run) and then publishes the run under the lock. The
// segment's buffer is then kept as a spare for a later tail, so a sealer
// that keeps up leaves no garbage. Runs are never merged.
//
// The log is a conservative superset of the filter's contents: a writer
// appends before inserting (the lossless-rotation recipe from
// internal/sharded), so a crash between the two leaves an extra logged
// key, which on replay adds at most a false positive — legal under the
// one-sided filter contract.
type KeyLog struct {
	mu sync.Mutex
	// In arrival order, the log is runs, then sealing, then tail.
	runs    []*run       // sealed segments, in seal order; never modified
	sealing [][]core.Key // full segments waiting for the sealer
	tail    []core.Key   // raw keys; appends write only past len
	free    [][]core.Key // empty segment buffers for later tails
	n       uint64       // keys logged
	// sealerOn reports that a sealer goroutine owns sealing[0] and tmp.
	sealerOn bool
	tmp      []core.Key // the sealer's radix-sort scratch
}

// Append records one key. Call before inserting the key into the filter so
// the log-then-insert window overlaps every migration's snapshot-then-swap
// window (no acknowledged key is ever lost).
func (l *KeyLog) Append(k core.Key) { l.AppendBatch([]core.Key{k}) }

// AppendBatch records a batch of keys under one lock acquisition. When
// the batch fills a segment and no sealer runs, it starts one; the sealer
// exits once no full segment is left.
func (l *KeyLog) AppendBatch(keys []core.Key) {
	if len(keys) == 0 {
		return
	}
	start := false
	l.mu.Lock()
	for len(keys) > 0 {
		if c := cap(l.tail); len(l.tail) == c {
			// Only a tail below segmentKeys fills up here; double it.
			l.tail = append(make([]core.Key, 0, min(max(2*c, firstChunkKeys), segmentKeys)), l.tail...)
		}
		c := copy(l.tail[len(l.tail):cap(l.tail)], keys)
		l.tail = l.tail[:len(l.tail)+c]
		l.n += uint64(c)
		keys = keys[c:]
		if len(l.tail) == segmentKeys {
			start = l.queueLocked() || start
		}
	}
	l.mu.Unlock()
	if start {
		go l.seal()
	}
}

// queueLocked queues the full tail for sealing behind a recycled (or new)
// empty tail. It reports whether the caller must start the sealer. Caller
// holds l.mu.
func (l *KeyLog) queueLocked() bool {
	l.sealing = append(l.sealing, l.tail)
	if last := len(l.free) - 1; last >= 0 {
		l.tail, l.free = l.free[last], l.free[:last]
	} else {
		l.tail = make([]core.Key, 0, segmentKeys)
	}
	if l.sealerOn {
		return false
	}
	l.sealerOn = true
	return true
}

// seal encodes queued segments in arrival order until none is left. Only
// one sealer runs at a time (sealerOn), so runs are published in the
// order their segments filled, and only it reads sealing[0] or writes
// tmp.
func (l *KeyLog) seal() {
	l.mu.Lock()
	for len(l.sealing) > 0 {
		seg := l.sealing[0]
		l.mu.Unlock()
		if l.tmp == nil {
			l.tmp = make([]core.Key, segmentKeys)
		}
		r := encodeRun(seg, l.tmp)
		l.mu.Lock()
		l.runs = append(l.runs, r)
		l.sealing = slices.Delete(l.sealing, 0, 1)
		// Snapshots copy unsealed keys, so no snapshot references seg.
		if len(l.free) < maxSpareSegments {
			l.free = append(l.free, seg[:0])
		}
	}
	l.sealerOn = false
	l.mu.Unlock()
}

// Len returns the total number of logged keys (a live snapshot).
func (l *KeyLog) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Bits returns the log's footprint in bits: the encoded size of every
// sealed run plus 32 bits per key still raw (in the tail or waiting to be
// sealed).
func (l *KeyLog) Bits() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	total, raw := uint64(0), l.n
	for _, r := range l.runs {
		total += r.bits()
		raw -= uint64(len(r.lows))
	}
	return total + 32*raw
}

// Snapshot captures a stable view of the log: the sealed runs, which are
// immutable, and a copy of the keys not yet sealed (at most a few
// segments). Recycling a sealed segment's buffer therefore cannot change
// a snapshot. Keys appended after the snapshot are exactly the ones a
// migration's dual-write window must (and does) catch.
func (l *KeyLog) Snapshot() LogSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	raw := make([]core.Key, 0, len(l.sealing)*segmentKeys+len(l.tail))
	for _, seg := range l.sealing {
		raw = append(raw, seg...)
	}
	raw = append(raw, l.tail...)
	return LogSnapshot{runs: slices.Clip(l.runs), raw: raw, n: l.n}
}

// LogSnapshot is a stable point-in-time view of a KeyLog.
type LogSnapshot struct {
	runs []*run
	raw  []core.Key // keys after the runs, in arrival order
	n    uint64
}

// Len returns the snapshot's key count (duplicates included).
func (s LogSnapshot) Len() uint64 { return s.n }

// Keys returns the captured keys in arrival order, stably sorted by
// k>>16: bucket-major, and in arrival order within a bucket.
func (s LogSnapshot) Keys() []core.Key {
	out := make([]core.Key, 0, s.n)
	s.walk(func(hi uint32, lows []uint16) error {
		for _, lo := range lows {
			out = append(out, hi<<16|uint32(lo))
		}
		return nil
	})
	return out
}

// Replay feeds each distinct captured key to insert once, at its first
// occurrence in Keys order, stopping at the first error — the right mode
// for migrations (re-inserting a duplicate buys nothing for Bloom filters
// and can saturate a Cuckoo bucket). Keys order is bucket-major, so the
// keys of one k>>16 bucket arrive together and one 64 Ki-bit bitmap of
// their low halves finds the duplicates; only the words a bucket set are
// cleared before the next bucket.
func (s LogSnapshot) Replay(insert func(core.Key) error) error {
	var (
		seen  [1 << 16 / 64]uint64
		dirty = make([]uint16, 0, len(seen)) // words of seen that are set
		cur   uint32
	)
	return s.walk(func(hi uint32, lows []uint16) error {
		if hi != cur {
			for _, w := range dirty {
				seen[w] = 0
			}
			dirty, cur = dirty[:0], hi
		}
		for _, lo := range lows {
			w, bit := lo>>6, uint64(1)<<(lo&63)
			if seen[w]&bit != 0 {
				continue
			}
			if seen[w] == 0 {
				dirty = append(dirty, w)
			}
			seen[w] |= bit
			if err := insert(hi<<16 | uint32(lo)); err != nil {
				return err
			}
		}
		return nil
	})
}

// walk calls visit with the low halves of the captured keys in Keys
// order: for each bucket hi = k>>16 in increasing order, once per run in
// seal order, then once for the unsealed keys, skipping empty ones. It
// stops at visit's first error. The unsealed keys are encoded into a run
// here first.
func (s LogSnapshot) walk(visit func(hi uint32, lows []uint16) error) error {
	runs := s.runs
	if len(s.raw) > 0 {
		runs = append(slices.Clip(runs), encodeRun(s.raw, make([]core.Key, len(s.raw))))
	}
	next := make([]int, len(runs)) // each run's first key of bucket hi
	for hi := uint32(0); hi < 1<<16; hi++ {
		for i, r := range runs {
			c := r.ones(int(hi) + next[i])
			if c == 0 {
				continue
			}
			if err := visit(hi, r.lows[next[i]:next[i]+c]); err != nil {
				return err
			}
			next[i] += c
		}
	}
	return nil
}

// run is one sealed segment in Elias–Fano form with a 16-bit split: the
// keys, stably sorted by k>>16, as a unary upper vector plus their low
// halves. The i-th key sets bit (k>>16)+i of upper, so bucket hi's keys
// are the run of ones after the hi-th zero, and every bucket, empty or
// not, ends in a zero. upper holds 2^16+n bits and lows 16n, so a
// segment of 2^16 keys costs 18 bits per key.
type run struct {
	upper []uint64
	lows  []uint16
}

// encodeRun seals keys into a run with a stable LSD radix sort on k>>16:
// one pass counts both 8-bit digits, a second orders the keys by the
// lower digit into tmp, and a third writes each key's low half and upper
// bit straight to its position by the upper digit. Both digit tables fit
// in L1, which a single 2^16-entry counting sort does not. tmp must hold
// len(keys) keys.
func encodeRun(keys, tmp []core.Key) *run {
	var lo, hi [256]uint32 // digit counts, then next positions
	for _, k := range keys {
		lo[k>>16&255]++
		hi[k>>24]++
	}
	var sumLo, sumHi uint32
	for d := range lo {
		lo[d], sumLo = sumLo, sumLo+lo[d]
		hi[d], sumHi = sumHi, sumHi+hi[d]
	}
	tmp = tmp[:len(keys)]
	for _, k := range keys {
		d := k >> 16 & 255
		tmp[lo[d]] = k
		lo[d]++
	}
	r := &run{upper: make([]uint64, (1<<16+len(keys)+63)/64), lows: make([]uint16, len(keys))}
	for _, k := range tmp {
		d := k >> 24
		i := hi[d]
		hi[d]++
		r.lows[i] = uint16(k)
		p := uint64(k>>16) + uint64(i)
		r.upper[p>>6] |= 1 << (p & 63)
	}
	return r
}

// bits returns the run's encoded size.
func (r *run) bits() uint64 { return 64*uint64(len(r.upper)) + 16*uint64(len(r.lows)) }

// ones counts the consecutive set bits of upper from bit p on: the key
// count of the bucket starting there.
func (r *run) ones(p int) int {
	c := 0
	for {
		s := p & 63
		t := bits.TrailingZeros64(^(r.upper[p>>6] >> s))
		c += t
		if t < 64-s {
			return c
		}
		p += t
	}
}
