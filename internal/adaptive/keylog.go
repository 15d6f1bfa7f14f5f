package adaptive

import (
	"sync"

	"perfilter/internal/core"
	"perfilter/internal/hashing"
)

// Chunk sizes of the key log. The first chunk is small so a small filter's
// log costs 1 KiB. Each later chunk is as large as all earlier ones
// together, so the capacity doubles, until chunks reach maxChunkKeys (256
// KiB), which bounds both the unused tail and the size of one allocation.
const (
	firstChunkKeys = 1 << 8
	maxChunkKeys   = 1 << 16
)

// logStripes is the number of groups Keys and Replay order the log by
// (TagHash(k) & (logStripes-1)), a grouping inherited from an earlier log
// that kept one locked slice per group. The order is observable: an
// adaptive envelope carries the keys in it, and a cuckoo filter rebuilt
// by Replay places its tags by it. Keeping it keeps envelopes and
// migrated filters byte-identical to those the earlier log produced.
// Must be a power of two.
const logStripes = 16

// KeyLog is an append-only record of every key inserted into an adaptive
// filter — the replay source that makes kind-changing migrations
// lossless. Approximate filters cannot enumerate their keys (Bloom stores
// bit positions, Cuckoo stores partial-key tags), so rebuilding a Bloom
// filter as a Cuckoo filter (or vice versa) requires the original keys;
// the log keeps them at 4 bytes each, comparable to the filter itself at
// the sweep's 16 bits/key midpoint.
//
// Every insert pays one append, so the write path is kept at memory
// speed: one mutex over a list of chunks in arrival order, where an append
// copies into the tail chunk and starts a new one when it is full. A full
// chunk is never written or copied again. Any reordering is paid on the
// cold read path (Keys, Replay), which runs once per migration or
// snapshot.
//
// The log is a conservative superset of the filter's contents: a writer
// appends before inserting (the lossless-rotation recipe from
// internal/sharded), so a crash between the two leaves an extra logged
// key, which on replay adds at most a false positive — legal under the
// one-sided filter contract.
type KeyLog struct {
	mu sync.Mutex
	// chunks holds the keys in arrival order. Every chunk but the last is
	// full (len == cap); appends write only past the last chunk's len.
	chunks [][]core.Key
	n      uint64
}

// Append records one key. Call before inserting the key into the filter so
// the log-then-insert window overlaps every migration's snapshot-then-swap
// window (no acknowledged key is ever lost).
func (l *KeyLog) Append(k core.Key) { l.AppendBatch([]core.Key{k}) }

// AppendBatch records a batch of keys under one lock acquisition.
func (l *KeyLog) AppendBatch(keys []core.Key) {
	if len(keys) == 0 {
		return
	}
	l.mu.Lock()
	for len(keys) > 0 {
		tail := l.tailLocked()
		c := copy(tail[len(tail):cap(tail)], keys)
		l.chunks[len(l.chunks)-1] = tail[:len(tail)+c]
		l.n += uint64(c)
		keys = keys[c:]
	}
	l.mu.Unlock()
}

// tailLocked returns the last chunk, first starting a new one if the last
// is full (or none exists), so the result always has room for one key.
// Caller holds l.mu.
func (l *KeyLog) tailLocked() []core.Key {
	if len(l.chunks) > 0 {
		if tail := l.chunks[len(l.chunks)-1]; len(tail) < cap(tail) {
			return tail
		}
	}
	// Every chunk is full, so l.n is the log's capacity. A new chunk that
	// large doubles it, as a growing slice would, without copying.
	tail := make([]core.Key, 0, min(max(int(l.n), firstChunkKeys), maxChunkKeys))
	l.chunks = append(l.chunks, tail)
	return tail
}

// Len returns the total number of logged keys (a live snapshot).
func (l *KeyLog) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Snapshot captures a stable view of the log: a copy of the chunk headers,
// whose lengths fix the captured prefix. Later appends write only past
// those lengths (or into new chunks), so the captured keys never change.
// Keys appended after the snapshot are exactly the ones a migration's
// dual-write window must (and does) catch.
func (l *KeyLog) Snapshot() LogSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogSnapshot{chunks: append([][]core.Key(nil), l.chunks...), n: l.n}
}

// LogSnapshot is a stable point-in-time view of a KeyLog.
type LogSnapshot struct {
	chunks [][]core.Key
	n      uint64
}

// Len returns the snapshot's key count (duplicates included).
func (s LogSnapshot) Len() uint64 { return s.n }

// Replay feeds each distinct captured key to insert once, in Keys order,
// stopping at the first error — the right mode for migrations
// (re-inserting a duplicate buys nothing for Bloom filters and can
// saturate a Cuckoo bucket).
func (s LogSnapshot) Replay(insert func(core.Key) error) error {
	seen := make(map[core.Key]struct{}, s.n)
	for _, k := range s.Keys() {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		if err := insert(k); err != nil {
			return err
		}
	}
	return nil
}

// Keys returns the captured keys in stripe-major order: grouped by
// TagHash(k) & (logStripes-1), in arrival order within each group. A
// stable counting partition of the arrival-order chunks builds it.
func (s LogSnapshot) Keys() []core.Key {
	var start [logStripes]int
	for _, c := range s.chunks {
		for _, k := range c {
			start[stripeOf(k)]++
		}
	}
	sum := 0
	for i, c := range start {
		start[i] = sum
		sum += c
	}
	out := make([]core.Key, s.n)
	for _, c := range s.chunks {
		for _, k := range c {
			st := stripeOf(k)
			out[start[st]] = k
			start[st]++
		}
	}
	return out
}

func stripeOf(k core.Key) uint32 { return hashing.TagHash(k) & (logStripes - 1) }
