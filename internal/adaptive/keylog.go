package adaptive

import (
	"sync"

	"perfilter/internal/core"
	"perfilter/internal/hashing"
)

// logStripes is the key log's lock-stripe count: enough to keep concurrent
// writers off each other's locks, few enough that a snapshot walk stays
// cheap. Must be a power of two.
const logStripes = 16

// KeyLog is an append-only, lock-striped record of every key inserted into
// an adaptive filter — the replay source that makes kind-changing
// migrations lossless. Approximate filters cannot enumerate their keys
// (Bloom stores bit positions, Cuckoo stores partial-key tags), so
// rebuilding a Bloom filter as a Cuckoo filter (or vice versa) requires
// the original keys; the log keeps them at 4 bytes each, comparable to the
// filter itself at the sweep's 16 bits/key midpoint.
//
// Appends take one stripe lock chosen by key hash; snapshots take each
// stripe lock briefly to capture a stable prefix. The log is a
// conservative superset of the filter's contents: a writer appends before
// inserting (the lossless-rotation recipe from internal/sharded), so a
// crash between the two leaves an extra logged key, which on replay adds
// at most a false positive — legal under the one-sided filter contract.
type KeyLog struct {
	stripes [logStripes]logStripe
}

type logStripe struct {
	mu   sync.Mutex
	keys []core.Key
	_    [4]uint64 // pad to keep neighbouring stripe locks off one line
}

// Append records one key. Call before inserting the key into the filter so
// the log-then-insert window overlaps every migration's snapshot-then-swap
// window (no acknowledged key is ever lost).
func (l *KeyLog) Append(k core.Key) {
	s := &l.stripes[hashing.TagHash(k)&(logStripes-1)]
	s.mu.Lock()
	s.keys = append(s.keys, k)
	s.mu.Unlock()
}

// AppendBatch records a batch of keys, grouping lock acquisitions so each
// stripe's lock is taken at most once per call.
func (l *KeyLog) AppendBatch(keys []core.Key) {
	switch len(keys) {
	case 0:
		return
	case 1: // Adaptive.Insert's path: skip the stripe-id scratch allocation
		l.Append(keys[0])
		return
	}
	// One hash pass, then one lock acquisition per touched stripe.
	ids := make([]uint8, len(keys))
	var touched [logStripes]bool
	for i, k := range keys {
		id := uint8(hashing.TagHash(k) & (logStripes - 1))
		ids[i] = id
		touched[id] = true
	}
	for si := range l.stripes {
		if !touched[si] {
			continue
		}
		s := &l.stripes[si]
		s.mu.Lock()
		for i, k := range keys {
			if ids[i] == uint8(si) {
				s.keys = append(s.keys, k)
			}
		}
		s.mu.Unlock()
	}
}

// Len returns the total number of logged keys (a live snapshot).
func (l *KeyLog) Len() uint64 {
	var n uint64
	for i := range l.stripes {
		s := &l.stripes[i]
		s.mu.Lock()
		n += uint64(len(s.keys))
		s.mu.Unlock()
	}
	return n
}

// Snapshot captures a stable view of every stripe: full-slice expressions
// over the current prefixes, so later appends reallocate rather than
// mutate the captured storage. Keys appended after the snapshot are
// exactly the ones a migration's dual-write window must (and does) catch.
func (l *KeyLog) Snapshot() LogSnapshot {
	var snap LogSnapshot
	for i := range l.stripes {
		s := &l.stripes[i]
		s.mu.Lock()
		snap.stripes[i] = s.keys[:len(s.keys):len(s.keys)]
		snap.n += uint64(len(s.keys))
		s.mu.Unlock()
	}
	return snap
}

// LogSnapshot is a stable point-in-time view of a KeyLog.
type LogSnapshot struct {
	stripes [logStripes][]core.Key
	n       uint64
}

// Len returns the snapshot's key count (duplicates included).
func (s LogSnapshot) Len() uint64 { return s.n }

// Replay feeds each distinct captured key to insert once, stopping at the
// first error — the right mode for migrations (re-inserting a duplicate
// buys nothing for Bloom filters and can saturate a Cuckoo bucket).
func (s LogSnapshot) Replay(insert func(core.Key) error) error {
	seen := make(map[core.Key]struct{}, s.n)
	for _, stripe := range s.stripes {
		for _, k := range stripe {
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			if err := insert(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// Keys flattens the snapshot into one slice (serialization path).
func (s LogSnapshot) Keys() []core.Key {
	out := make([]core.Key, 0, s.n)
	for _, stripe := range s.stripes {
		out = append(out, stripe...)
	}
	return out
}
