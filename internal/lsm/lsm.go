// Package lsm implements a log-structured merge-tree substrate: the
// high-tw filter use case from the paper's Figure 1 and §7 discussion of
// Monkey. Point lookups must consult every run that might hold the key;
// a per-run filter lets the tree skip runs, saving a (simulated) storage
// read whose cost plays the role of tw. Because storage reads cost tens of
// thousands to millions of cycles, this is the regime where the paper finds
// Cuckoo filters (lower f) beat blocked Bloom filters (cheaper lookups).
//
// The tree is single-writer, multi-reader: a memtable absorbs writes; full
// memtables flush to immutable sorted runs; when too many runs accumulate
// they are merged (full compaction). Deletes are tombstones. The storage
// device is simulated by a calibrated ALU spin per run probed
// (workload.Work), so experiments measure real elapsed time with a tunable
// tw that does not depend on the host's storage device.
package lsm

import (
	"fmt"
	"sort"

	"perfilter/internal/blocked"
	"perfilter/internal/core"
	"perfilter/internal/cuckoo"
	"perfilter/internal/workload"
)

// FilterKind selects the per-run filter.
type FilterKind uint8

const (
	// NoFilter probes every run.
	NoFilter FilterKind = iota
	// BloomFilter attaches a cache-sectorized blocked Bloom filter.
	BloomFilter
	// CuckooFilter attaches a cuckoo filter (l=16, b=2, magic).
	CuckooFilter
)

// Options configures the tree.
type Options struct {
	// MemtableSize is the number of entries buffered before a flush.
	MemtableSize int
	// MaxRuns triggers a full compaction when exceeded.
	MaxRuns int
	// Filter selects the per-run filter kind.
	Filter FilterKind
	// BitsPerKey sizes Bloom run filters (Cuckoo sizes itself by load).
	BitsPerKey int
	// ReadUnits is the simulated storage cost (≈cycles) per run probed.
	ReadUnits int
}

// DefaultOptions returns a small, test-friendly configuration.
func DefaultOptions() Options {
	return Options{
		MemtableSize: 4096,
		MaxRuns:      8,
		Filter:       BloomFilter,
		BitsPerKey:   14,
		ReadUnits:    20000,
	}
}

// entry is a key-value pair; tombstone marks deletion.
type entry struct {
	key       core.Key
	value     uint64
	tombstone bool
}

// runFilter is the per-run filter contract.
type runFilter interface {
	Contains(core.Key) bool
}

// run is an immutable sorted string table (in memory; reads are charged the
// simulated storage cost).
type run struct {
	entries []entry
	filter  runFilter
}

// get searches the run, charging the storage read cost only when the
// filter passes (or is absent).
func (r *run) get(key core.Key, opts Options, stats *Stats) (entry, bool) {
	if r.filter != nil {
		stats.FilterProbes++
		if !r.filter.Contains(key) {
			stats.SkippedReads++
			return entry{}, false
		}
	}
	stats.RunReads++
	workload.Work(opts.ReadUnits)
	i := sort.Search(len(r.entries), func(i int) bool {
		return r.entries[i].key >= key
	})
	if i < len(r.entries) && r.entries[i].key == key {
		return r.entries[i], true
	}
	stats.WastedReads++ // filter false positive (or no filter installed)
	return entry{}, false
}

// Stats counts filter effectiveness and storage traffic.
type Stats struct {
	Puts         uint64
	Gets         uint64
	Flushes      uint64
	Compactions  uint64
	FilterProbes uint64
	SkippedReads uint64 // storage reads avoided by a negative filter answer
	RunReads     uint64 // storage reads performed
	WastedReads  uint64 // reads that found nothing (false positives)
}

// Tree is the LSM tree. Not safe for concurrent use.
type Tree struct {
	opts     Options
	memtable map[core.Key]entry
	runs     []*run // newest first
	Stats    Stats
}

// New creates a tree.
func New(opts Options) *Tree {
	if opts.MemtableSize <= 0 {
		opts.MemtableSize = DefaultOptions().MemtableSize
	}
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = DefaultOptions().MaxRuns
	}
	if opts.BitsPerKey <= 0 {
		opts.BitsPerKey = DefaultOptions().BitsPerKey
	}
	return &Tree{opts: opts, memtable: make(map[core.Key]entry, opts.MemtableSize)}
}

// Put inserts or overwrites a key.
func (t *Tree) Put(key core.Key, value uint64) {
	t.Stats.Puts++
	t.memtable[key] = entry{key: key, value: value}
	t.maybeFlush()
}

// Delete writes a tombstone.
func (t *Tree) Delete(key core.Key) {
	t.Stats.Puts++
	t.memtable[key] = entry{key: key, tombstone: true}
	t.maybeFlush()
}

// Get returns the current value for key.
func (t *Tree) Get(key core.Key) (uint64, bool) {
	t.Stats.Gets++
	if e, ok := t.memtable[key]; ok {
		return e.value, !e.tombstone
	}
	for _, r := range t.runs {
		if e, ok := r.get(key, t.opts, &t.Stats); ok {
			return e.value, !e.tombstone
		}
	}
	return 0, false
}

// maybeFlush flushes a full memtable and compacts when runs pile up.
func (t *Tree) maybeFlush() {
	if len(t.memtable) < t.opts.MemtableSize {
		return
	}
	t.Flush()
	if len(t.runs) > t.opts.MaxRuns {
		t.Compact()
	}
}

// Flush turns the memtable into a new sorted run (newest first).
func (t *Tree) Flush() {
	if len(t.memtable) == 0 {
		return
	}
	t.Stats.Flushes++
	entries := make([]entry, 0, len(t.memtable))
	for _, e := range t.memtable {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	t.runs = append([]*run{t.newRun(entries)}, t.runs...)
	t.memtable = make(map[core.Key]entry, t.opts.MemtableSize)
}

// Compact merges all runs into one, dropping shadowed entries and
// tombstones that no longer shadow anything (single-level full compaction:
// tombstones at the bottom level can be discarded).
func (t *Tree) Compact() {
	if len(t.runs) <= 1 {
		return
	}
	t.Stats.Compactions++
	latest := make(map[core.Key]entry)
	// Oldest to newest so newer versions overwrite older ones.
	for i := len(t.runs) - 1; i >= 0; i-- {
		for _, e := range t.runs[i].entries {
			latest[e.key] = e
		}
	}
	entries := make([]entry, 0, len(latest))
	for _, e := range latest {
		if !e.tombstone { // bottom level: tombstones can drop
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	t.runs = []*run{t.newRun(entries)}
}

// newRun builds the immutable run and its filter.
func (t *Tree) newRun(entries []entry) *run {
	r := &run{entries: entries}
	n := uint64(len(entries))
	if n == 0 {
		return r
	}
	switch t.opts.Filter {
	case BloomFilter:
		f, err := blocked.New(
			blocked.CacheSectorizedParams(64, 512, 2, 8, true),
			n*uint64(t.opts.BitsPerKey))
		if err != nil {
			panic(fmt.Sprintf("lsm: bloom run filter: %v", err))
		}
		for _, e := range entries {
			f.Insert(e.key)
		}
		r.filter = f
	case CuckooFilter:
		p := cuckoo.Params{TagBits: 16, BucketSize: 2, Magic: true}
		f, err := cuckoo.New(p, p.SizeForKeys(n))
		if err != nil {
			panic(fmt.Sprintf("lsm: cuckoo run filter: %v", err))
		}
		for _, e := range entries {
			if err := f.Insert(e.key); err != nil {
				// Fall back to filterless on overflow (never expected at
				// SizeForKeys sizing).
				r.filter = nil
				return r
			}
		}
		r.filter = f
	}
	return r
}

// Runs returns the current run count (after compactions).
func (t *Tree) Runs() int { return len(t.runs) }

// Len returns the number of live keys (linear scan; diagnostics only).
func (t *Tree) Len() int {
	seen := make(map[core.Key]bool)
	n := 0
	for k, e := range t.memtable {
		seen[k] = true
		if !e.tombstone {
			n++
		}
	}
	for _, r := range t.runs {
		for _, e := range r.entries {
			if !seen[e.key] {
				seen[e.key] = true
				if !e.tombstone {
					n++
				}
			}
		}
	}
	return n
}
