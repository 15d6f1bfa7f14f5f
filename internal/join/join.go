// Package join implements the paper's motivating use case (Fig. 2):
// selective equi-join pushdown in a vectorized query pipeline.
//
// A foreign-key join probes a hash table built from the (filtered)
// dimension side. Installing an approximate filter at the bottom of the
// probe pipeline eliminates fact tuples without a join partner before they
// incur the per-tuple pipeline work tw — the quantity the whole paper's
// model is about. The pipeline is vector-at-a-time with selection vectors,
// the processing style the batched filter interface is designed for.
//
// The per-tuple work between scan and probe is generated by a calibrated
// ALU spin (workload.Work), standing in for decompression, expression
// evaluation, or exchange costs, so tw is a tunable input rather than a
// property of one query engine.
package join

import (
	"time"

	"perfilter/internal/core"
	"perfilter/internal/hashing"
	"perfilter/internal/workload"
)

// HashTable is the build side of the join: open-addressing linear-probing
// table mapping key → payload.
type HashTable struct {
	keys     []core.Key
	payloads []uint64
	occupied []bool
	mask     uint32
	count    int
}

// BuildHashTable constructs the join hash table from parallel key/payload
// slices (duplicate keys keep the first payload).
func BuildHashTable(keys []core.Key, payloads []uint64) *HashTable {
	if len(keys) != len(payloads) {
		panic("join: keys and payloads must align")
	}
	size := uint32(16)
	for float64(size)*0.7 < float64(len(keys)) {
		size <<= 1
	}
	ht := &HashTable{
		keys:     make([]core.Key, size),
		payloads: make([]uint64, size),
		occupied: make([]bool, size),
		mask:     size - 1,
	}
	for i, k := range keys {
		ht.insert(k, payloads[i])
	}
	return ht
}

func (ht *HashTable) insert(key core.Key, payload uint64) {
	idx := uint32(hashing.Mult64(key)>>32) & ht.mask
	for ht.occupied[idx] {
		if ht.keys[idx] == key {
			return
		}
		idx = (idx + 1) & ht.mask
	}
	ht.keys[idx] = key
	ht.payloads[idx] = payload
	ht.occupied[idx] = true
	ht.count++
}

// Probe looks up a key, returning its payload and whether it joined.
func (ht *HashTable) Probe(key core.Key) (uint64, bool) {
	idx := uint32(hashing.Mult64(key)>>32) & ht.mask
	for ht.occupied[idx] {
		if ht.keys[idx] == key {
			return ht.payloads[idx], true
		}
		idx = (idx + 1) & ht.mask
	}
	return 0, false
}

// Len returns the number of distinct build keys.
func (ht *HashTable) Len() int { return ht.count }

// Config describes one pipeline run.
type Config struct {
	// Filter, if non-nil, is pushed down into the scan: only keys it
	// passes flow up the pipeline. Any of the repository's filters
	// satisfies the interface.
	Filter core.BatchProber
	// TwUnits is the artificial per-tuple pipeline work (≈cycles) charged
	// to every tuple that survives the scan — the work a negative filter
	// lookup saves.
	TwUnits int
	// Batch is the vector size (default core.DefaultBatch).
	Batch int
}

// Result captures pipeline metrics.
type Result struct {
	// Scanned is the number of fact tuples read.
	Scanned uint64
	// AfterFilter is the number of tuples surviving the pushdown (equals
	// Scanned when no filter is installed).
	AfterFilter uint64
	// Matches is the number of joined tuples.
	Matches uint64
	// Agg is Σ payload over joined tuples — the query answer, used to
	// verify that filtering never changes results.
	Agg uint64
	// Elapsed is the wall time of the probe pipeline.
	Elapsed time.Duration
}

// Run executes the probe pipeline over the fact keys: scan → (filter
// pushdown) → per-tuple work → hash probe → aggregate.
func Run(fact []core.Key, ht *HashTable, cfg Config) Result {
	batch := cfg.Batch
	if batch <= 0 {
		batch = core.DefaultBatch
	}
	var res Result
	sel := make(core.SelVec, 0, batch)
	var workSink uint64
	start := time.Now()
	for off := 0; off < len(fact); off += batch {
		end := off + batch
		if end > len(fact) {
			end = len(fact)
		}
		vec := fact[off:end]
		res.Scanned += uint64(len(vec))

		if cfg.Filter != nil {
			sel = cfg.Filter.ContainsBatch(vec, sel[:0])
			res.AfterFilter += uint64(len(sel))
			for _, pos := range sel {
				workSink += workload.Work(cfg.TwUnits)
				if payload, ok := ht.Probe(vec[pos]); ok {
					res.Matches++
					res.Agg += payload
				}
			}
			continue
		}
		res.AfterFilter += uint64(len(vec))
		for _, k := range vec {
			workSink += workload.Work(cfg.TwUnits)
			if payload, ok := ht.Probe(k); ok {
				res.Matches++
				res.Agg += payload
			}
		}
	}
	res.Elapsed = time.Since(start)
	_ = workSink
	return res
}

// Payloads derives a deterministic payload column for a key column (tests
// and examples share it so aggregates are comparable).
func Payloads(keys []core.Key) []uint64 {
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = uint64(k)*2654435761 + 1
	}
	return out
}

// SelectivitySweepPoint runs the pipeline with and without the filter and
// returns the speedup (timeWithout / timeWith) — the end-to-end payoff
// measurement behind the σ-threshold decision of §1/§2.
func SelectivitySweepPoint(fact []core.Key, ht *HashTable, filter core.BatchProber, twUnits int) (speedup float64, with, without Result) {
	without = Run(fact, ht, Config{TwUnits: twUnits})
	with = Run(fact, ht, Config{Filter: filter, TwUnits: twUnits})
	if with.Elapsed <= 0 {
		return 1, with, without
	}
	return float64(without.Elapsed) / float64(with.Elapsed), with, without
}
