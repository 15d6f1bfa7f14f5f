// Package semijoin implements the distributed semi-join optimization the
// paper cites for MPP exchange operators (§1, [21]): before shuffling
// probe-side tuples between compute nodes, the build side broadcasts an
// approximate filter so tuples without a join partner are never sent.
//
// The "network" is an in-process exchange between goroutine workers with
// per-message and per-byte cost accounting; the work saved per suppressed
// tuple (serialization + transfer + remote probe) corresponds to a large tw
// in the paper's model — one of the mid-range reference points in Figure 1
// ("tuple over network, amortized"). The network is simulated so the
// experiment runs on one host, with a tw set by the cost accounting rather
// than by whatever network the host happens to have.
package semijoin

import (
	"sync"

	"perfilter/internal/core"
	"perfilter/internal/hashing"
	"perfilter/internal/join"
)

// NetCost models the cost of the simulated interconnect, in cycles.
type NetCost struct {
	// PerMessage is the fixed cost of one exchange message (syscalls,
	// framing, NIC doorbell).
	PerMessage uint64
	// PerTupleBytes is the serialized size of one probe tuple.
	PerTupleBytes uint64
	// PerByte is the transfer cost per byte.
	PerByte uint64
}

// DefaultNetCost approximates an amortized 10GbE exchange: large messages,
// ~1 cycle/byte effective, 12-byte tuples (key + rowid).
func DefaultNetCost() NetCost {
	return NetCost{PerMessage: 20000, PerTupleBytes: 12, PerByte: 1}
}

// TupleCost returns the modeled cycles to ship n tuples in one message.
func (c NetCost) TupleCost(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return c.PerMessage + n*c.PerTupleBytes*c.PerByte
}

// Stats aggregates a run.
type Stats struct {
	// TuplesShipped counts probe tuples sent across the exchange.
	TuplesShipped uint64
	// TuplesSuppressed counts probe tuples the broadcast filter dropped
	// before shipping.
	TuplesSuppressed uint64
	// Messages counts exchange messages.
	Messages uint64
	// NetCycles is the modeled network cost (NetCost applied).
	NetCycles uint64
	// FilterBroadcastBytes is the one-time cost of shipping the filter to
	// every probe node.
	FilterBroadcastBytes uint64
	// Matches and Agg are the join result (for cross-checking).
	Matches uint64
	Agg     uint64
}

// Cluster is a simulated MPP cluster: build-side rows are hash-partitioned
// across Workers nodes, each holding a join hash table of its partition.
type Cluster struct {
	Workers int
	Net     NetCost
	tables  []*join.HashTable
	filters []core.BatchProber // optional per-partition broadcast filters
}

// NewCluster partitions the build side by key hash and builds one hash
// table per worker.
func NewCluster(workers int, buildKeys []core.Key, net NetCost) *Cluster {
	if workers < 1 {
		panic("semijoin: need at least one worker")
	}
	parts := make([][]core.Key, workers)
	for _, k := range buildKeys {
		w := partition(k, workers)
		parts[w] = append(parts[w], k)
	}
	c := &Cluster{Workers: workers, Net: net}
	c.tables = make([]*join.HashTable, workers)
	for w := 0; w < workers; w++ {
		c.tables[w] = join.BuildHashTable(parts[w], join.Payloads(parts[w]))
	}
	return c
}

// partition routes a key to its owning worker (multiplicative hash high
// bits, reduced without modulo bias).
func partition(k core.Key, workers int) int {
	h := uint64(hashing.Mult32(k))
	return int(h * uint64(workers) >> 32)
}

// InstallFilters builds one approximate filter per partition (from a
// factory, so callers choose Bloom/Cuckoo/exact and sizing) and accounts
// its broadcast cost: every probe node needs every partition's filter.
func (c *Cluster) InstallFilters(build []core.Key, factory func(keys []core.Key) (core.BatchProber, uint64)) uint64 {
	parts := make([][]core.Key, c.Workers)
	for _, k := range build {
		w := partition(k, c.Workers)
		parts[w] = append(parts[w], k)
	}
	c.filters = make([]core.BatchProber, c.Workers)
	var totalBits uint64
	for w := 0; w < c.Workers; w++ {
		f, bits := factory(parts[w])
		c.filters[w] = f
		totalBits += bits
	}
	// Broadcast: every one of the Workers probe nodes receives all filters.
	return totalBits / 8 * uint64(c.Workers)
}

// RemoveFilters disables the semi-join optimization.
func (c *Cluster) RemoveFilters() { c.filters = nil }

// Run executes the distributed probe: probe tuples are routed to their
// partition's worker; with filters installed, each tuple is tested locally
// before shipping. Workers probe their hash tables concurrently and the
// coordinator folds the partial aggregates.
func (c *Cluster) Run(probe []core.Key) Stats {
	var stats Stats
	// Route (and locally filter) the probe stream per destination worker.
	outbox := make([][]core.Key, c.Workers)
	batchBuf := make([]core.Key, 0, core.DefaultBatch)
	sel := make(core.SelVec, 0, core.DefaultBatch)
	for w := 0; w < c.Workers; w++ {
		outbox[w] = outbox[w][:0]
	}
	// Partition first (cheap local work).
	for _, k := range probe {
		outbox[partition(k, c.Workers)] = append(outbox[partition(k, c.Workers)], k)
	}
	// Apply the broadcast filter per destination, batched.
	if c.filters != nil {
		for w := 0; w < c.Workers; w++ {
			kept := outbox[w][:0]
			keys := outbox[w]
			for off := 0; off < len(keys); off += core.DefaultBatch {
				end := off + core.DefaultBatch
				if end > len(keys) {
					end = len(keys)
				}
				batchBuf = append(batchBuf[:0], keys[off:end]...)
				sel = c.filters[w].ContainsBatch(batchBuf, sel[:0])
				for _, pos := range sel {
					kept = append(kept, batchBuf[pos])
				}
			}
			stats.TuplesSuppressed += uint64(len(keys) - len(kept))
			outbox[w] = kept
		}
	}
	// Exchange + remote probe, one goroutine per worker.
	partial := make([]Stats, c.Workers)
	var wg sync.WaitGroup
	for w := 0; w < c.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			msg := outbox[w]
			ps := &partial[w]
			if len(msg) > 0 {
				ps.Messages = 1
				ps.TuplesShipped = uint64(len(msg))
				ps.NetCycles = c.Net.TupleCost(uint64(len(msg)))
			}
			for _, k := range msg {
				if payload, ok := c.tables[w].Probe(k); ok {
					ps.Matches++
					ps.Agg += payload
				}
			}
		}(w)
	}
	wg.Wait()
	for _, ps := range partial {
		stats.TuplesShipped += ps.TuplesShipped
		stats.Messages += ps.Messages
		stats.NetCycles += ps.NetCycles
		stats.Matches += ps.Matches
		stats.Agg += ps.Agg
	}
	return stats
}
