package bench

import (
	"context"
	"runtime"
	"sync"
	"time"

	"perfilter/internal/blocked"
	"perfilter/internal/calibrate"
	"perfilter/internal/core"
	"perfilter/internal/model"
	"perfilter/internal/rng"
	"perfilter/internal/sharded"
)

// The parallel-throughput experiment extends the paper's single-threaded
// cost model to the service setting: aggregate insert and probe
// throughput versus goroutine count, for the sharded wrapper against the
// only alternative the base kernels allow — one filter behind one mutex
// ("writes need external synchronization"). The headline cache-sectorized
// configuration is used for both sides so the delta is purely the
// synchronization strategy.

// headline is the cache-sectorized default both sides of the experiment
// build.
var headline = model.Config{Kind: model.KindBlockedBloom, Bloom: blocked.DefaultParams()}

func newSharded(mBits uint64, shards int) (*sharded.Filter, error) {
	// SplitBits applies the same rounding sharded.New will, so the
	// sharded side totals the same memory as the baseline.
	perShard, shards := sharded.SplitBits(mBits, shards)
	return sharded.New(func() (sharded.Inner, error) {
		return headline.New(perShard)
	}, shards)
}

// mutexFilter is the baseline: the same total filter behind one lock.
type mutexFilter struct {
	mu sync.Mutex
	f  core.Filter
}

// measureParallel runs work on each of g goroutines at once and returns
// the sum of their rates; work(w) returns goroutine w's operations per
// second.
func measureParallel(g int, work func(w int) float64) float64 {
	rates := make([]float64, g)
	var wg sync.WaitGroup
	wg.Add(g)
	for w := range rates {
		go func() {
			defer wg.Done()
			rates[w] = work(w)
		}()
	}
	wg.Wait()
	var sum float64
	for _, r := range rates {
		sum += r
	}
	return sum
}

// probeThroughput runs calibrate's timing loop on g goroutines at once,
// each from its own offset into the probe stream, and returns aggregate
// lookups per second.
func probeThroughput(probe func([]core.Key, core.SelVec) core.SelVec, g int, d time.Duration) float64 {
	stream := calibrate.Stream()
	return measureParallel(g, func(w int) float64 {
		return 1e9 / calibrate.Time(probe, stream[w*len(stream)/(2*g):], core.DefaultBatch, d)
	})
}

// insertRate inserts random keys (seeded by w) in rounds of 4096 until d
// has passed and returns keys per second.
func insertRate(w int, d time.Duration, insert func(core.Key)) float64 {
	r := rng.NewMT19937(uint32(1 + w))
	var n uint64
	start := time.Now()
	for time.Since(start) < d {
		for range 4096 {
			insert(r.Uint32())
		}
		n += 4096
	}
	return float64(n) / time.Since(start).Seconds()
}

// defaultShards picks the shard count for the experiment: the library's
// own recommendation at the largest tested concurrency, with a key count
// large enough not to trigger the tiny-workload collapse.
func defaultShards(goroutines []int) int {
	maxG := 1
	for _, g := range goroutines {
		if g > maxG {
			maxG = g
		}
	}
	return sharded.Recommend(1<<30, maxG)
}

// ParallelInsert measures aggregate insert throughput (keys/second) for
// each goroutine count: the sharded filter (per-shard locks) against the
// mutex-guarded monolithic baseline, both mBits total. shards <= 0 picks
// defaultShards.
func ParallelInsert(goroutines []int, shards int, mBits uint64, eff Effort) []Series {
	if shards <= 0 {
		shards = defaultShards(goroutines)
	}
	shardedS := Series{
		Name: "sharded", XLabel: "goroutines", YLabel: "keys/s",
	}
	mutexS := Series{
		Name: "mutex", XLabel: "goroutines", YLabel: "keys/s",
	}
	for _, g := range goroutines {
		sf, err := newSharded(mBits, shards)
		if err != nil {
			panic(err)
		}
		shardedS.X = append(shardedS.X, float64(g))
		shardedS.Y = append(shardedS.Y, measureParallel(g, func(w int) float64 {
			return insertRate(w, eff.MinTime, func(k core.Key) { sf.Insert(k) })
		}))

		mf, err := headline.New(mBits)
		if err != nil {
			panic(err)
		}
		base := &mutexFilter{f: mf}
		mutexS.X = append(mutexS.X, float64(g))
		mutexS.Y = append(mutexS.Y, measureParallel(g, func(w int) float64 {
			return insertRate(w, eff.MinTime, func(k core.Key) {
				base.mu.Lock()
				base.f.Insert(k)
				base.mu.Unlock()
			})
		}))
	}
	return []Series{shardedS, mutexS}
}

// ParallelProbe measures aggregate batched-probe throughput (keys/second,
// batches of core.DefaultBatch from the probe stream) for each goroutine
// count: the sharded filter's scatter/gather against the mutex-guarded
// baseline. Both are filled with calibrate's fill keys for mBits.
func ParallelProbe(goroutines []int, shards int, mBits uint64, eff Effort) []Series {
	if shards <= 0 {
		shards = defaultShards(goroutines)
	}
	sf, err := newSharded(mBits, shards)
	if err != nil {
		panic(err)
	}
	if _, err := sf.InsertBatch(context.Background(), calibrate.FillKeys(headline, mBits)); err != nil {
		panic(err)
	}
	base := &mutexFilter{f: build(headline, mBits)}

	shardedS := Series{Name: "sharded", XLabel: "goroutines", YLabel: "keys/s"}
	mutexS := Series{Name: "mutex", XLabel: "goroutines", YLabel: "keys/s"}
	for _, g := range goroutines {
		shardedS.X = append(shardedS.X, float64(g))
		shardedS.Y = append(shardedS.Y, probeThroughput(func(keys []core.Key, sel core.SelVec) core.SelVec {
			return sf.ContainsBatch(context.Background(), keys, sel)
		}, g, eff.MinTime))
		mutexS.X = append(mutexS.X, float64(g))
		mutexS.Y = append(mutexS.Y, probeThroughput(func(keys []core.Key, sel core.SelVec) core.SelVec {
			base.mu.Lock()
			defer base.mu.Unlock()
			return base.f.ContainsBatch(keys, sel)
		}, g, eff.MinTime))
	}
	return []Series{shardedS, mutexS}
}

// GoroutineCounts returns the experiment's default X axis: powers of two
// up to and including max (GOMAXPROCS when max <= 0).
func GoroutineCounts(max int) []int {
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}
	var out []int
	for g := 1; g < max; g <<= 1 {
		out = append(out, g)
	}
	return append(out, max)
}
