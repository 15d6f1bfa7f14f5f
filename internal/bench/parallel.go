package bench

import (
	"context"
	"runtime"
	"sync"
	"time"

	"perfilter/internal/blocked"
	"perfilter/internal/core"
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

func headlineParams() blocked.Params {
	return blocked.CacheSectorizedParams(64, 512, 2, 8, true)
}

func newSharded(mBits uint64, shards int) (*sharded.Filter, error) {
	// SplitBits applies the same rounding sharded.New will, so the
	// sharded side totals the same memory as the baseline.
	perShard, shards := sharded.SplitBits(mBits, shards)
	return sharded.New(func() (sharded.Inner, error) {
		return blocked.New(headlineParams(), perShard)
	}, shards)
}

// mutexFilter is the baseline: the same total filter behind one lock.
type mutexFilter struct {
	mu sync.Mutex
	f  blocked.Probe
}

// measureParallel runs work on each of g goroutines until the deadline
// and returns aggregate operations per second. Each worker gets an
// independent seed; work returns its operation count.
func measureParallel(g int, d time.Duration, work func(seed uint32, deadline time.Time) uint64) float64 {
	start := time.Now()
	deadline := start.Add(d)
	totals := make([]uint64, g)
	var wg sync.WaitGroup
	wg.Add(g)
	for w := 0; w < g; w++ {
		go func(w int) {
			defer wg.Done()
			totals[w] = work(uint32(1+w), deadline)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var sum uint64
	for _, t := range totals {
		sum += t
	}
	return float64(sum) / elapsed
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
		y := measureParallel(g, eff.MinTime, func(seed uint32, deadline time.Time) uint64 {
			r := rng.NewMT19937(seed)
			var n uint64
			for time.Now().Before(deadline) {
				for i := 0; i < 4096; i++ {
					sf.Insert(r.Uint32())
				}
				n += 4096
			}
			return n
		})
		shardedS.X = append(shardedS.X, float64(g))
		shardedS.Y = append(shardedS.Y, y)

		mf, err := blocked.New(headlineParams(), mBits)
		if err != nil {
			panic(err)
		}
		base := &mutexFilter{f: mf}
		y = measureParallel(g, eff.MinTime, func(seed uint32, deadline time.Time) uint64 {
			r := rng.NewMT19937(seed)
			var n uint64
			for time.Now().Before(deadline) {
				for i := 0; i < 4096; i++ {
					k := r.Uint32()
					base.mu.Lock()
					base.f.Insert(k)
					base.mu.Unlock()
				}
				n += 4096
			}
			return n
		})
		mutexS.X = append(mutexS.X, float64(g))
		mutexS.Y = append(mutexS.Y, y)
	}
	return []Series{shardedS, mutexS}
}

// ParallelProbe measures aggregate batched-probe throughput (keys/second,
// batches of core.DefaultBatch) for each goroutine count: the sharded
// filter's scatter/gather against the mutex-guarded baseline. Both are
// pre-filled with the same number of keys (12 bits/key, capped at
// maxFill).
func ParallelProbe(goroutines []int, shards int, mBits uint64, eff Effort) []Series {
	if shards <= 0 {
		shards = defaultShards(goroutines)
	}
	n := int(mBits / 12)
	if n > maxFill {
		n = maxFill
	}
	sf, err := newSharded(mBits, shards)
	if err != nil {
		panic(err)
	}
	mf, err := blocked.New(headlineParams(), mBits)
	if err != nil {
		panic(err)
	}
	fillR := rng.NewMT19937(99)
	for i := 0; i < n; i++ {
		k := fillR.Uint32()
		sf.Insert(k)
		mf.Insert(k)
	}
	base := &mutexFilter{f: mf}

	shardedS := Series{Name: "sharded", XLabel: "goroutines", YLabel: "keys/s"}
	mutexS := Series{Name: "mutex", XLabel: "goroutines", YLabel: "keys/s"}
	for _, g := range goroutines {
		y := measureParallel(g, eff.MinTime, func(seed uint32, deadline time.Time) uint64 {
			r := rng.NewMT19937(seed)
			keys := make([]core.Key, core.DefaultBatch)
			sel := make(core.SelVec, 0, len(keys))
			var cnt uint64
			for time.Now().Before(deadline) {
				for i := range keys {
					keys[i] = r.Uint32()
				}
				sel = sf.ContainsBatch(context.Background(), keys, sel[:0])
				cnt += uint64(len(keys))
			}
			return cnt
		})
		shardedS.X = append(shardedS.X, float64(g))
		shardedS.Y = append(shardedS.Y, y)

		y = measureParallel(g, eff.MinTime, func(seed uint32, deadline time.Time) uint64 {
			r := rng.NewMT19937(seed)
			keys := make([]core.Key, core.DefaultBatch)
			sel := make(core.SelVec, 0, len(keys))
			var cnt uint64
			for time.Now().Before(deadline) {
				for i := range keys {
					keys[i] = r.Uint32()
				}
				base.mu.Lock()
				sel = base.f.ContainsBatch(keys, sel[:0])
				base.mu.Unlock()
				cnt += uint64(len(keys))
			}
			return cnt
		})
		mutexS.X = append(mutexS.X, float64(g))
		mutexS.Y = append(mutexS.Y, y)
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
