package bench

import (
	"context"
	"runtime"

	"perfilter/internal/calibrate"
	"perfilter/internal/core"
)

// The kernels experiment records two hot-path measurements, so CI can
// catch a regression in either:
//
//   - pool-on / pool-off: batched probe throughput of the sharded filter
//     with its persistent gather workers enabled vs every batch running on
//     the caller's goroutine, across batch sizes straddling the fan-out
//     threshold. Below the threshold the two series must coincide (the
//     pool only engages at parallelBatchMin); above it the pooled series
//     shows what the persistent workers buy on this host.
//
//   - aligned: batched probe throughput of the cache-sectorized kernel
//     alone, across filter sizes from L1-resident to DRAM. The series is
//     named aligned because the committed BENCH_kernels.json baseline
//     gates it under that name.

// batchMkeys is probe's throughput in millions of keys per second on one
// batch of batchLen keys, re-probed by calibrate's timing loop.
func batchMkeys(probe func([]core.Key, core.SelVec) core.SelVec, batchLen int, eff Effort) float64 {
	return 1e3 / calibrate.Time(probe, calibrate.Stream()[:batchLen], batchLen, eff.MinTime)
}

// poolWorkersOn is the worker count the pool-on series forces: the
// default sizing, but at least one worker so the pool mechanism is
// exercised (and measured) even on a single-CPU host where the default
// would be zero.
func poolWorkersOn() int {
	if w := runtime.GOMAXPROCS(0) - 1; w > 0 {
		return w
	}
	return 1
}

// KernelsPool measures sharded batched-probe throughput (Mkeys/s) across
// batch sizes, persistent worker pool on vs off. mBits is the total
// filter size.
func KernelsPool(shards int, mBits uint64, eff Effort) []Series {
	if shards <= 0 {
		shards = 8
	}
	batchLens := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	on := Series{Name: "pool-on", XLabel: "batch", YLabel: "Mkeys/s"}
	off := Series{Name: "pool-off", XLabel: "batch", YLabel: "Mkeys/s"}
	for _, workers := range []int{poolWorkersOn(), 0} {
		sf, err := newSharded(mBits, shards)
		if err != nil {
			panic(err)
		}
		sf.SetPoolSize(workers)
		if _, err := sf.InsertBatch(context.Background(), calibrate.FillKeys(headline, mBits)); err != nil {
			panic(err)
		}
		probe := func(keys []core.Key, sel core.SelVec) core.SelVec {
			return sf.ContainsBatch(context.Background(), keys, sel)
		}
		for _, bl := range batchLens {
			y := batchMkeys(probe, bl, eff)
			if workers > 0 {
				on.X = append(on.X, float64(bl))
				on.Y = append(on.Y, y)
			} else {
				off.X = append(off.X, float64(bl))
				off.Y = append(off.Y, y)
			}
		}
		sf.Close()
	}
	return []Series{on, off}
}

// KernelsProbe measures the cache-sectorized probe kernel (Mkeys/s,
// batches of core.DefaultBatch) across filter sizes.
func KernelsProbe(eff Effort) []Series {
	aligned := Series{Name: "aligned", XLabel: "log2(m)", YLabel: "Mkeys/s"}
	for _, mBits := range []uint64{1 << 17, 1 << 23, 1 << 26} {
		aligned.X = append(aligned.X, float64(log2(mBits)))
		aligned.Y = append(aligned.Y, batchMkeys(build(headline, mBits).ContainsBatch, core.DefaultBatch, eff))
	}
	return []Series{aligned}
}

// log2 returns floor(log2(x)) for x > 0.
func log2(x uint64) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}
