package sharded

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"perfilter/internal/rng"
)

// bigBatch returns a deterministic batch of at least parallelBatchMin
// keys, large enough to take the pooled gather path.
func bigBatch(seed uint32, n int) []Key {
	r := rng.NewMT19937(seed)
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	return keys
}

func TestPooledBatchMatchesSequential(t *testing.T) {
	f, err := New(exactFactory, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SetPoolSize(3) // force real workers even on a 1-CPU host
	keys := bigBatch(1, 2*parallelBatchMin)
	inserted, err := f.InsertBatch(context.Background(), keys[:parallelBatchMin])
	if err != nil {
		t.Fatal(err)
	}
	if inserted != parallelBatchMin {
		t.Fatalf("inserted %d of %d", inserted, parallelBatchMin)
	}
	sel := f.ContainsBatch(context.Background(), keys, nil)
	// The inner filters are exact sets, so the pooled gather must report
	// exactly the inserted prefix (rng duplicates aside, positions past
	// the prefix can only be hits if their key repeats an inserted one).
	seen := map[Key]bool{}
	for _, k := range keys[:parallelBatchMin] {
		seen[k] = true
	}
	j := 0
	for i, k := range keys {
		want := seen[k]
		got := j < len(sel) && sel[j] == uint32(i)
		if got != want {
			t.Fatalf("position %d: pooled=%v want=%v", i, got, want)
		}
		if got {
			j++
		}
	}
	// And byte-identical to the sequential fallback.
	f.Close()
	seq := f.ContainsBatch(context.Background(), keys, nil)
	if len(seq) != len(sel) {
		t.Fatalf("sequential fallback: %d hits, pooled %d", len(seq), len(sel))
	}
	for i := range seq {
		if seq[i] != sel[i] {
			t.Fatalf("position %d: sequential %d, pooled %d", i, seq[i], sel[i])
		}
	}
}

// settledWorkers waits for the global live-worker count to stop moving
// (worker exits are asynchronous after close(quit)) and returns the
// stable value, so tests can assert deltas against a quiescent baseline.
func settledWorkers(t *testing.T) int64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	last := liveWorkers.Load()
	stableSince := time.Now()
	for time.Since(stableSince) < 100*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("live-worker count never settled (now %d)", last)
		}
		time.Sleep(time.Millisecond)
		if cur := liveWorkers.Load(); cur != last {
			last = cur
			stableSince = time.Now()
		}
	}
	return last
}

// waitWorkers waits until the live-worker count reaches want.
func waitWorkers(t *testing.T, want int64, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for liveWorkers.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d live workers, want %d", msg, liveWorkers.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolLifecycle pins the teardown contract: SetPoolSize replaces
// workers, Close releases them (observably, via the live-worker count),
// is idempotent, and leaves the filter fully usable on the sequential
// fallback.
func TestPoolLifecycle(t *testing.T) {
	base := settledWorkers(t)
	f, err := New(exactFactory, 8)
	if err != nil {
		t.Fatal(err)
	}
	f.SetPoolSize(3)
	if got := liveWorkers.Load(); got != base+3 {
		t.Fatalf("live workers after SetPoolSize(3): %d, want %d", got, base+3)
	}
	if got := f.PoolWorkers(); got != 3 {
		t.Fatalf("PoolWorkers = %d, want 3", got)
	}
	f.SetPoolSize(2) // replaces: old 3 exit, new 2 spawn
	f.Close()
	f.Close() // idempotent
	waitWorkers(t, base, "after Close")
	if got := f.PoolWorkers(); got != 0 {
		t.Fatalf("PoolWorkers after Close = %d, want 0", got)
	}
	// Closed filter still serves batches (caller's goroutine).
	keys := bigBatch(2, parallelBatchMin)
	if _, err := f.InsertBatch(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	if got := len(f.ContainsBatch(context.Background(), keys, nil)); got != len(keys) {
		t.Fatalf("after Close: %d hits of %d", got, len(keys))
	}
}

// TestPoolUnderRotateMigrateReset drives pooled probes and inserts
// concurrently with generation swaps (Rotate with the same and with a
// different factory — a migration — plus Reset), then closes the pool
// and verifies no workers are stranded. Run under -race this is also the
// pool's memory-safety test: a worker observing a stale generation or a
// recycled job mid-rewrite would trip the detector.
func TestPoolUnderRotateMigrateReset(t *testing.T) {
	base := settledWorkers(t)
	f, err := New(bloomFactory(1<<16), 8)
	if err != nil {
		t.Fatal(err)
	}
	f.SetPoolSize(3)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					fn(i)
				}
			}
		}()
	}
	keys := bigBatch(3, parallelBatchMin)
	worker(func(i int) { // pooled probes
		sel := f.ContainsBatch(context.Background(), keys, make([]uint32, 0, len(keys)))
		_ = sel
	})
	worker(func(i int) { // pooled inserts
		if _, err := f.InsertBatch(context.Background(), keys); err != nil {
			t.Errorf("insert: %v", err)
		}
	})
	worker(func(i int) { // rotations, alternating configuration (migration)
		factory := bloomFactory(1 << 16)
		if i%2 == 1 {
			factory = bloomFactory(1 << 17)
		}
		if err := f.Rotate(context.Background(), factory, nil); err != nil {
			t.Errorf("rotate: %v", err)
		}
		if i%5 == 4 {
			f.Reset()
		}
	})
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	// Probes still coherent after the churn.
	if _, err := f.InsertBatch(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	if got := len(f.ContainsBatch(context.Background(), keys, nil)); got != len(keys) {
		t.Fatalf("lost keys after churn: %d hits of %d", got, len(keys))
	}
	f.Close()
	waitWorkers(t, base, "after churn")
}

// TestPooledContainsBatchZeroAllocs is the hot-path allocation gate: at
// parallelBatchMin with live workers, a pooled probe batch must not
// allocate — the job, its completion channel, the scratch and the
// per-shard selections are all recycled.
func TestPooledContainsBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc gate runs without -race")
	}
	f, err := New(exactFactory, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SetPoolSize(2)
	keys := bigBatch(4, parallelBatchMin)
	if _, err := f.InsertBatch(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	sel := make([]uint32, 0, len(keys))
	for i := 0; i < 10; i++ { // warm the scratch, job and psel pools
		sel = f.ContainsBatch(context.Background(), keys, sel[:0])
	}
	avg := testing.AllocsPerRun(100, func() {
		sel = f.ContainsBatch(context.Background(), keys, sel[:0])
	})
	if avg != 0 {
		t.Fatalf("pooled ContainsBatch allocates %.1f/op, want 0", avg)
	}
}

// TestScratchRetentionCap: a spike batch above maxScratchKeys must not
// pin its buffers in the scratch pool.
func TestScratchRetentionCap(t *testing.T) {
	f, err := New(exactFactory, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spike := bigBatch(5, maxScratchKeys+1)
	f.ContainsBatch(context.Background(), spike, make([]uint32, 0, len(spike)))
	// The spike's scratch was discarded on Put, so the pool hands out
	// nothing sized by it.
	if sc, _ := f.scratch.Get().(*batchScratch); sc != nil {
		t.Fatalf("spike scratch (cap %d keys) was retained", cap(sc.ids))
	}
	// The cap gates on the per-key buffer high-water mark directly too.
	big := &batchScratch{ids: make([]uint16, maxScratchKeys+1)}
	f.putScratch(big)
	if sc, _ := f.scratch.Get().(*batchScratch); sc == big {
		t.Fatal("putScratch retained an over-cap scratch")
	}
}

// BenchmarkShardedContainsBatch measures the pooled scatter/gather probe
// at the parallel threshold — the acceptance benchmark for the
// persistent-pool hot path (allocs/op must stay 0).
func BenchmarkShardedContainsBatch(b *testing.B) {
	for _, workers := range []int{0, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			f, err := New(bloomFactory(1<<20), 8)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			f.SetPoolSize(workers)
			keys := bigBatch(6, parallelBatchMin)
			if _, err := f.InsertBatch(context.Background(), keys); err != nil {
				b.Fatal(err)
			}
			sel := make([]uint32, 0, len(keys))
			sel = f.ContainsBatch(context.Background(), keys, sel[:0])
			b.SetBytes(int64(len(keys) * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel = f.ContainsBatch(context.Background(), keys, sel[:0])
			}
		})
	}
}
