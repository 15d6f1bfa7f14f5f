package perfilter

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"perfilter/internal/rng"
)

// The filters document "safe for concurrent readers": verify that a filter
// frozen after its build phase answers consistently from many goroutines.
// Run with -race for the full guarantee (the race detector sees any
// read/write overlap these tests would miss).
func TestConcurrentReaders(t *testing.T) {
	builders := map[string]func() (Filter, error){
		"register-blocked": func() (Filter, error) { return NewRegisterBlockedBloom(4, 1<<16) },
		"cache-sectorized": func() (Filter, error) { return NewCacheSectorizedBloom(8, 2, 1<<16) },
		"classic":          func() (Filter, error) { return NewClassicBloom(7, 1<<16) },
		"cuckoo": func() (Filter, error) {
			return NewCuckoo(16, 2, CuckooSizeForKeys(16, 2, 4000))
		},
		"exact": func() (Filter, error) { return NewExact(4000), nil },
	}
	for name, build := range builders {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f, err := build()
			if err != nil {
				t.Fatal(err)
			}
			r := rng.NewMT19937(7)
			keys := make([]uint32, 4000)
			for i := range keys {
				keys[i] = r.Uint32()
				if err := f.Insert(keys[i]); err != nil {
					t.Fatal(err)
				}
			}
			// Reference answers, single-threaded.
			probe := make([]uint32, 2048)
			for i := range probe {
				if i%2 == 0 {
					probe[i] = keys[i%len(keys)]
				} else {
					probe[i] = r.Uint32()
				}
			}
			want := make([]bool, len(probe))
			for i, k := range probe {
				want[i] = f.Contains(k)
			}
			// Hammer from 8 goroutines: scalar and batched reads must both
			// reproduce the reference answers.
			var wg sync.WaitGroup
			errs := make(chan string, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					sel := make([]uint32, 0, len(probe))
					for rep := 0; rep < 50; rep++ {
						for i, k := range probe {
							if f.Contains(k) != want[i] {
								errs <- name + ": scalar answer changed under concurrency"
								return
							}
						}
						sel = f.ContainsBatch(probe, sel[:0])
						j := 0
						for i := range probe {
							got := j < len(sel) && sel[j] == uint32(i)
							if got != want[i] {
								errs <- name + ": batch answer changed under concurrency"
								return
							}
							if got {
								j++
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
		})
	}
}

// --- sharded concurrent filter ---

// equivalenceKinds is the full filter family NewSharded wraps.
func equivalenceKinds(n uint64) []struct {
	name  string
	cfg   Config
	mBits uint64
} {
	return []struct {
		name  string
		cfg   Config
		mBits uint64
	}{
		{"cache-sectorized", Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
			SectorBits: 64, Groups: 2, K: 8, Magic: true}, n * 16},
		{"register-blocked", Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 64,
			SectorBits: 64, Groups: 1, K: 4, Magic: true}, n * 16},
		{"classic", Config{Kind: ClassicBloom, K: 7, Magic: true}, n * 16},
		// Sized with headroom: shard key counts are binomial, and b=2
		// tables saturate at ~84% load.
		{"cuckoo", Config{Kind: Cuckoo, TagBits: 16, BucketSize: 2, Magic: true},
			CuckooSizeForKeys(16, 2, n+n/8)},
		{"exact", Config{Kind: Exact}, n * 128},
	}
}

// TestShardedEquivalence asserts the tentpole contract: for every filter
// kind, the sharded scatter/gather ContainsBatch returns a selection
// vector byte-identical to unsharded filters probed one key at a time —
// the per-shard standalone filters built with the same partition (the
// kernels and kick RNGs are deterministic, so shard i and its reference
// receive identical insert sequences and hold identical state).
func TestShardedEquivalence(t *testing.T) {
	n := uint64(1_000_000)
	if testing.Short() {
		n = 100_000
	}
	const shards = 8
	for _, k := range equivalenceKinds(n) {
		k := k
		t.Run(k.name, func(t *testing.T) {
			sh, err := NewSharded(k.cfg, k.mBits, shards)
			if err != nil {
				t.Fatal(err)
			}
			if sh.NumShards() != shards {
				t.Fatalf("NumShards = %d, want %d", sh.NumShards(), shards)
			}
			refs := make([]Filter, shards)
			for i := range refs {
				if refs[i], err = New(k.cfg, k.mBits/shards); err != nil {
					t.Fatal(err)
				}
			}
			r := rng.NewMT19937(2024)
			for i := uint64(0); i < n; i++ {
				key := r.Uint32() | 1
				if err := sh.Insert(key); err != nil {
					t.Fatalf("sharded insert %d: %v", i, err)
				}
				if err := refs[sh.s.ShardOf(key)].Insert(key); err != nil {
					t.Fatalf("reference insert %d: %v", i, err)
				}
			}
			// Probe n keys, half inserted, half never-inserted.
			probe := make([]Key, n)
			for i := range probe {
				if i%2 == 0 {
					probe[i] = r.Uint32() | 1
				} else {
					probe[i] = r.Uint32() &^ 1
				}
			}
			got := sh.ContainsBatch(probe, nil)
			want := make([]uint32, 0, len(probe))
			for i, key := range probe {
				if refs[sh.s.ShardOf(key)].Contains(key) {
					want = append(want, uint32(i))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("selection length %d, reference %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("selection[%d] = %d, reference %d", i, got[i], want[i])
				}
			}
			// The exact kind has no false positives, so its sharded output
			// must additionally byte-match one monolithic unsharded filter.
			if k.cfg.Kind == Exact {
				mono := NewExact(int(n))
				r2 := rng.NewMT19937(2024)
				for i := uint64(0); i < n; i++ {
					if err := mono.Insert(r2.Uint32() | 1); err != nil {
						t.Fatal(err)
					}
				}
				monoSel := mono.ContainsBatch(probe, nil)
				if len(monoSel) != len(got) {
					t.Fatalf("exact: sharded %d selections, unsharded %d", len(got), len(monoSel))
				}
				for i := range got {
					if got[i] != monoSel[i] {
						t.Fatalf("exact: selection[%d] = %d, unsharded %d", i, got[i], monoSel[i])
					}
				}
			}
		})
	}
}

// TestShardedConcurrentInsertProbe hammers Insert and
// ContainsBatch on one sharded filter from many goroutines; run with
// -race for the full guarantee.
func TestShardedConcurrentInsertProbe(t *testing.T) {
	sh, err := NewSharded(Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
		SectorBits: 64, Groups: 2, K: 8, Magic: true}, 1<<22, 8)
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, perWriter = 4, 4, 10_000
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			r := rng.NewMT19937(uint32(1000 + w))
			for i := 0; i < perWriter; i++ {
				k := r.Uint32()
				if err := sh.Insert(k); err != nil {
					errs <- err
					return
				}
				if !sh.Contains(k) {
					errs <- fmt.Errorf("writer %d: key %d not visible after insert", w, k)
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			r := rng.NewMT19937(uint32(2000 + g))
			probe := make([]Key, 1024)
			sel := make([]uint32, 0, len(probe))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range probe {
					probe[i] = r.Uint32()
				}
				sel = sh.ContainsBatch(probe, sel[:0])
				for i := 1; i < len(sel); i++ {
					if sel[i] <= sel[i-1] {
						errs <- fmt.Errorf("reader %d: selection vector not ascending", g)
						return
					}
				}
			}
		}(g)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := sh.Count(); got != writers*perWriter {
		t.Fatalf("Count = %d, want %d", got, writers*perWriter)
	}
}

// TestShardedRotationUnderLoad rotates a sharded filter repeatedly while
// readers hammer it. A pinned key set is re-inserted by each rotation's
// fill, so it must stay visible in every generation; reads must never
// block or observe a torn shard array (the race detector checks the
// latter).
func TestShardedRotationUnderLoad(t *testing.T) {
	sh, err := NewSharded(Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
		SectorBits: 64, Groups: 2, K: 8, Magic: true}, 1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewMT19937(77)
	pinned := make([]Key, 10_000)
	for i := range pinned {
		pinned[i] = r.Uint32()
		if err := sh.Insert(pinned[i]); err != nil {
			t.Fatal(err)
		}
	}
	const readers = 4
	var readerWG sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			sel := make([]uint32, 0, len(pinned))
			for {
				select {
				case <-stop:
					return
				default:
				}
				sel = sh.ContainsBatch(pinned, sel[:0])
				// Pinned keys live in every generation: a shorter
				// selection vector would be a false negative.
				if len(sel) != len(pinned) {
					errs <- fmt.Errorf("reader %d: %d of %d pinned keys visible", g, len(sel), len(pinned))
					return
				}
			}
		}(g)
	}
	const rotations = 20
	for rot := 1; rot <= rotations; rot++ {
		err := sh.Rotate(context.Background(), 0, func(insert func(Key) error) error {
			for _, k := range pinned {
				if err := insert(k); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if sh.Generation() != uint64(rot) {
			t.Fatalf("generation = %d after rotation %d", sh.Generation(), rot)
		}
	}
	close(stop)
	readerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := sh.Count(); got != uint64(len(pinned)) {
		t.Fatalf("Count = %d after final rotation, want %d", got, len(pinned))
	}
	// Resizing rotation: double the bits, keys preserved by fill.
	if err := sh.Rotate(context.Background(), 1<<21, func(insert func(Key) error) error {
		for _, k := range pinned {
			if err := insert(k); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sh.SizeBits() < 1<<21 {
		t.Fatalf("SizeBits = %d after resizing rotation to %d", sh.SizeBits(), 1<<21)
	}
	sel := sh.ContainsBatch(pinned, nil)
	if len(sel) != len(pinned) {
		t.Fatalf("%d of %d pinned keys survived the resizing rotation", len(sel), len(pinned))
	}
}

// TestInsertBatchErrFullRecovery pins the documented ErrFull contract:
// the keys inserted before a cuckoo shard saturates are NOT an
// input-order prefix (the batch is applied shard by shard), and the
// documented recovery — rotate to a larger generation and replay the
// whole batch — recovers every key.
func TestInsertBatchErrFullRecovery(t *testing.T) {
	// A deliberately undersized sharded cuckoo filter: 8 shards sized for
	// ~4k keys total, fed a 40k-key batch.
	const n = 40_000
	sh, err := NewSharded(Config{Kind: Cuckoo, TagBits: 16, BucketSize: 4, Magic: true},
		CuckooSizeForKeys(16, 4, n/10), 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewMT19937(23)
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	inserted, err := sh.InsertBatch(keys)
	if err == nil {
		t.Fatalf("undersized cuckoo absorbed all %d keys", n)
	}
	if inserted == 0 || inserted >= n {
		t.Fatalf("inserted = %d of %d on ErrFull", inserted, n)
	}
	// Non-prefix: at least one key beyond position `inserted` made it in
	// before the saturating shard errored — because the batch is applied
	// in shard order, not input order. (Cuckoo filters have no false
	// negatives, so Contains is authoritative here; a tail key answering
	// true in a mostly-empty filter is a contained key, not noise.)
	tailHit := false
	for _, k := range keys[inserted:] {
		if sh.Contains(k) {
			tailHit = true
			break
		}
	}
	if !tailHit {
		t.Fatal("inserted keys form an input-order prefix; the documented non-prefix semantics no longer hold")
	}
	// Documented recovery: rotate to a larger generation and replay the
	// whole batch. Every key must land this time.
	if err := sh.Rotate(context.Background(), CuckooSizeForKeys(16, 4, n+n/8), nil); err != nil {
		t.Fatal(err)
	}
	replayed, err := sh.InsertBatch(keys)
	if err != nil {
		t.Fatalf("replay after rotate-larger failed: %v", err)
	}
	if replayed != n {
		t.Fatalf("replay inserted %d of %d", replayed, n)
	}
	sel := sh.ContainsBatch(keys, nil)
	if len(sel) != n {
		t.Fatalf("%d of %d keys present after rotate-and-replay", len(sel), n)
	}
}

// TestScalarInsertAllocs is the write path's allocation gate: the
// lossless write protocol runs Sharded.Insert through a closure that must
// stay on the stack, so the insert makes no allocation; Adaptive.Insert
// adds only the key log's amortized chunk allocation. Sharded.InsertBatch
// reuses pooled scatter scratch and each shard's run is one InsertBatch
// call into the kernel, so a batch makes no allocation either, over
// blocked or cuckoo shards, and Adaptive.InsertBatch adds only the key
// log's chunk allocation (at most one per 64 Ki keys once the chunks
// reach their cap).
func TestScalarInsertAllocs(t *testing.T) {
	cfg := DefaultConfig(BlockedBloom)
	sh, err := NewSharded(cfg, 1<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdaptive(cfg, 1<<20, AdaptiveOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	if avg := testing.AllocsPerRun(1000, func() {
		k++
		if err := sh.Insert(k); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Sharded.Insert allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		k++
		if err := a.Insert(k); err != nil {
			t.Fatal(err)
		}
	}); avg >= 1 {
		t.Errorf("Adaptive.Insert allocates %.2f/op, want < 1 (key log growth only)", avg)
	}
	if raceEnabled {
		return // the batch path's scatter scratch is pooled
	}
	batch := make([]Key, 1024)
	if avg := testing.AllocsPerRun(100, func() {
		for i := range batch {
			k++
			batch[i] = k
		}
		if _, err := sh.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Sharded.InsertBatch(%d keys) allocates %.2f/op, want 0", len(batch), avg)
	}
	ck, err := NewSharded(DefaultConfig(Cuckoo), CuckooSizeForKeys(16, 2, 1<<18), 4)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		for i := range batch {
			k++
			batch[i] = k
		}
		if _, err := ck.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Sharded.InsertBatch(%d keys) over cuckoo shards allocates %.2f/op, want 0", len(batch), avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		for i := range batch {
			k++
			batch[i] = k
		}
		if _, err := a.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); avg >= 1 {
		t.Errorf("Adaptive.InsertBatch(%d keys) allocates %.2f/op, want < 1 (key log chunks only)", len(batch), avg)
	}
}

func TestRecommendShards(t *testing.T) {
	if got := RecommendShards(1<<20, 8); got != 32 {
		t.Errorf("RecommendShards(1M, 8) = %d, want 32 (4 stripes per writer)", got)
	}
	// A single writer has no contention to relieve.
	if got := RecommendShards(1<<20, 1); got != 1 {
		t.Errorf("RecommendShards(1M, 1) = %d, want 1", got)
	}
	// Tiny workloads collapse to fewer shards than writers ask for.
	if got := RecommendShards(4096, 64); got != 1 {
		t.Errorf("RecommendShards(4096, 64) = %d, want 1", got)
	}
	if got := RecommendShards(1<<30, 1<<20); got > 1024 {
		t.Errorf("RecommendShards(1G, 1M) = %d, exceeds MaxShards", got)
	}
	// The advisor surfaces the recommendation.
	advice, err := Advise(Workload{N: 1 << 20, Tw: 500})
	if err != nil {
		t.Fatal(err)
	}
	if advice.Shards < 1 {
		t.Errorf("Advice.Shards = %d", advice.Shards)
	}
}
