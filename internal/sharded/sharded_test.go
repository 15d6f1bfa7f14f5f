package sharded

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"perfilter/internal/blocked"
	"perfilter/internal/cuckoo"
	"perfilter/internal/exact"
	"perfilter/internal/rng"
)

// exactFactory builds exact shards: no false positives, so every
// mismatch is a real merge bug, not filter noise.
func exactFactory() (Inner, error) { return exact.New(1024), nil }

func bloomFactory(mBits uint64) Factory {
	return func() (Inner, error) {
		return blocked.New(blocked.CacheSectorizedParams(64, 512, 2, 8, true), mBits)
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 8: 8, 9: 16, MaxShards: MaxShards, MaxShards + 1: MaxShards}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestShardOfInRange(t *testing.T) {
	f, err := New(exactFactory, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", f.NumShards())
	}
	r := rng.NewMT19937(1)
	seen := make([]int, 8)
	for i := 0; i < 1_000_000; i++ {
		seen[f.ShardOf(r.Uint32())]++
	}
	for s, c := range seen {
		// Uniform expectation 125k; a 20% band catches gross skew.
		if c < 100_000 || c > 150_000 {
			t.Errorf("shard %d got %d of 1M keys — partition hash is skewed", s, c)
		}
	}
}

// TestBatchMatchesScalar checks the core contract on the exact inner
// (zero false positives, so expected membership is computable): the
// scatter/gather batch must reproduce the scalar path byte-for-byte, in
// both the sequential (small batch) and parallel (large batch) regimes.
func TestBatchMatchesScalar(t *testing.T) {
	for _, shards := range []int{1, 2, 8, 64} {
		t.Run(fmt.Sprintf("P=%d", shards), func(t *testing.T) {
			f, err := New(exactFactory, shards)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.NewMT19937(42)
			for i := 0; i < 20_000; i++ {
				if err := f.Insert(r.Uint32() | 1); err != nil {
					t.Fatal(err)
				}
			}
			for _, batch := range []int{0, 1, 100, parallelBatchMin, 3 * parallelBatchMin} {
				probe := make([]Key, batch)
				for i := range probe {
					if i%2 == 0 {
						probe[i] = r.Uint32() | 1 // maybe inserted
					} else {
						probe[i] = r.Uint32() &^ 1 // never inserted
					}
				}
				sel := f.ContainsBatch(context.Background(), probe, nil)
				j := 0
				for i, k := range probe {
					want := f.Contains(k)
					got := j < len(sel) && sel[j] == uint32(i)
					if got != want {
						t.Fatalf("batch=%d pos=%d: batch says %v, scalar says %v", batch, i, got, want)
					}
					if got {
						j++
					}
				}
				if j != len(sel) {
					t.Fatalf("batch=%d: %d trailing selection entries", batch, len(sel)-j)
				}
			}
		})
	}
}

// TestBatchMatchesSequentialShards checks scatter/gather against the
// straightforward reference: probing each shard's filter directly, one
// shard at a time, no locks — same partition, same kernels.
func TestBatchMatchesSequentialShards(t *testing.T) {
	const shards = 16
	f, err := New(bloomFactory(1<<16), shards)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewMT19937(7)
	for i := 0; i < 50_000; i++ {
		if err := f.Insert(r.Uint32()); err != nil {
			t.Fatal(err)
		}
	}
	probe := make([]Key, 3*parallelBatchMin)
	for i := range probe {
		probe[i] = r.Uint32()
	}
	got := f.ContainsBatch(context.Background(), probe, nil)

	g := f.gen.Load()
	var want []uint32
	for i, k := range probe {
		if g.shards[f.ShardOf(k)].f.Contains(k) {
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
}

func TestRotate(t *testing.T) {
	f, err := New(exactFactory, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{1, 2, 3, 4, 5, 6, 7, 8}
	for _, k := range keys {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if f.Generation() != 0 {
		t.Fatalf("generation = %d before any rotation", f.Generation())
	}

	// Rotate with a fill that carries over the even keys only.
	err = f.Rotate(context.Background(), nil, func(insert func(Key) error) error {
		for _, k := range keys {
			if k%2 == 0 {
				if err := insert(k); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Generation() != 1 {
		t.Fatalf("generation = %d after rotation, want 1", f.Generation())
	}
	for _, k := range keys {
		want := k%2 == 0
		if f.Contains(k) != want {
			t.Fatalf("after rotation Contains(%d) = %v, want %v", k, !want, want)
		}
	}
	if got := f.Count(); got != 4 {
		t.Fatalf("Count = %d after rotation fill, want 4", got)
	}

	// A failing factory must leave the current generation untouched.
	boom := errors.New("boom")
	err = f.Rotate(context.Background(), func() (Inner, error) { return nil, boom }, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Rotate with failing factory: err = %v", err)
	}
	if f.Generation() != 1 || !f.Contains(2) {
		t.Fatal("failed rotation must not replace the live generation")
	}
}

func TestStatsAndReset(t *testing.T) {
	f, err := New(exactFactory, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewMT19937(3)
	for i := 0; i < 1000; i++ {
		if err := f.Insert(r.Uint32()); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.Shards != 4 || st.Count != 1000 || len(st.PerShard) != 4 {
		t.Fatalf("unexpected stats %+v", st)
	}
	var sum uint64
	for _, c := range st.PerShard {
		sum += c
	}
	if sum != st.Count {
		t.Fatalf("per-shard counts sum to %d, total %d", sum, st.Count)
	}
	if st.SizeBits == 0 || st.SizeBits != f.SizeBits() {
		t.Fatalf("SizeBits mismatch: stats %d, method %d", st.SizeBits, f.SizeBits())
	}
	f.Reset()
	if f.Count() != 0 {
		t.Fatalf("Count = %d after Reset", f.Count())
	}
}

// TestConcurrentInsertProbe hammers inserts, scalar and batched probes,
// and rotations from many goroutines; run with -race. Correctness checked
// here is "no false negatives for keys this goroutine inserted into the
// current generation"; byte-level equivalence is covered by the
// deterministic tests above.
func TestConcurrentInsertProbe(t *testing.T) {
	f, err := New(bloomFactory(1<<14), 8)
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers = 4, 4
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			r := rng.NewMT19937(uint32(100 + w))
			for i := 0; i < 20_000; i++ {
				k := r.Uint32()
				if err := f.Insert(k); err != nil {
					errCh <- err
					return
				}
				// No rotations run here, so an inserted key must be visible.
				if !f.Contains(k) {
					errCh <- fmt.Errorf("lost key %d", k)
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			r := rng.NewMT19937(uint32(200 + g))
			probe := make([]Key, parallelBatchMin)
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
				sel = f.ContainsBatch(context.Background(), probe, sel[:0])
				for i := 1; i < len(sel); i++ {
					if sel[i] <= sel[i-1] {
						errCh <- fmt.Errorf("selection vector not ascending")
						return
					}
				}
			}
		}(g)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := f.Count(); got != writers*20_000 {
		t.Fatalf("Count = %d after %d concurrent inserts", got, writers*20_000)
	}
}

// TestRotateLosslessUnderWriters is the lossless-rotation regression
// test: writers hammer Insert and InsertBatch while a rotator repeatedly
// swaps generations, each rotation's fill replaying a shared key log (the
// production recipe). Every key acknowledged by a writer must be present
// at the end — the dual-write window has to catch exactly the inserts
// that race a rotation's log snapshot and swap. Run with -race.
func TestRotateLosslessUnderWriters(t *testing.T) {
	f, err := New(exactFactory, 8)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	perWriter := 20_000
	if testing.Short() {
		perWriter = 5_000
	}

	// The durable key log: writers append before inserting, rotations
	// replay a snapshot of it. Keys appended after a rotation's snapshot
	// are exactly the ones only the dual-write window can save.
	var logMu sync.Mutex
	log := make([]Key, 0, writers*perWriter)
	snapshotLog := func() []Key {
		logMu.Lock()
		defer logMu.Unlock()
		return log[:len(log):len(log)]
	}

	var writerWG sync.WaitGroup
	errCh := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			batch := make([]Key, 0, 64)
			for i := 0; i < perWriter; i++ {
				// Unique key per (writer, i): no cross-writer collisions.
				k := Key(i*writers + w)
				logMu.Lock()
				log = append(log, k)
				logMu.Unlock()
				if i%3 == 2 {
					// Exercise the batch path too.
					batch = append(batch[:0], k, k^0x80000000)
					logMu.Lock()
					log = append(log, batch[1])
					logMu.Unlock()
					if _, err := f.InsertBatch(context.Background(), batch); err != nil {
						errCh <- err
						return
					}
				} else if err := f.Insert(k); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}

	// Rotate back-to-back until the writers finish: the final rotation's
	// log snapshot is then guaranteed to race live inserts, so without the
	// dual-write window the keys acknowledged after that snapshot would
	// vanish with the swap.
	writersDone := make(chan struct{})
	go func() {
		writerWG.Wait()
		close(writersDone)
	}()
	done := make(chan struct{})
	var rotations int
	go func() {
		defer close(done)
		for {
			select {
			case <-writersDone:
				return
			default:
			}
			err := f.Rotate(context.Background(), nil, func(insert func(Key) error) error {
				for _, k := range snapshotLog() {
					if err := insert(k); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				errCh <- err
				return
			}
			rotations++
		}
	}()
	<-done
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if rotations == 0 {
		t.Fatal("no rotation completed while writers ran")
	}

	acknowledged := snapshotLog()
	sel := f.ContainsBatch(context.Background(), acknowledged, nil)
	if len(sel) != len(acknowledged) {
		// Identify a lost key for the failure message.
		miss := 0
		for _, k := range acknowledged {
			if !f.Contains(k) {
				miss++
			}
		}
		t.Fatalf("%d of %d acknowledged keys lost across %d rotations (e.g. batch selected %d)",
			miss, len(acknowledged), rotations, len(sel))
	}
}

// TestAbortedRotationConsumesID pins the dual-write ordering invariant:
// a rotation that aborts (fill error) must still consume a generation
// id, so its discarded staging generation can never share an id with a
// later successful generation. If ids were reused, a writer stalled
// after dual-writing into the discarded staging generation would judge
// the successor generation "already covered" (same id) and skip it —
// losing an acknowledged write.
func TestAbortedRotationConsumesID(t *testing.T) {
	f, err := New(exactFactory, 2)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := f.Rotate(context.Background(), nil, func(insert func(Key) error) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("aborted rotation: err = %v", err)
	}
	if f.Generation() != 0 {
		t.Fatalf("generation = %d after aborted rotation, want 0", f.Generation())
	}
	if err := f.Rotate(context.Background(), nil, nil); err != nil {
		t.Fatal(err)
	}
	g := f.gen.Load()
	if g.seq != 1 {
		t.Fatalf("seq = %d after aborted+successful rotation, want 1", g.seq)
	}
	if g.id != 2 {
		t.Fatalf("id = %d after aborted+successful rotation, want 2 (aborted rotation must consume an id)", g.id)
	}
}

// TestSnapshotRestore round-trips the sharded wrapper through the
// Snapshot/Restore pair with a trivial per-shard codec.
func TestSnapshotRestore(t *testing.T) {
	f, err := New(exactFactory, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Rotate(context.Background(), nil, nil); err != nil {
		t.Fatal(err)
	}
	r := rng.NewMT19937(5)
	keys := make([]Key, 5000)
	for i := range keys {
		keys[i] = r.Uint32()
		if err := f.Insert(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Codec: serialize an exact shard as its raw key list.
	marshal := func(in Inner) ([]byte, error) {
		var out []byte
		for _, k := range keys {
			if in.Contains(k) {
				out = append(out,
					byte(k), byte(k>>8), byte(k>>16), byte(k>>24))
			}
		}
		return out, nil
	}
	unmarshal := func(data []byte) (Inner, error) {
		s := exact.New(len(data) / 4)
		for i := 0; i+4 <= len(data); i += 4 {
			k := Key(data[i]) | Key(data[i+1])<<8 | Key(data[i+2])<<16 | Key(data[i+3])<<24
			if err := s.Insert(k); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	snap, err := f.Snapshot(marshal)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 1 || len(snap.Payloads) != 4 {
		t.Fatalf("snapshot seq=%d shards=%d", snap.Seq, len(snap.Payloads))
	}
	back, err := Restore(snap, unmarshal, exactFactory)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumShards() != 4 || back.Generation() != 1 || back.Count() != f.Count() {
		t.Fatalf("restored shards=%d gen=%d count=%d, want 4/1/%d",
			back.NumShards(), back.Generation(), back.Count(), f.Count())
	}
	sel := back.ContainsBatch(context.Background(), keys, nil)
	if len(sel) != len(keys) {
		t.Fatalf("%d of %d keys present after restore", len(sel), len(keys))
	}
	// Restore with a broken snapshot shape must error, not panic.
	if _, err := Restore(&Snapshot{Seq: 0, Counts: snap.Counts, Payloads: snap.Payloads[:3]}, unmarshal, exactFactory); err == nil {
		t.Fatal("non-power-of-two shard count accepted")
	}
	if _, err := Restore(snap, unmarshal, nil); err == nil {
		t.Fatal("nil factory accepted")
	}
}

func TestSplitBitsCeiling(t *testing.T) {
	cases := []struct {
		mBits    uint64
		shards   int
		perShard uint64
		p        int
	}{
		{1 << 20, 8, 1 << 17, 8},
		{1000, 3, 250, 4},  // exact division after rounding P
		{1001, 4, 251, 4},  // remainder rounds up, not down
		{7, 8, 1, 8},       // tiny totals still give every shard a bit
		{1, 1024, 1, 1024}, // never truncates to zero for nonzero input
		{0, 4, 0, 4},       // zero stays zero (callers reject it)
	}
	for _, tc := range cases {
		perShard, p := SplitBits(tc.mBits, tc.shards)
		if perShard != tc.perShard || p != tc.p {
			t.Errorf("SplitBits(%d, %d) = (%d, %d), want (%d, %d)",
				tc.mBits, tc.shards, perShard, p, tc.perShard, tc.p)
		}
		if tc.mBits > 0 && perShard*uint64(p) < tc.mBits {
			t.Errorf("SplitBits(%d, %d) covers only %d bits", tc.mBits, tc.shards, perShard*uint64(p))
		}
	}
}

// fullAfter is an Inner that accepts only the first capacity inserts —
// exercises InsertBatch's error path.
type fullAfter struct {
	inner    Inner
	capacity int
	n        int
}

func (f *fullAfter) Insert(key Key) error {
	if f.n >= f.capacity {
		return errors.New("full")
	}
	f.n++
	return f.inner.Insert(key)
}
func (f *fullAfter) InsertBatch(keys []Key) (int, error) {
	for i, k := range keys {
		if err := f.Insert(k); err != nil {
			return i, err
		}
	}
	return len(keys), nil
}
func (f *fullAfter) Contains(key Key) bool { return f.inner.Contains(key) }
func (f *fullAfter) ContainsBatch(keys []Key, sel []uint32) []uint32 {
	return f.inner.ContainsBatch(keys, sel)
}
func (f *fullAfter) SizeBits() uint64     { return f.inner.SizeBits() }
func (f *fullAfter) FPR(n uint64) float64 { return 0 }
func (f *fullAfter) Reset()               { f.n = 0; f.inner.Reset() }
func (f *fullAfter) String() string       { return "fullAfter" }

func TestInsertBatch(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("P=%d", shards), func(t *testing.T) {
			f, err := New(exactFactory, shards)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.NewMT19937(13)
			keys := make([]Key, 10_000)
			for i := range keys {
				keys[i] = r.Uint32()
			}
			n, err := f.InsertBatch(context.Background(), keys)
			if err != nil || n != len(keys) {
				t.Fatalf("InsertBatch = (%d, %v), want (%d, nil)", n, err, len(keys))
			}
			if got := f.Count(); got != uint64(len(keys)) {
				t.Fatalf("Count = %d after batch insert of %d", got, len(keys))
			}
			sel := f.ContainsBatch(context.Background(), keys, nil)
			if len(sel) != len(keys) {
				t.Fatalf("%d of %d batch-inserted keys visible", len(sel), len(keys))
			}
		})
	}
}

func TestInsertBatchStopsWhenFull(t *testing.T) {
	const perShard = 100
	for _, tc := range []struct {
		name    string
		factory Factory
	}{
		{"fullAfter", func() (Inner, error) {
			return &fullAfter{inner: exact.New(1024), capacity: perShard}, nil
		}},
		// 32 buckets of 4 8-bit tags hold about 120 keys, so each shard
		// saturates partway through its ~225-key run.
		{"cuckoo", func() (Inner, error) {
			f, err := cuckoo.New(cuckoo.Params{TagBits: 8, BucketSize: 4}, perShard*8)
			if err != nil {
				return nil, err
			}
			return f, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := New(tc.factory, 4)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.NewMT19937(17)
			keys := make([]Key, 4*perShard+500)
			for i := range keys {
				keys[i] = r.Uint32()
			}
			n, err := f.InsertBatch(context.Background(), keys)
			if err == nil {
				t.Fatal("InsertBatch on saturating shards returned no error")
			}
			if n == 0 || uint64(n) != f.Count() {
				t.Fatalf("InsertBatch reported %d inserted, Count says %d", n, f.Count())
			}
			// Each shard inserts its run in input order and stops at its
			// first error, so its count is a prefix of its run.
			left := f.Stats().PerShard
			for _, k := range keys {
				s := f.ShardOf(k)
				if left[s] == 0 {
					continue
				}
				left[s]--
				if !f.Contains(k) {
					t.Fatalf("counted key %d probes negative", k)
				}
			}
		})
	}
}
