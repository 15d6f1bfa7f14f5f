package adaptive

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"perfilter/internal/core"
	"perfilter/internal/rng"
)

func TestStatsSnapshotAndSigma(t *testing.T) {
	var s Stats
	s.RecordInsert(10)
	s.RecordInsert(5)
	s.RecordProbe(100, 25)
	s.RecordProbe(100, 15)
	c := s.Snapshot()
	if c.Inserts != 15 || c.Probes != 200 || c.Positives != 40 || c.Batches != 2 {
		t.Fatalf("counters = %+v", c)
	}
	if got := c.Sigma(0.9); got != 0.2 {
		t.Fatalf("sigma = %v, want 0.2", got)
	}
	if got := (Counters{}).Sigma(0.9); got != 0.9 {
		t.Fatalf("sigma fallback = %v, want 0.9", got)
	}
	s.Reset()
	if c := s.Snapshot(); c != (Counters{}) {
		t.Fatalf("after reset: %+v", c)
	}
	s.Restore(Counters{Inserts: 7, Probes: 8, Positives: 3, Batches: 1})
	if c := s.Snapshot(); c.Inserts != 7 || c.Probes != 8 {
		t.Fatalf("after restore: %+v", c)
	}
}

func TestPolicyHysteresis(t *testing.T) {
	// Below the insert floor: never migrate, however large the win.
	if ok, _ := ShouldMigrate(100, 1, MinInserts-1); ok {
		t.Fatal("migrated below MinInserts")
	}
	// Improvement below the margin: hold.
	if ok, reason := ShouldMigrate(100, 90, 5000); ok {
		t.Fatalf("migrated on a 10%% win (margin 15%%): %s", reason)
	}
	// Clear improvement: go.
	if ok, reason := ShouldMigrate(100, 50, 5000); !ok {
		t.Fatalf("refused a 50%% win: %s", reason)
	}
}

func TestKeyLogAppendSnapshotReplay(t *testing.T) {
	var l KeyLog
	for i := 0; i < 1000; i++ {
		l.Append(core.Key(i))
	}
	l.AppendBatch([]core.Key{1, 2, 3, 1000, 1001})
	if got := l.Len(); got != 1005 {
		t.Fatalf("Len = %d, want 1005", got)
	}
	snap := l.Snapshot()
	// Appends after the snapshot must not leak into it.
	l.Append(9999)
	if snap.Len() != 1005 {
		t.Fatalf("snapshot len = %d, want 1005", snap.Len())
	}
	// Replay feeds each distinct key exactly once.
	seen := make(map[core.Key]int)
	if err := snap.Replay(func(k core.Key) error { seen[k]++; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen[9999] != 0 {
		t.Fatal("post-snapshot key leaked into replay")
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %d replayed %d times under dedup", k, n)
		}
	}
	if len(seen) != 1002 {
		t.Fatalf("distinct dedup-replayed = %d, want 1002", len(seen))
	}
	if got := len(snap.Keys()); got != 1005 {
		t.Fatalf("Keys len = %d, want 1005", got)
	}
}

// TestKeyLogConcurrent hammers Append/AppendBatch/Snapshot from many
// goroutines while segments seal and their buffers are recycled; run with
// -race. Every appended key must be in the final snapshot exactly once
// per append.
func TestKeyLogConcurrent(t *testing.T) {
	var l KeyLog
	const writers = 8
	perWriter := 3 * segmentKeys / writers
	if testing.Short() {
		perWriter = 1000
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]core.Key, 0, 16)
			for i := 0; i < perWriter; i++ {
				k := core.Key(i*writers + w)
				if i%16 == 15 {
					batch = append(batch, k)
					l.AppendBatch(batch)
					batch = batch[:0]
				} else {
					batch = append(batch, k)
					l.Append(k)
					batch = batch[:0]
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				l.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	total := uint64(writers * perWriter)
	if got := l.Len(); got != total {
		t.Fatalf("Len = %d, want %d", got, total)
	}
	seen := make(map[core.Key]bool, total)
	if err := l.Snapshot().Replay(func(k core.Key) error { seen[k] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if uint64(len(seen)) != total {
		t.Fatalf("distinct keys = %d, want %d", len(seen), total)
	}
}

// byHigh is the reference order for LogSnapshot.Keys: the arrival
// sequence, stably sorted by k>>16.
func byHigh(arrival []core.Key) []core.Key {
	out := slices.Clone(arrival)
	slices.SortStableFunc(out, func(a, b core.Key) int { return cmp.Compare(a>>16, b>>16) })
	return out
}

// firstOccurrences is the reference for Replay: keys without repeats, each
// at its first position.
func firstOccurrences(keys []core.Key) []core.Key {
	seen := make(map[core.Key]bool, len(keys))
	var out []core.Key
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// replayed collects what Replay feeds its callback.
func replayed(t *testing.T, s LogSnapshot) []core.Key {
	t.Helper()
	var got []core.Key
	if err := s.Replay(func(k core.Key) error { got = append(got, k); return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

// checkOrder fails the test unless s's Keys are arrival stably sorted by
// k>>16 and its Replay is their first-occurrence deduplication.
func checkOrder(t *testing.T, s LogSnapshot, arrival []core.Key) {
	t.Helper()
	if s.Len() != uint64(len(arrival)) {
		t.Fatalf("snapshot Len = %d, want %d", s.Len(), len(arrival))
	}
	want := byHigh(arrival)
	if got := s.Keys(); !slices.Equal(got, want) {
		t.Fatalf("Keys (%d keys) is not arrival stably sorted by k>>16 (%d keys)", len(got), len(want))
	}
	if got := replayed(t, s); !slices.Equal(got, firstOccurrences(want)) {
		t.Fatal("Replay differs from the first-occurrence dedup of Keys")
	}
}

// waitSealed returns once l has no sealer running, so every full segment
// appended before the call is a published run.
func waitSealed(l *KeyLog) {
	for {
		l.mu.Lock()
		on := l.sealerOn
		l.mu.Unlock()
		if !on {
			return
		}
		runtime.Gosched()
	}
}

// appendMixed feeds n keys drawn by key to l through a mix of Append and
// AppendBatch calls of varying sizes and returns them in arrival order.
func appendMixed(l *KeyLog, r *rng.MT19937, n int, key func() core.Key) []core.Key {
	arrival := make([]core.Key, 0, n)
	for len(arrival) < n {
		size := min(int(r.Uint32()%3000), n-len(arrival))
		batch := make([]core.Key, size)
		for i := range batch {
			batch[i] = key()
		}
		if size == 1 || r.Uint32()%4 == 0 {
			for _, k := range batch {
				l.Append(k)
			}
		} else {
			l.AppendBatch(batch)
		}
		arrival = append(arrival, batch...)
	}
	return arrival
}

// randomKeys draws keys below 2^20 (16 buckets, many repeats) or over the
// whole key space.
func randomKeys(r *rng.MT19937, below20 bool) func() core.Key {
	return func() core.Key {
		if below20 {
			return r.Uint32() % (1 << 20)
		}
		return r.Uint32()
	}
}

// TestKeyLogKeysOrder pins the order contract of Keys and Replay across
// the tail's growth and several seals, over the whole key space and with
// repeats: adaptive envelopes and replayed cuckoo layouts depend on it.
func TestKeyLogKeysOrder(t *testing.T) {
	for _, below20 := range []bool{false, true} {
		var l KeyLog
		r := rng.NewMT19937(7)
		n := 4*segmentKeys + 1234
		arrival := appendMixed(&l, r, n, randomKeys(r, below20))
		waitSealed(&l)
		if got := len(l.runs); got != 4 {
			t.Fatalf("%d sealed runs, want 4", got)
		}
		if slices.Equal(byHigh(arrival), arrival) {
			t.Fatal("reference equals arrival order; the test would not catch it")
		}
		checkOrder(t, l.Snapshot(), arrival)
	}
}

// TestKeyLogSkewedKeys keeps the order contract when every key falls in
// one or two k>>16 buckets, so a run's upper vector is one long stretch of
// ones.
func TestKeyLogSkewedKeys(t *testing.T) {
	for _, highs := range [][]core.Key{{0xffff}, {3, 0x8000}} {
		var l KeyLog
		r := rng.NewMT19937(5)
		arrival := appendMixed(&l, r, 2*segmentKeys+77, func() core.Key {
			return highs[r.Uint32()%uint32(len(highs))]<<16 | r.Uint32()&0xffff
		})
		waitSealed(&l)
		checkOrder(t, l.Snapshot(), arrival)
	}
}

// TestKeyLogSnapshotWhileSealing snapshots a log whose full segments are
// still queued for sealing, then seals them: the snapshot, which copied
// them raw, keeps its order, and a fresh snapshot agrees.
func TestKeyLogSnapshotWhileSealing(t *testing.T) {
	var l KeyLog
	l.sealerOn = true // hold the sealer back: full segments stay queued
	r := rng.NewMT19937(9)
	arrival := appendMixed(&l, r, 2*segmentKeys+500, randomKeys(r, true))
	if len(l.sealing) != 2 || len(l.runs) != 0 {
		t.Fatalf("%d segments queued and %d sealed, want 2 and 0", len(l.sealing), len(l.runs))
	}
	snap := l.Snapshot()
	checkOrder(t, snap, arrival)
	l.seal()
	if len(l.sealing) != 0 || len(l.runs) != 2 {
		t.Fatalf("after sealing: %d queued, %d sealed, want 0 and 2", len(l.sealing), len(l.runs))
	}
	checkOrder(t, snap, arrival)
	checkOrder(t, l.Snapshot(), arrival)
}

// TestKeyLogSnapshotSurvivesRecycle takes a snapshot while the first
// segment is still the raw tail, then seals it and appends until its
// buffer is reused as a later tail and overwritten: the snapshot must
// return the same keys as before.
func TestKeyLogSnapshotSurvivesRecycle(t *testing.T) {
	var l KeyLog
	r := rng.NewMT19937(13)
	arrival := appendMixed(&l, r, segmentKeys-3, randomKeys(r, false))
	snap := l.Snapshot()
	before := snap.Keys()
	l.AppendBatch(make([]core.Key, 3)) // fills the first segment and queues it
	waitSealed(&l)
	if len(l.free) != 1 {
		t.Fatalf("%d recycled buffers after one seal, want 1", len(l.free))
	}
	recycled := &l.free[0][:1][0]
	appendMixed(&l, r, segmentKeys+10, randomKeys(r, false))
	if &l.tail[0] != recycled {
		t.Fatal("the sealed segment's buffer was not reused as the tail")
	}
	if got := snap.Keys(); !slices.Equal(got, before) {
		t.Fatal("snapshot keys changed after a seal and a buffer recycle")
	}
	checkOrder(t, snap, arrival)
}

// TestKeyLogBits pins the footprint LogBits reports: a sealed segment of
// 2^16 keys costs 18 bits per key, a raw key 32 bits.
func TestKeyLogBits(t *testing.T) {
	var l KeyLog
	r := rng.NewMT19937(3)
	appendMixed(&l, r, 3*segmentKeys+100, randomKeys(r, false))
	waitSealed(&l)
	if got, want := l.Bits(), uint64(3*18*segmentKeys+32*100); got != want {
		t.Fatalf("Bits = %d, want %d (3 runs at 18 bits/key, 100 raw keys at 32)", got, want)
	}
}

// TestKeyLogSnapshotAcrossChunkBoundary takes a snapshot one key short of
// a full first chunk; later appends grow the tail, fill segments and seal
// them, and the snapshot must not see any of them.
func TestKeyLogSnapshotAcrossChunkBoundary(t *testing.T) {
	var l KeyLog
	r := rng.NewMT19937(11)
	arrival := appendMixed(&l, r, firstChunkKeys-1, randomKeys(r, true))
	snap := l.Snapshot()
	appendMixed(&l, r, 2*segmentKeys, randomKeys(r, true))
	l.Append(1 << 30)
	waitSealed(&l)
	checkOrder(t, snap, arrival)
}

// BenchmarkKeyLogAppendBatch measures the insert path's log append: two
// concurrent appenders write 2^24 keys into a fresh log in fixed-size
// batches. ns/key is wall time per logged key until the last full
// segment is sealed, so it includes the sealer's work.
func BenchmarkKeyLogAppendBatch(b *testing.B) {
	const total = 1 << 24
	const appenders = 2
	keys := make([]core.Key, total)
	r := rng.NewMT19937(1)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	for _, batch := range []int{1024, 65536} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.SetBytes(4 * total)
			for i := 0; i < b.N; i++ {
				var l KeyLog
				var wg sync.WaitGroup
				per := total / appenders
				for w := 0; w < appenders; w++ {
					wg.Add(1)
					go func(part []core.Key) {
						defer wg.Done()
						for len(part) > 0 {
							n := min(batch, len(part))
							l.AppendBatch(part[:n])
							part = part[n:]
						}
					}(keys[w*per : (w+1)*per])
				}
				wg.Wait()
				waitSealed(&l)
				if l.Len() != total {
					b.Fatalf("Len = %d", l.Len())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/total, "ns/key")
		})
	}
}

// BenchmarkLogReplay measures a migration's read side: Replay of a
// snapshot of 2^23 random keys (128 sealed runs) into a callback that
// only counts. ns/key is per logged key; B/op is what one Replay
// allocates.
func BenchmarkLogReplay(b *testing.B) {
	const total = 1 << 23
	var l KeyLog
	r := rng.NewMT19937(1)
	keys := make([]core.Key, 1<<16)
	for done := 0; done < total; done += len(keys) {
		for i := range keys {
			keys[i] = r.Uint32()
		}
		l.AppendBatch(keys)
	}
	waitSealed(&l)
	snap := l.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		if err := snap.Replay(func(core.Key) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("nothing replayed")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/total, "ns/key")
}
