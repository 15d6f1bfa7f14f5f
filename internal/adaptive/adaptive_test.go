package adaptive

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"perfilter/internal/core"
	"perfilter/internal/hashing"
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
// goroutines; run with -race. Every appended key must be in the final
// snapshot exactly once per append.
func TestKeyLogConcurrent(t *testing.T) {
	var l KeyLog
	const writers = 8
	perWriter := 5000
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

// stripeMajor is the reference order for LogSnapshot.Keys: the keys
// grouped by TagHash(k) & (logStripes-1), arrival order within a group.
func stripeMajor(arrival []core.Key) []core.Key {
	out := make([]core.Key, 0, len(arrival))
	for s := uint32(0); s < logStripes; s++ {
		for _, k := range arrival {
			if hashing.TagHash(k)&(logStripes-1) == s {
				out = append(out, k)
			}
		}
	}
	return out
}

// appendMixed feeds n pseudo-random keys to l through a mix of Append and
// AppendBatch calls of varying sizes and returns them in arrival order.
func appendMixed(l *KeyLog, r *rng.MT19937, n int) []core.Key {
	arrival := make([]core.Key, 0, n)
	for len(arrival) < n {
		size := min(int(r.Uint32()%3000), n-len(arrival))
		batch := make([]core.Key, size)
		for i := range batch {
			batch[i] = r.Uint32() % (1 << 20) // some duplicates
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

// TestKeyLogKeysStripeMajor pins the wire order of Keys across the
// first-chunk and chunk-cap boundaries: adaptive envelopes and replayed
// cuckoo layouts depend on it, so arrival order is a failure.
func TestKeyLogKeysStripeMajor(t *testing.T) {
	var l KeyLog
	// The doubling chunks hold 2*maxChunkKeys keys; the rest fill chunks
	// at the cap.
	n := 4*maxChunkKeys + 1234
	arrival := appendMixed(&l, rng.NewMT19937(7), n)
	if got := l.Len(); got != uint64(n) {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if first := cap(l.chunks[0]); first != firstChunkKeys {
		t.Fatalf("first chunk holds %d keys, want %d", first, firstChunkKeys)
	}
	for i, c := range l.chunks[:len(l.chunks)-1] {
		if len(c) != cap(c) || cap(c) > maxChunkKeys {
			t.Fatalf("chunk %d: len %d cap %d (want full, cap <= %d)", i, len(c), cap(c), maxChunkKeys)
		}
	}
	if last := l.chunks[len(l.chunks)-2]; cap(last) != maxChunkKeys {
		t.Fatalf("chunks never reached the cap: %d", cap(last))
	}
	want := stripeMajor(arrival)
	if slices.Equal(want, arrival) {
		t.Fatal("reference equals arrival order; the test would not catch it")
	}
	if got := l.Snapshot().Keys(); !slices.Equal(got, want) {
		t.Fatal("Keys is not stripe-major")
	}
	// Replay walks the same order, skipping repeats.
	var replayed []core.Key
	seen := make(map[core.Key]bool)
	for _, k := range want {
		if !seen[k] {
			seen[k] = true
			replayed = append(replayed, k)
		}
	}
	var got []core.Key
	if err := l.Snapshot().Replay(func(k core.Key) error { got = append(got, k); return nil }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, replayed) {
		t.Fatal("Replay order differs from deduplicated Keys order")
	}
}

// TestKeyLogSnapshotAcrossChunkBoundary takes a snapshot one key short of
// a full first chunk; later appends fill that chunk and start new ones,
// and the snapshot must not see any of them.
func TestKeyLogSnapshotAcrossChunkBoundary(t *testing.T) {
	var l KeyLog
	r := rng.NewMT19937(11)
	arrival := appendMixed(&l, r, firstChunkKeys-1)
	snap := l.Snapshot()
	appendMixed(&l, r, 3*firstChunkKeys)
	l.Append(1 << 30)
	if snap.Len() != uint64(len(arrival)) {
		t.Fatalf("snapshot Len = %d, want %d", snap.Len(), len(arrival))
	}
	want := stripeMajor(arrival)
	if got := snap.Keys(); !slices.Equal(got, want) {
		t.Fatalf("snapshot Keys changed after later appends (len %d, want %d)", len(got), len(want))
	}
	seen := make(map[core.Key]bool)
	if err := snap.Replay(func(k core.Key) error { seen[k] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	distinct := make(map[core.Key]bool, len(arrival))
	for _, k := range arrival {
		distinct[k] = true
	}
	if len(seen) != len(distinct) {
		t.Fatalf("replayed %d distinct keys, want %d", len(seen), len(distinct))
	}
}

// BenchmarkKeyLogAppendBatch measures the insert path's log append: two
// concurrent appenders write 2^24 keys into a fresh log in fixed-size
// batches. ns/key is wall time per logged key.
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
				if l.Len() != total {
					b.Fatalf("Len = %d", l.Len())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/total, "ns/key")
		})
	}
}
