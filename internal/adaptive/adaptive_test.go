package adaptive

import (
	"sync"
	"testing"

	"perfilter/internal/core"
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
