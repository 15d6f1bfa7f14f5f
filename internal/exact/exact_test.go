package exact

import (
	"testing"
	"testing/quick"

	"perfilter/internal/rng"
)

func TestInsertContains(t *testing.T) {
	s := New(1000)
	r := rng.NewMT19937(1)
	keys := map[uint32]bool{}
	for len(keys) < 1000 {
		k := r.Uint32()
		if !keys[k] {
			keys[k] = true
			before := s.Len()
			if err := s.Insert(k); err != nil || s.Len() != before+1 {
				t.Fatalf("fresh insert of %d: err %v, Len %d -> %d", k, err, before, s.Len())
			}
		}
	}
	for k := range keys {
		if !s.Contains(k) {
			t.Fatalf("missing key %d", k)
		}
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestExactness(t *testing.T) {
	// Unlike the approximate filters, the exact set must have zero false
	// positives over a large adversarial probe set.
	s := New(4096)
	r := rng.NewMT19937(2)
	inserted := map[uint32]bool{}
	for len(inserted) < 4096 {
		k := r.Uint32()
		if !inserted[k] {
			inserted[k] = true
			s.Insert(k)
		}
	}
	for i := 0; i < 1<<17; i++ {
		k := r.Uint32()
		if s.Contains(k) != inserted[k] {
			t.Fatalf("wrong answer for %d", k)
		}
	}
}

func TestDuplicateInsert(t *testing.T) {
	s := New(16)
	s.Insert(5)
	if s.Len() != 1 {
		t.Fatalf("Len = %d after fresh insert", s.Len())
	}
	s.Insert(5)
	if s.Len() != 1 {
		t.Fatalf("Len = %d after duplicate insert", s.Len())
	}
}

func TestDelete(t *testing.T) {
	s := New(100)
	r := rng.NewMT19937(3)
	var keys []uint32
	seen := map[uint32]bool{}
	for len(keys) < 500 { // force growth and long probe chains
		k := r.Uint32()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
			s.Insert(k)
		}
	}
	// Delete every other key; the rest must remain findable.
	for i, k := range keys {
		if i%2 == 0 {
			if !s.Delete(k) {
				t.Fatalf("delete of %d failed", k)
			}
		}
	}
	for i, k := range keys {
		want := i%2 == 1
		if s.Contains(k) != want {
			t.Fatalf("key %d: contains=%v want %v", k, !want, want)
		}
	}
	if s.Delete(keys[0]) {
		t.Fatal("double delete returned true")
	}
}

func TestDeleteAbsent(t *testing.T) {
	s := New(16)
	s.Insert(1)
	if s.Delete(2) {
		t.Fatal("deleted absent key")
	}
	if !s.Contains(1) {
		t.Fatal("lost unrelated key")
	}
}

func TestGrowth(t *testing.T) {
	s := New(4) // deliberately undersized
	for i := uint32(0); i < 10000; i++ {
		s.Insert(i * 2654435761)
	}
	if s.Len() != 10000 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := uint32(0); i < 10000; i++ {
		if !s.Contains(i * 2654435761) {
			t.Fatalf("lost key %d after growth", i)
		}
	}
	load := float64(s.Len()) / float64(len(s.slots))
	if load > maxLoad {
		t.Fatalf("load %.3f exceeds bound", load)
	}
}

func TestBatchMatchesScalar(t *testing.T) {
	s := New(256)
	r := rng.NewMT19937(4)
	for i := 0; i < 256; i++ {
		s.Insert(r.Uint32())
	}
	probe := make([]uint32, 500)
	for i := range probe {
		probe[i] = r.Uint32()
	}
	sel := s.ContainsBatch(probe, nil)
	j := 0
	for i, k := range probe {
		want := s.Contains(k)
		got := j < len(sel) && sel[j] == uint32(i)
		if got != want {
			t.Fatalf("pos %d mismatch", i)
		}
		if got {
			j++
		}
	}
}

func TestReset(t *testing.T) {
	s := New(16)
	s.Insert(1)
	s.Reset()
	if s.Len() != 0 || s.Contains(1) {
		t.Fatal("reset incomplete")
	}
}

func TestQuickInsertDeleteRoundTrip(t *testing.T) {
	s := New(1024)
	if err := quick.Check(func(key uint32) bool {
		before := s.Len()
		s.Insert(key)
		fresh := s.Len() == before+1
		if !s.Contains(key) {
			return false
		}
		if fresh {
			return s.Delete(key) && !s.Contains(key)
		}
		return true
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMirrorsMap(t *testing.T) {
	// Model-based test: a sequence of inserts/deletes must track the
	// behaviour of Go's built-in map exactly.
	s := New(64)
	model := map[uint32]bool{}
	r := rng.NewSplitMix64(6)
	for i := 0; i < 50000; i++ {
		k := r.Uint32n(2000) // dense range forces collisions
		switch r.Uint32n(3) {
		case 0:
			before := s.Len()
			s.Insert(k)
			if (s.Len() == before+1) != !model[k] {
				t.Fatalf("insert disagreement for %d", k)
			}
			model[k] = true
		case 1:
			if s.Delete(k) != model[k] {
				t.Fatalf("delete disagreement for %d", k)
			}
			delete(model, k)
		default:
			if s.Contains(k) != model[k] {
				t.Fatalf("contains disagreement for %d", k)
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("Len=%d model=%d", s.Len(), len(model))
	}
}

func TestSizeBits(t *testing.T) {
	s := New(100)
	if s.SizeBits() != uint64(len(s.slots))*64 {
		t.Fatal("SizeBits wrong")
	}
}

func BenchmarkContains(b *testing.B) {
	s := New(1 << 16)
	r := rng.NewMT19937(1)
	for i := 0; i < 1<<16; i++ {
		s.Insert(r.Uint32())
	}
	probe := make([]uint32, 1024)
	for i := range probe {
		probe[i] = r.Uint32()
	}
	sel := make([]uint32, 0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = s.ContainsBatch(probe, sel[:0])
	}
}
