package obs

import "testing"

// TestRing pins the ring's semantics: capacity bounds retention,
// overwrites drop oldest-first, the total counts every Add, and Walk
// goes newest-first and stops when asked.
func TestRing(t *testing.T) {
	r := NewRing[int](4)
	if vals, total := r.Snapshot(); len(vals) != 0 || total != 0 {
		t.Fatalf("fresh ring: %v, total=%d", vals, total)
	}
	for i := 1; i <= 10; i++ {
		r.Add(i)
	}
	vals, total := r.Snapshot()
	if len(vals) != 4 || total != 10 {
		t.Fatalf("after 10 adds: %v, total=%d", vals, total)
	}
	for i, v := range vals {
		if want := 7 + i; v != want {
			t.Fatalf("snapshot[%d] = %d, want %d (oldest first)", i, v, want)
		}
	}
	var walked []int
	r.Walk(func(v int) bool { walked = append(walked, v); return true })
	if len(walked) != 4 || walked[0] != 10 || walked[3] != 7 {
		t.Fatalf("Walk order %v, want newest first", walked)
	}
	// Find the newest multiple of 3, as Adaptive.LastMigration does.
	found := 0
	r.Walk(func(v int) bool {
		if v%3 == 0 {
			found = v
			return false
		}
		return true
	})
	if found != 9 {
		t.Fatalf("newest multiple of 3 = %d, want 9", found)
	}
	matched := false
	r.Walk(func(v int) bool { matched = matched || v > 100; return true })
	if matched {
		t.Fatal("Walk visited a value that is not retained")
	}

	if one := NewRing[int](0); one == nil || len(one.buf) != 1 {
		t.Fatal("capacity < 1 must clamp to 1")
	}
}

// TestRingConcurrent drives Add/Snapshot/Walk from many goroutines
// (meaningful under -race). Every snapshot must be self-consistent: the
// retained values never outnumber the total read with them.
func TestRingConcurrent(t *testing.T) {
	r := NewRing[int](8)
	const adds = 5000
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < adds/4; i++ {
				r.Add(i)
			}
		}()
	}
	for finished := 0; finished < 4; {
		select {
		case <-done:
			finished++
		default:
		}
		vals, total := r.Snapshot()
		if uint64(len(vals)) > total {
			t.Fatalf("snapshot holds %d values but total is %d", len(vals), total)
		}
		r.Walk(func(int) bool { return true })
	}
	if _, total := r.Snapshot(); total != adds {
		t.Fatalf("total %d, want %d", total, adds)
	}
}
