package perfilter

import "testing"

// TestStorageAlignedAllKinds is the cache-line alignment property test:
// every constructible kind allocates its word storage through the
// internal/mem aligned allocator, and deserialization restores that
// guarantee — a filter must never lose its alignment (and with it the
// one-line-per-probe property of the blocked kernels, §3–4 of the paper)
// by going through a Marshal/Unmarshal round trip.
func TestStorageAlignedAllKinds(t *testing.T) {
	const n = 10_000
	build, _ := buildKeys(n)
	const un = uint64(n)
	cases := []struct {
		name  string
		build func() (Filter, error)
	}{
		{"cache-sectorized", func() (Filter, error) { return NewCacheSectorizedBloom(8, 2, un*16) }},
		{"register-blocked", func() (Filter, error) { return NewRegisterBlockedBloom(2, un*16) }},
		{"sectorized", func() (Filter, error) { return NewSectorizedBloom(8, un*16) }},
		{"blocked-512", func() (Filter, error) { return NewBlockedBloom(8, un*16) }},
		{"classic", func() (Filter, error) { return NewClassicBloom(7, un*16) }},
		{"cuckoo", func() (Filter, error) {
			f, err := NewCuckoo(16, 4, CuckooSizeForKeys(16, 4, un))
			return f, err
		}},
		{"exact", func() (Filter, error) { return NewExact(n), nil }},
		{"xor8", func() (Filter, error) { return New(Config{Kind: Xor, FingerprintBits: 8}, 0) }},
		{"fuse16", func() (Filter, error) { return New(Config{Kind: Xor, FingerprintBits: 16, Fuse: true}, 0) }},
	}
	assertAligned := func(t *testing.T, f Filter, when string) {
		t.Helper()
		a, ok := f.(interface{ StorageAligned() bool })
		if !ok {
			t.Fatalf("%s: %T does not report storage alignment", when, f)
		}
		if !a.StorageAligned() {
			t.Fatalf("%s: %T word storage is not cache-line aligned", when, f)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			assertAligned(t, f, "fresh")
			for _, k := range build {
				if err := f.Insert(k); err != nil {
					t.Fatal(err)
				}
			}
			if x, ok := f.(*XorFilter); ok {
				if err := x.Seal(); err != nil {
					t.Fatal(err)
				}
			}
			// Growth / sealing must not regress alignment (exact grows its
			// table, xor solves into fresh arrays).
			assertAligned(t, f, "loaded")
			data, err := Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Unmarshal(data)
			if err != nil {
				t.Fatal(err)
			}
			assertAligned(t, back, "after round trip")
		})
	}
}

// TestStorageAlignedSharded covers the concurrency plane: every shard of
// a Sharded (and the Adaptive wrapper around it) reports aligned storage,
// both freshly built and restored from the envelope format.
func TestStorageAlignedSharded(t *testing.T) {
	const n = 10_000
	build, _ := buildKeys(n)
	cfg := Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
		SectorBits: 64, Groups: 2, K: 8, Magic: true}
	s, err := NewSharded(cfg, uint64(n)*16, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range build {
		if err := s.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if !s.StorageAligned() {
		t.Fatal("sharded: some shard's word storage is not cache-line aligned")
	}
	data, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSharded(data)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if !back.StorageAligned() {
		t.Fatal("sharded: alignment lost across the envelope round trip")
	}

	a, err := NewAdaptive(cfg, uint64(n)*16, AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if !a.StorageAligned() {
		t.Fatal("adaptive: word storage is not cache-line aligned")
	}
}
