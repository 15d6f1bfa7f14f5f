package perfilter

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"perfilter/internal/exact"
	"perfilter/internal/model"
)

// TestKinds checks every model kind against the root package's per-kind
// switches (newFilter, wireMagic, Unmarshal, DefaultConfig) and the
// model's spec table: the default configuration builds, one InsertBatch
// encodes byte-identically to per-key Insert, the encoding leads with
// wireMagic(k), Unmarshal restores the built type and its probe answers,
// and the filter implements Seal exactly when the model calls the kind
// immutable. A kind missing from any switch fails here.
func TestKinds(t *testing.T) {
	keys, probes := buildKeys(500)
	for k := range Kind(model.NumKinds()) {
		t.Run(k.String(), func(t *testing.T) {
			cfg := DefaultConfig(k)
			if cfg.Kind != k {
				t.Fatalf("DefaultConfig declares kind %s", cfg.Kind)
			}
			build := func() Filter {
				f, err := New(cfg, 1<<16)
				if err != nil {
					t.Fatalf("New(DefaultConfig): %v", err)
				}
				return f
			}
			encode := func(f Filter) []byte {
				// Build-once families solve their table before
				// serializing it.
				if sealer, ok := f.(interface{ Seal() error }); ok {
					if err := sealer.Seal(); err != nil {
						t.Fatalf("Seal: %v", err)
					}
				}
				data, err := Marshal(f)
				if err != nil {
					t.Fatalf("Marshal: %v", err)
				}
				return data
			}

			// A failed build returns a nil Filter, not a nil pointer in a
			// non-nil interface (classic and cuckoo reject size 0).
			if f, err := New(cfg, 0); err != nil && f != nil {
				t.Errorf("New(size 0) failed (%v) but returned non-nil %T", err, f)
			}

			f := build()
			_, seals := f.(interface{ Seal() error })
			if seals != !KindMutable(k) {
				t.Errorf("%T implements Seal = %v, KindMutable = %v", f, seals, KindMutable(k))
			}
			for _, key := range keys {
				if err := f.Insert(key); err != nil {
					t.Fatalf("Insert: %v", err)
				}
			}
			fb := build()
			if n, err := fb.InsertBatch(keys); n != len(keys) || err != nil {
				t.Fatalf("InsertBatch = (%d, %v), want (%d, nil)", n, err, len(keys))
			}
			data := encode(f)
			if !bytes.Equal(encode(fb), data) {
				t.Fatal("InsertBatch encodes differently from per-key Insert")
			}
			if got := binary.LittleEndian.Uint32(data); got != wireMagic(k) || got == 0 {
				t.Fatalf("encoding leads with %#08x, wireMagic = %#08x", got, wireMagic(k))
			}

			g, err := Unmarshal(data)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if reflect.TypeOf(g) != reflect.TypeOf(f) {
				t.Fatalf("decoded %T, built %T", g, f)
			}
			if !slices.Equal(g.ContainsBatch(probes, nil), f.ContainsBatch(probes, nil)) {
				t.Fatal("decoded filter selects different probes")
			}

			mc, err := cfg.toModel()
			if err != nil {
				t.Fatal(err)
			}
			shard, err := newFilter(mc, 1<<16, true)
			if err != nil {
				t.Fatalf("newFilter(shard): %v", err)
			}
			if reflect.TypeOf(shard) != reflect.TypeOf(f) {
				t.Fatalf("shard is %T, standalone %T", shard, f)
			}
			if got, ok := KindByName(k.String()); !ok || got != k {
				t.Errorf("KindByName(%q) = %v, %v", k.String(), got, ok)
			}
		})
	}

	t.Run("names", func(t *testing.T) {
		var want []string
		for k := range model.Kind(model.NumKinds()) {
			want = append(want, k.String())
		}
		if got := KindNames(); !slices.Equal(got, want) {
			t.Errorf("KindNames() = %v, want %v", got, want)
		}
		if k, ok := KindByName(""); !ok || k != BlockedBloom {
			t.Errorf(`KindByName("") = %v, %v; want bloom`, k, ok)
		}
		// Wire-only envelopes, retired families and unknown names are not
		// constructible kinds.
		for _, name := range []string{"sharded", "adaptive", "counting", "scalable", "quotient"} {
			if _, ok := KindByName(name); ok {
				t.Errorf("KindByName(%q) resolved", name)
			}
		}
	})

	t.Run("exact-sizing", func(t *testing.T) {
		// Standalone, an mBits below 2^16 is a key count; a shard always
		// reads bits (64 per slot).
		mc := model.Config{Kind: model.KindExact}
		for _, tc := range []struct {
			mBits      uint64
			standalone uint64
			shard      uint64
		}{
			{4096, 4096, 64},
			{1 << 20, 1 << 14, 1 << 14},
		} {
			f, err := newFilter(mc, tc.mBits, false)
			if err != nil {
				t.Fatal(err)
			}
			s, err := newFilter(mc, tc.mBits, true)
			if err != nil {
				t.Fatal(err)
			}
			if f.SizeBits() != exactSizeBits(tc.standalone) || s.SizeBits() != exactSizeBits(tc.shard) {
				t.Errorf("mBits %d: standalone %d bits, shard %d bits; want %d and %d",
					tc.mBits, f.SizeBits(), s.SizeBits(), exactSizeBits(tc.standalone), exactSizeBits(tc.shard))
			}
		}
	})
}

// exactSizeBits is the footprint of an exact set pre-sized for n keys.
func exactSizeBits(n uint64) uint64 { return exact.New(int(n)).SizeBits() }

// TestModelNewMatchesNew checks that the model's build table, which the
// calibration and the measured figures construct through, builds the same
// type and size as New for every kind's default configuration.
func TestModelNewMatchesNew(t *testing.T) {
	for k := range Kind(model.NumKinds()) {
		cfg := DefaultConfig(k)
		mc, err := cfg.toModel()
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(cfg, 1<<16)
		if err != nil {
			t.Fatalf("%s: New: %v", k, err)
		}
		g, err := mc.New(1 << 16)
		if err != nil {
			t.Fatalf("%s: model.Config.New: %v", k, err)
		}
		if reflect.TypeOf(g) != reflect.TypeOf(f) || g.SizeBits() != f.SizeBits() {
			t.Errorf("%s: model builds %T of %d bits, New %T of %d bits",
				k, g, g.SizeBits(), f, f.SizeBits())
		}
	}
	if _, err := (model.Config{Kind: model.Kind(model.NumKinds())}).New(1 << 16); err == nil {
		t.Error("model.Config.New built an invalid kind")
	}
}
