package registry

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"perfilter"
	"perfilter/internal/blocked"
	"perfilter/internal/cuckoo"
	"perfilter/internal/magic"
	"perfilter/internal/model"
)

// testKeys returns n deterministic keys (xorshift32).
func testKeys(n int) []perfilter.Key {
	keys := make([]perfilter.Key, n)
	s := uint32(0x243F6A88)
	for i := range keys {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		keys[i] = s
	}
	return keys
}

// build returns a filter of kind k built from its default configuration.
func build(t *testing.T, k model.Kind) perfilter.Filter {
	t.Helper()
	f, err := perfilter.New(perfilter.DefaultConfig(perfilter.Kind(k)), 1<<16)
	if err != nil {
		t.Fatalf("kind %s: New(DefaultConfig): %v", k, err)
	}
	return f
}

// TestLookupMatchesDefaultConfig pins the benchmark's lookup to the root
// package's defaults: same kind, same rendering, and valid.
func TestLookupMatchesDefaultConfig(t *testing.T) {
	for k := range model.Kind(model.NumKinds()) {
		got := Lookup(k).Default
		want := perfilter.DefaultConfig(perfilter.Kind(k))
		if err := got.Validate(); err != nil {
			t.Errorf("%s: %v", k, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: Lookup renders %q, DefaultConfig %q", k, got, want)
		}
	}
}

// TestEveryModelKindHasDescriptor asserts Lookup covers the model's whole
// Kind space: each kind's default declares that kind, validates, resolves
// by name, builds, and encodes under a centrally assigned wire magic. The
// blocked and cuckoo defaults the benchmark replay hands straight to the
// kernel constructors build there too.
func TestEveryModelKindHasDescriptor(t *testing.T) {
	assigned := map[uint32]bool{}
	for _, m := range magic.WireMagics() {
		assigned[m] = true
	}
	seen := map[uint32]model.Kind{}
	for k := range model.Kind(model.NumKinds()) {
		d := Lookup(k)
		if d == nil {
			t.Fatalf("kind %d has no descriptor", k)
		}
		if d.Default.Kind != k {
			t.Errorf("kind %s: default config declares kind %s", k, d.Default.Kind)
		}
		if err := d.Default.Validate(); err != nil {
			t.Errorf("kind %s: default config invalid: %v", k, err)
		}
		if got, ok := perfilter.KindByName(k.String()); !ok || got != perfilter.Kind(k) {
			t.Errorf("kind %s: KindByName(%q) = %v, %v", k, k.String(), got, ok)
		}
		f := build(t, k)
		if s, ok := f.(interface{ Seal() error }); ok {
			if err := s.Seal(); err != nil {
				t.Fatalf("kind %s: Seal: %v", k, err)
			}
		}
		data, err := perfilter.Marshal(f)
		if err != nil {
			t.Fatalf("kind %s: Marshal: %v", k, err)
		}
		m := binary.LittleEndian.Uint32(data)
		if !assigned[m] {
			t.Errorf("kind %s: encoding leads with %#08x, not assigned in internal/magic", k, m)
		}
		if prev, dup := seen[m]; dup {
			t.Errorf("kinds %s and %s share wire magic %#08x", prev, k, m)
		}
		seen[m] = k
	}
	if _, err := blocked.New(Lookup(model.KindBlockedBloom).Default.Bloom, 1<<16); err != nil {
		t.Errorf("blocked.New(Lookup default): %v", err)
	}
	if _, err := cuckoo.New(Lookup(model.KindCuckoo).Default.Cuckoo, 1<<16); err != nil {
		t.Errorf("cuckoo.New(Lookup default): %v", err)
	}
}

// TestDescriptorRoundTrip builds each family from its default
// configuration, inserts keys, serializes through perfilter.Marshal and
// decodes through perfilter.Unmarshal, asserting the decoded filter has
// the built filter's type, answers probe-for-probe the same and
// re-encodes to the same bytes. A twin built with one InsertBatch must
// serialize to the same bytes.
func TestDescriptorRoundTrip(t *testing.T) {
	keys := testKeys(500)
	probes := testKeys(4000)
	for k := range model.Kind(model.NumKinds()) {
		t.Run(k.String(), func(t *testing.T) {
			f := build(t, k)
			for _, key := range keys {
				if err := f.Insert(key); err != nil {
					t.Fatalf("Insert: %v", err)
				}
			}
			// The same keys through one InsertBatch must encode
			// byte-identically: batch kernels only reorder memory access.
			fb := build(t, k)
			if n, err := fb.InsertBatch(keys); n != len(keys) || err != nil {
				t.Fatalf("InsertBatch = (%d, %v), want (%d, nil)", n, err, len(keys))
			}
			encode := func(f perfilter.Filter) []byte {
				// Build-once families solve their table before
				// serializing it.
				if sealer, ok := f.(interface{ Seal() error }); ok {
					if err := sealer.Seal(); err != nil {
						t.Fatalf("Seal: %v", err)
					}
				}
				data, err := perfilter.Marshal(f)
				if err != nil {
					t.Fatalf("Marshal: %v", err)
				}
				return data
			}
			data := encode(f)
			if !bytes.Equal(encode(fb), data) {
				t.Fatal("InsertBatch encodes differently from per-key Insert")
			}
			g, err := perfilter.Unmarshal(data)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if reflect.TypeOf(g) != reflect.TypeOf(f) {
				t.Fatalf("decoded %T, built %T", g, f)
			}
			want := f.ContainsBatch(probes, nil)
			got := g.ContainsBatch(probes, nil)
			if !slices.Equal(want, got) {
				t.Fatalf("round-trip probe mismatch: %d vs %d hits", len(want), len(got))
			}
			data2, err := perfilter.Marshal(g)
			if err != nil {
				t.Fatalf("re-Marshal: %v", err)
			}
			if !bytes.Equal(data, data2) {
				t.Fatalf("re-encoded payload differs (%d vs %d bytes)", len(data), len(data2))
			}
		})
	}
}

// TestEnumerableKindsParity asserts the advisor's eligibility gates and
// the constructible kinds agree: every kind a sweep can pick has a
// default that builds, and the widest hints enumerate exactly the
// KindNames vocabulary, in order.
func TestEnumerableKindsParity(t *testing.T) {
	for _, h := range []model.EnumHints{
		{},
		{FullSpace: true},
		{AllowExact: true},
		{ReadMostly: true},
		{FullSpace: true, AllowExact: true, ReadMostly: true},
	} {
		for _, k := range model.EnumerableKinds(h) {
			if Lookup(k).Default.Kind != k {
				t.Errorf("hints %+v enumerate kind %s with no default", h, k)
			}
			build(t, k)
		}
	}
	full := model.EnumerableKinds(model.EnumHints{FullSpace: true, AllowExact: true, ReadMostly: true})
	if len(full) != model.NumKinds() {
		t.Errorf("widest hints enumerate %d kinds, want %d", len(full), model.NumKinds())
	}
	names := perfilter.KindNames()
	if len(names) != len(full) {
		t.Fatalf("KindNames lists %d kinds, widest hints %d: %v", len(names), len(full), names)
	}
	for i, k := range full {
		if names[i] != k.String() {
			t.Errorf("KindNames[%d] = %q, want %q", i, names[i], k.String())
		}
	}
}

// TestMutabilityParity asserts the model's spec table (an immutable
// family is exactly one carrying a rebuild surcharge) agrees with the
// built filters' capabilities: a family's filter implements Seal — the
// sharded wrapper's build-once hook — exactly when it is immutable.
func TestMutabilityParity(t *testing.T) {
	for k := range model.Kind(model.NumKinds()) {
		f := build(t, k)
		_, seals := f.(interface{ Seal() error })
		if seals != !model.KindMutable(k) {
			t.Errorf("kind %s: %T implements Seal=%v, model KindMutable=%v",
				k, f, seals, model.KindMutable(k))
		}
		if perfilter.KindMutable(perfilter.Kind(k)) != model.KindMutable(k) {
			t.Errorf("kind %s: perfilter.KindMutable disagrees with the model", k)
		}
	}
}

// TestPublicKindAPI asserts the root package's kind helpers: name
// resolution (including the "" alias for the default family), the
// enumerated vocabulary, and default configurations that validate.
func TestPublicKindAPI(t *testing.T) {
	if k, ok := perfilter.KindByName(""); !ok || k != perfilter.BlockedBloom {
		t.Errorf(`KindByName("") = %v, %v; want BlockedBloom`, k, ok)
	}
	for _, name := range perfilter.KindNames() {
		k, ok := perfilter.KindByName(name)
		if !ok {
			t.Errorf("KindByName(%q) does not resolve", name)
			continue
		}
		if k.String() != name {
			t.Errorf("KindByName(%q) = kind %q", name, k.String())
		}
		if err := perfilter.DefaultConfig(k).Validate(); err != nil {
			t.Errorf("DefaultConfig(%s) invalid: %v", name, err)
		}
	}
	if _, ok := perfilter.KindByName("quotient"); ok {
		t.Error(`KindByName("quotient") resolved`)
	}
	// Wire-only formats are not constructible kinds.
	for _, name := range []string{"sharded", "adaptive"} {
		if _, ok := perfilter.KindByName(name); ok {
			t.Errorf("wire-only format %q resolved to a constructible kind", name)
		}
	}
}
