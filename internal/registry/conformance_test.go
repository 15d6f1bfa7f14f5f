// Conformance suite for the kind-descriptor registry: importing the root
// package populates the table (each family's register_<family>.go runs at
// package initialization), and these tests assert the registry, the
// model's kind-spec table and the wire-magic assignments all agree — the
// invariants a new family must satisfy by adding exactly one descriptor
// file plus one model spec file.
package registry_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"perfilter"
	"perfilter/internal/magic"
	"perfilter/internal/model"
	"perfilter/internal/registry"
)

// testKeys returns n deterministic keys (xorshift32).
func testKeys(n int) []registry.Key {
	keys := make([]registry.Key, n)
	s := uint32(0x243F6A88)
	for i := range keys {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		keys[i] = s
	}
	return keys
}

// TestEveryModelKindHasDescriptor asserts the registry covers the model's
// whole Kind space with constructible descriptors whose names match
// Kind.String() — NumKinds cannot drift from the registered families.
func TestEveryModelKindHasDescriptor(t *testing.T) {
	for k := model.Kind(0); int(k) < model.NumKinds(); k++ {
		d := registry.Lookup(k)
		if !d.Constructible() {
			t.Fatalf("kind %d (%s) has no constructible descriptor", k, k)
		}
		if d.Name != k.String() {
			t.Errorf("kind %s: descriptor name %q != Kind.String() %q", k, d.Name, k.String())
		}
		if d.Default.Kind != k {
			t.Errorf("kind %s: default config declares kind %s", k, d.Default.Kind)
		}
		if err := d.Default.Validate(); err != nil {
			t.Errorf("kind %s: default config invalid: %v", k, err)
		}
		if d.WireMagic == 0 {
			t.Errorf("kind %s: no wire magic", k)
		}
		if registry.ByName(d.Name) != d {
			t.Errorf("kind %s: ByName(%q) does not resolve to its descriptor", k, d.Name)
		}
	}
}

// TestDescriptorRoundTrip builds each constructible family from its
// default configuration, inserts keys, serializes through perfilter.Marshal
// (the filter's own MarshalBinary) and decodes through the magic-keyed
// Decode, asserting the decoded filter has the built filter's type and
// answers probe-for-probe the same. A twin built with one InsertBatch
// must serialize to the same bytes.
func TestDescriptorRoundTrip(t *testing.T) {
	keys := testKeys(500)
	probes := testKeys(4000)
	for k := model.Kind(0); int(k) < model.NumKinds(); k++ {
		d := registry.Lookup(k)
		t.Run(d.Name, func(t *testing.T) {
			f, err := d.New(d.Default, 1<<16)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for _, key := range keys {
				if err := f.Insert(key); err != nil {
					t.Fatalf("Insert: %v", err)
				}
			}
			// The same keys through one InsertBatch must encode
			// byte-identically: batch kernels only reorder memory access.
			fb, err := d.New(d.Default, 1<<16)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if n, err := fb.InsertBatch(keys); n != len(keys) || err != nil {
				t.Fatalf("InsertBatch = (%d, %v), want (%d, nil)", n, err, len(keys))
			}
			encode := func(f registry.Filter) []byte {
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
			dd := registry.ByMagic(d.WireMagic)
			if dd != d {
				t.Fatalf("ByMagic(%#08x) resolves to %v, want %s", d.WireMagic, dd, d.Name)
			}
			g, err := dd.Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if reflect.TypeOf(g) != reflect.TypeOf(f) {
				t.Fatalf("decoded %T, built %T", g, f)
			}
			want := f.ContainsBatch(probes, nil)
			got := g.ContainsBatch(probes, nil)
			if fmt.Sprint(want) != fmt.Sprint(got) {
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

// TestCostEntryPresence asserts the model's spec table prices every
// registered family: a descriptor without a cost entry would silently
// fall out of every sweep.
func TestCostEntryPresence(t *testing.T) {
	m := model.SKX()
	for k := model.Kind(0); int(k) < model.NumKinds(); k++ {
		d := registry.Lookup(k)
		if tl := m.Cycles(d.Default, 1<<20, true); tl <= 0 {
			t.Errorf("kind %s: cost model returns %v cycles", k, tl)
		}
		if cfgs := model.ConfigsFor([]model.Kind{k}, false); len(cfgs) == 0 {
			t.Errorf("kind %s: spec enumerates no configurations", k)
		}
	}
}

// TestEnumerableKindsParity asserts the advisor's eligibility gates and
// the registry agree: every kind a sweep can pick has a constructible
// descriptor, and the widest hints enumerate exactly the registered
// model-kind space.
func TestEnumerableKindsParity(t *testing.T) {
	for _, h := range []model.EnumHints{
		{},
		{FullSpace: true},
		{AllowExact: true},
		{ReadMostly: true},
		{FullSpace: true, AllowExact: true, ReadMostly: true},
	} {
		for _, k := range model.EnumerableKinds(h) {
			if !registry.Lookup(k).Constructible() {
				t.Errorf("hints %+v enumerate kind %s with no descriptor", h, k)
			}
		}
	}
	full := model.EnumerableKinds(model.EnumHints{FullSpace: true, AllowExact: true, ReadMostly: true})
	if len(full) != model.NumKinds() {
		t.Errorf("widest hints enumerate %d kinds, want %d", len(full), model.NumKinds())
	}
	names := registry.KindNames()
	if len(names) != model.NumKinds() {
		t.Errorf("KindNames lists %d kinds, want %d: %v", len(names), model.NumKinds(), names)
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
	for k := model.Kind(0); int(k) < model.NumKinds(); k++ {
		d := registry.Lookup(k)
		f, err := d.New(d.Default, 1<<16)
		if err != nil {
			t.Fatalf("kind %s: New: %v", k, err)
		}
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

// TestWireMagicParity asserts the registry's magics are exactly the
// centrally assigned set in internal/magic — no descriptor invents one.
func TestWireMagicParity(t *testing.T) {
	assigned := map[uint32]bool{}
	for _, m := range magic.WireMagics() {
		assigned[m] = true
	}
	regMagics := registry.WireMagics()
	if len(regMagics) != len(assigned) {
		t.Errorf("registry has %d wire magics, internal/magic assigns %d", len(regMagics), len(assigned))
	}
	for _, m := range regMagics {
		if !assigned[m] {
			t.Errorf("registry magic %#08x not assigned in internal/magic", m)
		}
	}
}

// TestPublicKindAPI asserts the root package's registry-derived helpers:
// name resolution (including the "" alias for the default family), the
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
