package registry_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"perfilter"
	"perfilter/internal/model"
	"perfilter/internal/registry"
)

// stubFilter is a minimal registry.Filter: an exact map behind the
// batched interface, with a toy length-prefixed wire format.
type stubFilter struct {
	keys map[registry.Key]bool
	bits uint64
}

func newStub(mBits uint64) *stubFilter {
	return &stubFilter{keys: map[registry.Key]bool{}, bits: mBits}
}

func (s *stubFilter) Insert(key registry.Key) error  { s.keys[key] = true; return nil }
func (s *stubFilter) Contains(key registry.Key) bool { return s.keys[key] }
func (s *stubFilter) ContainsBatch(keys []registry.Key, sel []uint32) []uint32 {
	for i, k := range keys {
		if s.keys[k] {
			sel = append(sel, uint32(i))
		}
	}
	return sel
}
func (s *stubFilter) InsertBatch(keys []registry.Key) (int, error) {
	for _, k := range keys {
		s.keys[k] = true
	}
	return len(keys), nil
}
func (s *stubFilter) SizeBits() uint64     { return s.bits }
func (s *stubFilter) FPR(n uint64) float64 { return 0 }
func (s *stubFilter) Reset()               { clear(s.keys) }
func (s *stubFilter) String() string       { return "stub" }

// MarshalBinary writes the magic, the key count and the keys.
func (s *stubFilter) MarshalBinary() ([]byte, error) {
	out := binary.LittleEndian.AppendUint32(nil, stubWireMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.keys)))
	for k := range s.keys {
		out = binary.LittleEndian.AppendUint32(out, k)
	}
	return out, nil
}

// stubWireMagic spells "pfLZ" like the real assignments but is not in
// internal/magic: the stub never ships.
const stubWireMagic = 0x70664C5A

// stubKind sits outside the model's Kind space; the registry accepts any
// non-colliding kind value, so a test family needs no model changes.
const stubKind = model.Kind(0x40)

// TestStubKindRegistration demonstrates the extension contract the
// registry exists for: installing one descriptor — the moral equivalent
// of one register_<family>.go file — makes a new family constructible,
// name-resolvable, magic-dispatchable and enumerable, with no edits to
// any dispatch site. Unregister restores the table for the other tests.
func TestStubKindRegistration(t *testing.T) {
	baseline := len(registry.All())
	registry.Register(registry.Descriptor{
		Kind:      stubKind,
		Name:      "stub",
		Aliases:   []string{"stub-exact"},
		WireMagic: stubWireMagic,
		Default:   model.Config{Kind: stubKind},
		New: func(mc model.Config, mBits uint64) (registry.Filter, error) {
			return newStub(mBits), nil
		},
		Decode: func(data []byte) (registry.Filter, error) {
			if len(data) < 8 {
				return nil, fmt.Errorf("stub: truncated")
			}
			n := binary.LittleEndian.Uint32(data[4:])
			if uint64(len(data)) < 8+4*uint64(n) {
				return nil, fmt.Errorf("stub: truncated key block")
			}
			f := newStub(uint64(n) * 32)
			for i := uint32(0); i < n; i++ {
				f.keys[binary.LittleEndian.Uint32(data[8+4*i:])] = true
			}
			return f, nil
		},
	})
	defer func() {
		registry.Unregister("stub")
		if got := len(registry.All()); got != baseline {
			t.Fatalf("Unregister left %d descriptors, want %d", got, baseline)
		}
		if registry.ByName("stub") != nil || registry.ByMagic(stubWireMagic) != nil ||
			registry.Lookup(stubKind) != nil {
			t.Fatal("stub descriptor still resolvable after Unregister")
		}
	}()

	d := registry.Lookup(stubKind)
	if !d.Constructible() {
		t.Fatal("stub kind not constructible after Register")
	}
	if registry.ByName("stub") != d || registry.ByName("stub-exact") != d {
		t.Fatal("stub name/alias do not resolve")
	}
	if registry.ByMagic(stubWireMagic) != d {
		t.Fatal("stub wire magic does not dispatch")
	}
	found := false
	for _, name := range registry.KindNames() {
		if name == "stub" {
			found = true
		}
	}
	if !found {
		t.Fatalf("KindNames %v does not include the stub", registry.KindNames())
	}

	f, err := d.New(d.Default, 1024)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(100)
	for _, k := range keys {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	data, err := perfilter.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := registry.ByMagic(stubWireMagic).Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.(*stubFilter); !ok {
		t.Fatalf("decoded stub is %T", g)
	}
	for _, k := range keys {
		if !g.Contains(k) {
			t.Fatalf("decoded stub lost key %d", k)
		}
	}
}
