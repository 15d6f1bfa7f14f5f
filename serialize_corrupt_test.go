package perfilter

import (
	"encoding/binary"
	"strings"
	"testing"
)

// corruptTestEncodings builds one small marshaled image per family —
// every leading wire magic Unmarshal dispatches on, including the
// sharded and adaptive envelopes.
func corruptTestEncodings(t testing.TB) map[string][]byte {
	const n = 2000
	build, _ := buildKeys(n)
	out := make(map[string][]byte)
	add := func(name string, f Filter, err error) {
		if err != nil {
			t.Fatal(err)
		}
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
		data, err := Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	bloomF, err := NewCacheSectorizedBloom(8, 2, n*16)
	add("blocked", bloomF, err)
	classicF, err := NewClassicBloom(7, n*16)
	add("classic", classicF, err)
	cuckooF, err := NewCuckoo(16, 4, CuckooSizeForKeys(16, 4, n))
	add("cuckoo", cuckooF, err)
	xorF, err := New(Config{Kind: Xor, FingerprintBits: 8}, 0)
	add("xor", xorF, err)
	fuseF, err := New(Config{Kind: Xor, FingerprintBits: 16, Fuse: true}, 0)
	add("fuse", fuseF, err)
	add("exact", NewExact(n), nil)
	shardedF, err := NewSharded(Config{Kind: BlockedBloom, WordBits: 64,
		BlockBits: 512, SectorBits: 64, Groups: 2, K: 8, Magic: true}, n*16, 4)
	add("sharded", shardedF, err)
	adaptiveF, err := NewAdaptive(Config{Kind: Cuckoo, TagBits: 16,
		BucketSize: 4, Magic: true}, CuckooSizeForKeys(16, 4, n)*2, AdaptiveOptions{Shards: 2})
	add("adaptive", adaptiveF, err)
	return out
}

// TestUnmarshalCorruptNamesMagic is the decode-robustness table test:
// for every family's wire image, any truncation must return an error —
// never panic — and every decode error must name the magic it was
// dispatched on (so operators can tell *what* refused to load from a
// mixed snapshot directory). Unknown magics must be named too.
func TestUnmarshalCorruptNamesMagic(t *testing.T) {
	for name, data := range corruptTestEncodings(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := Unmarshal(data); err != nil {
				t.Fatalf("intact image rejected: %v", err)
			}
			// Every short prefix, plus byte-off-the-end cuts near the
			// header/payload boundary and the tail.
			cuts := make(map[int]bool)
			for cut := 0; cut < len(data) && cut < 128; cut++ {
				cuts[cut] = true
			}
			for _, cut := range []int{len(data) - 1, len(data) - 4, len(data) / 2} {
				if cut > 0 {
					cuts[cut] = true
				}
			}
			for cut := range cuts {
				_, err := Unmarshal(data[:cut])
				if err == nil {
					t.Fatalf("truncation to %d of %d bytes accepted", cut, len(data))
				}
				if !strings.Contains(err.Error(), "magic") {
					t.Fatalf("truncation to %d: error does not name the magic: %v", cut, err)
				}
			}
			// An unknown magic is named in hex.
			bad := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(bad, 0xDEADBEEF)
			_, err := Unmarshal(bad)
			if err == nil || !strings.Contains(err.Error(), "0xdeadbeef") {
				t.Fatalf("unknown magic not named: %v", err)
			}
			// A flipped byte mid-payload either still decodes (bit arrays
			// carry no checksum) or fails while naming the magic — but
			// must never panic.
			flip := append([]byte(nil), data...)
			flip[len(flip)/2] ^= 0xFF
			if _, err := Unmarshal(flip); err != nil && !strings.Contains(err.Error(), "magic") {
				t.Fatalf("flipped byte: error does not name the magic: %v", err)
			}
		})
	}
}

// FuzzUnmarshal feeds arbitrary bytes to the decode dispatcher: it must
// never panic, and every rejection must name the magic (or its absence).
// The seed corpus covers every family's real wire image and the retired
// counting ("pfLN") and scalable ("pfLG") magics.
func FuzzUnmarshal(f *testing.F) {
	for _, data := range corruptTestEncodings(f) {
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0x42, 0x4C, 0x66, 0x70})
	f.Add([]byte{0x4E, 0x4C, 0x66, 0x70})
	f.Add([]byte{0x47, 0x4C, 0x66, 0x70})
	f.Fuzz(func(t *testing.T, data []byte) {
		filt, err := Unmarshal(data)
		if err == nil {
			if filt == nil {
				t.Fatal("nil filter with nil error")
			}
			return
		}
		if !strings.Contains(err.Error(), "magic") {
			t.Fatalf("decode error does not name the magic: %v", err)
		}
	})
}
