package perfilter

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"perfilter/internal/rng"
)

// roundTripKeys is the property-test scale: 1M keys, the paper's standard
// problem size (cut under -short to keep the race runs fast).
func roundTripKeys(t *testing.T) int {
	if testing.Short() {
		return 100_000
	}
	return 1_000_000
}

// buildKeys returns n deterministic build keys and a probe batch that
// mixes inserted and never-inserted keys.
func buildKeys(n int) (build, probe []Key) {
	r := rng.NewMT19937(9001)
	build = make([]Key, n)
	for i := range build {
		build[i] = r.Uint32() | 1
	}
	probe = make([]Key, n)
	for i := range probe {
		if i%2 == 0 {
			probe[i] = build[(i*7)%n]
		} else {
			probe[i] = r.Uint32() &^ 1
		}
	}
	return build, probe
}

// TestMarshalRoundTripAllKinds is the serialization property test: every
// filter kind satisfies Marshal → Unmarshal → byte-identical ContainsBatch
// selection vectors on the full key set.
func TestMarshalRoundTripAllKinds(t *testing.T) {
	n := roundTripKeys(t)
	build, probe := buildKeys(n)
	un := uint64(n)
	cases := []struct {
		name  string
		build func() (Filter, error)
	}{
		{"cache-sectorized", func() (Filter, error) { return NewCacheSectorizedBloom(8, 2, un*16) }},
		{"register-blocked", func() (Filter, error) { return NewRegisterBlockedBloom(2, un*16) }},
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range build {
				if err := f.Insert(k); err != nil {
					t.Fatal(err)
				}
			}
			// The build-once family serializes (and probes) its solved
			// table; seal it the way a sharded rotation would.
			if x, ok := f.(*XorFilter); ok {
				if err := x.Seal(); err != nil {
					t.Fatal(err)
				}
			}
			data, err := Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Unmarshal(data)
			if err != nil {
				t.Fatal(err)
			}
			if back.String() != f.String() || back.SizeBits() != f.SizeBits() {
				t.Fatalf("metadata changed: %q/%d vs %q/%d",
					back.String(), back.SizeBits(), f.String(), f.SizeBits())
			}
			want := f.ContainsBatch(probe, nil)
			got := back.ContainsBatch(probe, nil)
			if len(got) != len(want) {
				t.Fatalf("selection length %d after round trip, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("selection[%d] = %d after round trip, want %d", i, got[i], want[i])
				}
			}
			// The round trip must be byte-stable: re-marshaling the restored
			// filter reproduces the wire image exactly.
			again, err := Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Fatal("re-marshaled bytes differ from the original encoding")
			}
		})
	}
}

// TestMarshalRoundTripSharded covers the envelope format: every sharded
// kind round-trips with identical probe selections, preserved stats, and
// a still-working rotation path afterwards.
func TestMarshalRoundTripSharded(t *testing.T) {
	n := roundTripKeys(t)
	build, probe := buildKeys(n)
	un := uint64(n)
	cases := []struct {
		name  string
		cfg   Config
		mBits uint64
	}{
		{"bloom", Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
			SectorBits: 64, Groups: 2, K: 8, Magic: true}, un * 16},
		{"classic", Config{Kind: ClassicBloom, K: 7, Magic: true}, un * 16},
		{"cuckoo", Config{Kind: Cuckoo, TagBits: 16, BucketSize: 4, Magic: true},
			CuckooSizeForKeys(16, 4, un) * 115 / 100},
		{"exact", Config{Kind: Exact}, un * 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewSharded(tc.cfg, tc.mBits, 8)
			if err != nil {
				t.Fatal(err)
			}
			// Rotate once so the envelope records a non-zero sequence, then
			// fill the live generation through the batch path.
			if err := f.Rotate(context.Background(), 0, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := f.InsertBatch(build); err != nil {
				t.Fatal(err)
			}
			data, err := Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Unmarshal(data)
			if err != nil {
				t.Fatal(err)
			}
			back, ok := got.(*Sharded)
			if !ok {
				t.Fatalf("envelope deserialized to %T", got)
			}
			if back.NumShards() != f.NumShards() || back.Generation() != f.Generation() ||
				back.Count() != f.Count() || back.SizeBits() != f.SizeBits() ||
				back.Config() != f.Config() {
				t.Fatalf("restored wrapper state differs: %s vs %s", back, f)
			}
			want := f.ContainsBatch(probe, nil)
			sel := back.ContainsBatch(probe, nil)
			if len(sel) != len(want) {
				t.Fatalf("selection length %d after round trip, want %d", len(sel), len(want))
			}
			for i := range sel {
				if sel[i] != want[i] {
					t.Fatalf("selection[%d] = %d after round trip, want %d", i, sel[i], want[i])
				}
			}
			// Rotation still works on the restored wrapper (the factory was
			// rebuilt from the envelope's configuration).
			if err := back.Rotate(context.Background(), 0, nil); err != nil {
				t.Fatal(err)
			}
			if back.Generation() != f.Generation()+1 {
				t.Fatalf("generation %d after post-restore rotation", back.Generation())
			}
		})
	}
}

// TestUnmarshalReportsDecoderError pins the dispatch fix: a payload that
// names a kind but fails to decode must surface that kind's error, not a
// generic "unrecognized encoding" (the old behaviour tried decoders in
// sequence and swallowed the real failure).
func TestUnmarshalReportsDecoderError(t *testing.T) {
	f, err := NewCacheSectorizedBloom(8, 2, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the version byte: the magic still says "blocked", so the
	// blocked decoder must be the one that reports.
	corrupt := bytes.Clone(data)
	corrupt[4] = 0xFF
	_, err = Unmarshal(corrupt)
	if err == nil {
		t.Fatal("corrupt payload accepted")
	}
	if !strings.Contains(err.Error(), "blocked") {
		t.Fatalf("corrupt blocked payload reported %q, want the blocked decoder's error", err)
	}
	// Truncated body, same story.
	_, err = Unmarshal(data[:len(data)-3])
	if err == nil || !strings.Contains(err.Error(), "blocked") {
		t.Fatalf("truncated blocked payload reported %v, want the blocked decoder's error", err)
	}
}

// TestExactUnmarshalRejectsUnboundedDist pins the decode-time bound on
// Robin Hood probe distances: a crafted payload with dist values larger
// than the table must be rejected, or Contains on the restored set would
// never hit its termination condition and spin forever.
func TestExactUnmarshalRejectsUnboundedDist(t *testing.T) {
	f := NewExact(10)
	for i := uint32(1); i <= 10; i++ {
		f.Insert(i)
	}
	data, err := Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	evil := bytes.Clone(data)
	// Overwrite every slot's dist (second uint32 of each 8-byte slot
	// record, after the 16-byte header) with MaxUint32.
	for off := 16 + 4; off+4 <= len(evil); off += 8 {
		for i := 0; i < 4; i++ {
			evil[off+i] = 0xFF
		}
	}
	if _, err := Unmarshal(evil); err == nil {
		t.Fatal("unbounded probe distances accepted")
	}
	// And a count inconsistent with the occupied slots is rejected too.
	evil = bytes.Clone(data)
	evil[12], evil[13], evil[14], evil[15] = 0, 0, 0, 0 // count = 0
	if _, err := Unmarshal(evil); err == nil {
		t.Fatal("count/occupancy mismatch accepted")
	}
}

// TestShardedEnvelopeRejectsCorruption exercises the envelope's bounds
// checks: truncations and nonsense headers error out instead of panicking.
func TestShardedEnvelopeRejectsCorruption(t *testing.T) {
	f, err := NewSharded(Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
		SectorBits: 64, Groups: 2, K: 8, Magic: true}, 1<<16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 1000; i++ {
		if err := f.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	data, err := Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(data); cut += len(data) / 37 {
		if _, err := Unmarshal(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	bad := bytes.Clone(data)
	bad[5] = 200 // nonsense kind byte
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("nonsense kind accepted")
	}
	if _, err := Unmarshal(append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A stitched envelope: the first shard's blocked payload swapped for
	// a well-formed cuckoo payload. Each record decodes on its own, so
	// only the envelope-kind check can refuse it.
	cf, err := NewCuckoo(16, 2, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := Marshal(cf)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	first := int(le.Uint32(data[envHeaderLen+8:]))
	rest := data[envHeaderLen+envShardLen+first:]
	stitched := bytes.Clone(data[:envHeaderLen+envShardLen])
	le.PutUint32(stitched[envHeaderLen+8:], uint32(len(foreign)))
	stitched = append(append(stitched, foreign...), rest...)
	if _, err := Unmarshal(stitched); err == nil {
		t.Fatal("envelope with a cuckoo shard inside a blocked envelope accepted")
	}
}

func TestMarshalRoundTripBloom(t *testing.T) {
	f, _ := NewCacheSectorizedBloom(8, 2, 1<<14)
	r := rng.NewMT19937(3)
	keys := make([]uint32, 300)
	for i := range keys {
		keys[i] = r.Uint32()
		f.Insert(keys[i])
	}
	data, err := Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != f.String() || back.SizeBits() != f.SizeBits() {
		t.Fatalf("metadata changed: %s vs %s", back, f)
	}
	for _, k := range keys {
		if !back.Contains(k) {
			t.Fatal("false negative after round trip")
		}
	}
}

func TestMarshalRoundTripCuckoo(t *testing.T) {
	f, err := NewCuckoo(16, 2, CuckooSizeForKeys(16, 2, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 1000; i++ {
		if err := f.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	data, err := Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	cf, ok := back.(*CuckooFilter)
	if !ok {
		t.Fatalf("deserialized to %T", back)
	}
	if cf.Count() != 1000 {
		t.Fatalf("count %d after round trip", cf.Count())
	}
	for i := uint32(0); i < 1000; i++ {
		if !cf.Contains(i) {
			t.Fatal("false negative after round trip")
		}
	}
	if !cf.Delete(5) {
		t.Fatal("delete after round trip failed")
	}
}

// stubFilter is a Filter from outside the package's families: Marshal
// must reject it rather than guess an encoding.
type stubFilter struct{ Filter }

func TestMarshalUnsupported(t *testing.T) {
	if _, err := Marshal(stubFilter{}); err == nil {
		t.Fatal("foreign filter type should not claim to serialize")
	}
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil accepted")
	}
	// The retired counting ("pfLN") and scalable ("pfLG") magics no longer
	// have a decoder: snapshots carrying them are refused as unrecognized,
	// never handed to a decoder.
	for _, m := range []string{"pfLN", "pfLG"} {
		_, err := Unmarshal([]byte{m[3], m[2], m[1], m[0]})
		if err == nil || !strings.Contains(err.Error(), "unrecognized filter encoding") {
			t.Fatalf("retired magic %s: err = %v, want unrecognized filter encoding", m, err)
		}
	}
}
