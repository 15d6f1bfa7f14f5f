package cuckoo

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"perfilter/internal/rng"
)

func allParams() []Params {
	var ps []Params
	for _, useMagic := range []bool{false, true} {
		for _, l := range []uint32{4, 8, 12, 16, 32} {
			for _, b := range []uint32{1, 2, 4, 8} {
				ps = append(ps, Params{TagBits: l, BucketSize: b, Magic: useMagic})
			}
		}
	}
	return ps
}

// fill inserts distinct random keys until the target load factor or the
// first ErrFull (short-fingerprint configurations like l=4, b=1 saturate
// well below the theoretical limits), returning the successfully inserted
// keys. The no-false-negative guarantee only covers successful inserts.
func fill(t *testing.T, f *Filter, load float64, seed uint32) []uint32 {
	t.Helper()
	r := rng.NewMT19937(seed)
	target := uint64(load * float64(f.NumBuckets()) * float64(f.Params().BucketSize))
	keys := make([]uint32, 0, target)
	seen := make(map[uint32]bool, target)
	for uint64(len(keys)) < target {
		k := r.Uint32()
		if seen[k] {
			continue
		}
		seen[k] = true
		if err := f.Insert(k); err != nil {
			break
		}
		keys = append(keys, k)
	}
	return keys
}

// mustFill is fill with a hard assertion that the target load was reached.
func mustFill(t *testing.T, f *Filter, load float64, seed uint32) []uint32 {
	t.Helper()
	keys := fill(t, f, load, seed)
	if f.LoadFactor() < load-0.01 {
		t.Fatalf("reached load %.3f, wanted %.3f", f.LoadFactor(), load)
	}
	return keys
}

func TestNoFalseNegatives(t *testing.T) {
	for _, p := range allParams() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			f, err := New(p, 1<<16)
			if err != nil {
				t.Fatal(err)
			}
			// Stay at half the practical load limit so inserts can't fail.
			keys := fill(t, f, 0.45*float64(loadLimit(p.BucketSize)), 42)
			for _, k := range keys {
				if !f.Contains(k) {
					t.Fatalf("false negative for key %d", k)
				}
			}
		})
	}
}

func loadLimit(b uint32) float64 {
	switch b {
	case 1:
		return 0.50
	case 2:
		return 0.84
	case 4:
		return 0.95
	default:
		return 0.98
	}
}

func TestAchievesPaperLoadFactors(t *testing.T) {
	// §4: partial-key cuckoo hashing reaches ~50%, 84%, 95% occupancy for
	// b = 1, 2, 4. Verify we can fill to slightly below those limits.
	cases := []struct {
		b    uint32
		load float64
	}{
		{1, 0.47}, {2, 0.80}, {4, 0.92}, {8, 0.95},
	}
	for _, c := range cases {
		p := Params{TagBits: 12, BucketSize: c.b}
		f, err := New(p, 1<<18)
		if err != nil {
			t.Fatal(err)
		}
		keys := mustFill(t, f, c.load, 7)
		for _, k := range keys {
			if !f.Contains(k) {
				t.Fatalf("b=%d: false negative at high load", c.b)
			}
		}
	}
}

func TestAltIndexInvolution(t *testing.T) {
	// Partial-key cuckoo hashing requires altIndex to be an involution for
	// both addressing modes (Eq. 7 for pow2, Eq. 11 for magic).
	for _, p := range []Params{
		{TagBits: 16, BucketSize: 2, Magic: false},
		{TagBits: 16, BucketSize: 2, Magic: true},
		{TagBits: 8, BucketSize: 4, Magic: true},
	} {
		f, err := New(p, 999*32) // non-pow2 request exercises magic sizing
		if err != nil {
			t.Fatal(err)
		}
		r := rng.NewSplitMix64(13)
		for i := 0; i < 20000; i++ {
			bucket := r.Uint32n(f.NumBuckets())
			tag := r.Uint32n(1<<p.TagBits-1) + 1
			alt := f.altIndex(bucket, tag)
			if alt >= f.NumBuckets() {
				t.Fatalf("%s: alt index %d out of range %d", p, alt, f.NumBuckets())
			}
			if back := f.altIndex(alt, tag); back != bucket {
				t.Fatalf("%s: involution broken: %d -> %d -> %d (tag %d)",
					p, bucket, alt, back, tag)
			}
		}
	}
}

// TestBatchMatchesScalar pins ContainsBatch to scalar Contains on every
// geometry: over a 999-key probe (62 full groups and a tail), over every
// length from 0 to 40 (every partial group), and again once the filter
// holds a victim. With a victim, the SWAR geometries must still take the
// SWAR kernel, and it must find every inserted key, the victim's owner
// included.
func TestBatchMatchesScalar(t *testing.T) {
	swarWithVictim := 0
	for _, p := range allParams() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			f, err := New(p, 1<<15)
			if err != nil {
				t.Fatal(err)
			}
			inserted := fill(t, f, 0.4*loadLimit(p.BucketSize), 3)
			r := rng.NewMT19937(77)
			probe := make([]uint32, 999)
			for i := range probe {
				// Every third key is a member, so both answers occur.
				if i%3 == 0 && i/3 < len(inserted) {
					probe[i] = inserted[i/3]
				} else {
					probe[i] = r.Uint32()
				}
			}
			checkBatch := func(stage string) {
				t.Helper()
				for n := 0; n <= 40; n++ {
					checkContainsBatch(t, f, probe[:n], stage)
				}
				checkContainsBatch(t, f, probe, stage)
			}
			checkBatch("load 0.4")
			for i := 0; !f.hasVictim; i++ {
				if i == 1<<20 {
					t.Fatal("no insert parked a victim")
				}
				k := r.Uint32()
				if err := f.Insert(k); err != nil {
					t.Fatalf("ErrFull before any victim: %v", err)
				}
				inserted = append(inserted, k)
			}
			checkBatch("with victim")
			checkContainsBatch(t, f, inserted, "with victim, inserted keys")
			if !f.swarOK() {
				return
			}
			swarWithVictim++
			out := make([]uint32, len(inserted))
			if got := f.batchSWAR(inserted, out, 0); got != len(inserted) {
				t.Fatalf("SWAR kernel with a victim finds %d of %d inserted keys", got, len(inserted))
			}
		})
	}
	if swarWithVictim == 0 {
		t.Fatal("no SWAR geometry reached the with-victim stage")
	}
}

// checkContainsBatch fails the test unless ContainsBatch selects exactly
// the positions of probe that scalar Contains answers true for.
func checkContainsBatch(t *testing.T, f *Filter, probe []uint32, stage string) {
	t.Helper()
	sel := f.ContainsBatch(probe, nil)
	j := 0
	for i, k := range probe {
		want := f.Contains(k)
		got := j < len(sel) && sel[j] == uint32(i)
		if got != want {
			t.Fatalf("%s, %d keys, position %d: batch=%v scalar=%v", stage, len(probe), i, got, want)
		}
		if got {
			j++
		}
	}
	if j != len(sel) {
		t.Fatalf("%s, %d keys: %d unexplained selection entries", stage, len(probe), len(sel)-j)
	}
}

// TestInsertBatchMatchesScalar pins InsertBatch to a loop of scalar Insert
// calls that stops at the first error: on every geometry, in both
// addressing modes, over batches of every length from 0 to 40 and of 999
// keys, repeated until the filter refuses keys with ErrFull. After every
// batch the returned count and error, Count and the serialized bytes must
// match. Placing a group's keys in any order but the input order changes
// which slots and kicks they take, so the bytes catch that too.
func TestInsertBatchMatchesScalar(t *testing.T) {
	lengths := make([]int, 0, 42)
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 999)
	midGroupFull := false
	for _, p := range allParams() {
		for _, mBits := range []uint64{1 << 12, 1 << 16} {
			batch, err := New(p, mBits)
			if err != nil {
				t.Fatal(err)
			}
			scalar, err := New(p, mBits)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.NewMT19937(uint32(mBits) + p.TagBits*10 + p.BucketSize)
			full := false
			for round := 0; !full; round++ {
				if round == 100 {
					t.Fatalf("%s, %d bits: never full after %d rounds", p, mBits, round)
				}
				for _, length := range lengths {
					keys := make([]uint32, length)
					for i := range keys {
						keys[i] = r.Uint32()
					}
					n, err := batch.InsertBatch(keys)
					wantN, wantErr := len(keys), error(nil)
					for i, k := range keys {
						if wantErr = scalar.Insert(k); wantErr != nil {
							wantN = i
							break
						}
					}
					step := fmt.Sprintf("%s, %d bits, round %d, %d keys", p, mBits, round, length)
					if n != wantN || err != wantErr {
						t.Fatalf("%s: InsertBatch = (%d, %v), Insert loop = (%d, %v)", step, n, err, wantN, wantErr)
					}
					if batch.Count() != scalar.Count() {
						t.Fatalf("%s: Count %d, Insert loop %d", step, batch.Count(), scalar.Count())
					}
					a, _ := batch.MarshalBinary()
					b, _ := scalar.MarshalBinary()
					if !bytes.Equal(a, b) {
						t.Fatalf("%s: InsertBatch bytes differ from the Insert loop", step)
					}
					if err != nil {
						full = true
						midGroupFull = midGroupFull || n%groupWidth != 0
					}
				}
			}
		}
	}
	if !midGroupFull {
		t.Fatal("no batch hit ErrFull inside a group")
	}
}

func TestDeleteRestoresNegative(t *testing.T) {
	for _, p := range []Params{
		{TagBits: 16, BucketSize: 2},
		{TagBits: 12, BucketSize: 4, Magic: true},
		{TagBits: 8, BucketSize: 4},
	} {
		f, err := New(p, 1<<15)
		if err != nil {
			t.Fatal(err)
		}
		keys := mustFill(t, f, 0.3, 11)
		for _, k := range keys {
			if !f.Delete(k) {
				t.Fatalf("%s: delete of inserted key %d failed", p, k)
			}
		}
		if f.Count() != 0 {
			t.Fatalf("%s: count %d after deleting everything", p, f.Count())
		}
		// With all tags removed the filter must reject everything.
		r := rng.NewSplitMix64(5)
		for i := 0; i < 1000; i++ {
			if f.Contains(r.Uint32()) {
				t.Fatalf("%s: containment after full deletion", p)
			}
		}
	}
}

func TestDeleteAbsentReturnsFalse(t *testing.T) {
	f, _ := New(Params{TagBits: 16, BucketSize: 2}, 1<<14)
	if f.Delete(12345) {
		t.Fatal("delete on empty filter returned true")
	}
	if err := f.Insert(1); err != nil {
		t.Fatal(err)
	}
	if !f.Delete(1) || f.Delete(1) {
		t.Fatal("double delete misbehaved")
	}
}

func TestBagSemantics(t *testing.T) {
	// The paper highlights that cuckoo filters support duplicates: insert
	// the same key several times, delete it the same number of times.
	f, _ := New(Params{TagBits: 16, BucketSize: 4}, 1<<14)
	const dups = 4
	for i := 0; i < dups; i++ {
		if err := f.Insert(42); err != nil {
			t.Fatalf("duplicate insert %d: %v", i, err)
		}
	}
	for i := 0; i < dups; i++ {
		if !f.Contains(42) {
			t.Fatalf("lost key after %d deletes", i)
		}
		if !f.Delete(42) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if f.Contains(42) && f.Count() != 0 {
		t.Fatal("key still present after deleting all duplicates")
	}
}

func TestVictimPath(t *testing.T) {
	// Overfill a tiny filter until an insert parks a victim; the victim's
	// key must still be found, and batch must agree with scalar.
	p := Params{TagBits: 8, BucketSize: 1}
	f, err := New(p, 64*8) // 64 single-slot buckets
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewMT19937(1)
	var inserted []uint32
	sawVictim := false
	for i := 0; i < 10000; i++ {
		k := r.Uint32()
		if err := f.Insert(k); err != nil {
			break
		}
		inserted = append(inserted, k)
		if f.hasVictim {
			sawVictim = true
			break
		}
	}
	if !sawVictim {
		t.Skip("victim slot never engaged at this size/seed")
	}
	for _, k := range inserted {
		if !f.Contains(k) {
			t.Fatalf("false negative with victim engaged (key %d)", k)
		}
	}
	sel := f.ContainsBatch(inserted, nil)
	if len(sel) != len(inserted) {
		t.Fatalf("batch with victim: %d/%d found", len(sel), len(inserted))
	}
}

func TestInsertEventuallyFull(t *testing.T) {
	p := Params{TagBits: 4, BucketSize: 1}
	f, _ := New(p, 32*4)
	r := rng.NewMT19937(2)
	var err error
	for i := 0; i < 100000; i++ {
		if err = f.Insert(r.Uint32()); err != nil {
			break
		}
	}
	if err != ErrFull {
		t.Fatalf("expected ErrFull, got %v", err)
	}
}

func TestMeasuredFPRMatchesModel(t *testing.T) {
	cases := []Params{
		{TagBits: 8, BucketSize: 4},
		{TagBits: 12, BucketSize: 4, Magic: true},
		{TagBits: 16, BucketSize: 2},
		{TagBits: 16, BucketSize: 2, Magic: true},
	}
	const n = 1 << 14
	for _, p := range cases {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			f, err := New(p, p.SizeForKeys(n))
			if err != nil {
				t.Fatal(err)
			}
			r := rng.NewMT19937(55)
			inserted := make(map[uint32]bool, n)
			for len(inserted) < n {
				k := r.Uint32()
				if inserted[k] {
					continue
				}
				if err := f.Insert(k); err != nil {
					t.Fatalf("insert: %v", err)
				}
				inserted[k] = true
			}
			model := f.FPR(n)
			probes := 1 << 18
			fp, tested := 0, 0
			for tested < probes {
				k := r.Uint32()
				if inserted[k] {
					continue
				}
				tested++
				if f.Contains(k) {
					fp++
				}
			}
			measured := float64(fp) / float64(probes)
			slack := 3.5 * sqrtf(model/float64(probes)) // ~3σ binomial
			if measured > model*1.35+slack+1e-4 || measured < model*0.65-slack-1e-4 {
				t.Fatalf("measured %.6f vs model %.6f", measured, model)
			}
		})
	}
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations are plenty for tolerance math.
	g := x
	for i := 0; i < 40; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}

func TestSizeAccounting(t *testing.T) {
	p := Params{TagBits: 12, BucketSize: 4, Magic: true}
	f, _ := New(p, 100000)
	if f.SizeBits() != uint64(f.NumBuckets())*48 {
		t.Fatal("SizeBits != buckets · b · l")
	}
	if f.SizeBits() < 100000 || float64(f.SizeBits()) > 100000*1.01 {
		t.Fatalf("size %d far from request", f.SizeBits())
	}
	// pow2 mode rounds buckets to a power of two.
	f2, _ := New(Params{TagBits: 16, BucketSize: 2}, 1000*32)
	nb := f2.NumBuckets()
	if nb&(nb-1) != 0 {
		t.Fatalf("pow2 bucket count %d not a power of two", nb)
	}
}

func TestSizeForKeys(t *testing.T) {
	for _, b := range []uint32{1, 2, 4, 8} {
		p := Params{TagBits: 16, BucketSize: b}
		m := p.SizeForKeys(10000)
		f, err := New(p, m)
		if err != nil {
			t.Fatal(err)
		}
		mustFill(t, f, float64(10000)/(float64(f.NumBuckets())*float64(b))*0.99, 9)
	}
}

func TestValidation(t *testing.T) {
	bad := []Params{
		{TagBits: 0, BucketSize: 2},
		{TagBits: 5, BucketSize: 2},
		{TagBits: 20, BucketSize: 2},
		{TagBits: 16, BucketSize: 0},
		{TagBits: 16, BucketSize: 3},
		{TagBits: 16, BucketSize: 16},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
		if _, err := New(p, 1024); err == nil {
			t.Fatalf("case %d: New accepted invalid params", i)
		}
	}
	if _, err := New(Params{TagBits: 16, BucketSize: 2}, 0); err == nil {
		t.Fatal("New accepted zero size")
	}
}

func TestReset(t *testing.T) {
	f, _ := New(Params{TagBits: 16, BucketSize: 2}, 1<<14)
	fill(t, f, 0.3, 21)
	f.Reset()
	if f.Count() != 0 || f.LoadFactor() != 0 {
		t.Fatal("Reset left state behind")
	}
	r := rng.NewSplitMix64(1)
	for i := 0; i < 500; i++ {
		if f.Contains(r.Uint32()) {
			t.Fatal("containment after Reset")
		}
	}
}

func TestQuickInsertContains(t *testing.T) {
	f, _ := New(Params{TagBits: 16, BucketSize: 4, Magic: true}, 1<<17)
	if err := quick.Check(func(key uint32) bool {
		if err := f.Insert(key); err != nil {
			return true // full is acceptable; containment only promised on success
		}
		return f.Contains(key)
	}, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeleteInverse(t *testing.T) {
	f, _ := New(Params{TagBits: 16, BucketSize: 4}, 1<<16)
	if err := quick.Check(func(key uint32) bool {
		if err := f.Insert(key); err != nil {
			return true
		}
		return f.Delete(key)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPackedTagStorageRoundTrip(t *testing.T) {
	// Direct get/set round-trips across straddling offsets (l=12 straddles
	// 64-bit word boundaries every few slots).
	for _, l := range []uint32{4, 8, 12, 16, 32} {
		p := Params{TagBits: l, BucketSize: 4}
		f, _ := New(p, 1<<12)
		r := rng.NewSplitMix64(uint64(l))
		type slotRef struct{ b, s, tag uint32 }
		var written []slotRef
		for i := 0; i < 200; i++ {
			b := r.Uint32n(f.NumBuckets())
			s := r.Uint32n(p.BucketSize)
			tag := r.Uint32() & f.tagMask
			f.setTag(b, s, tag)
			written = append(written, slotRef{b, s, tag})
		}
		// Later writes may overwrite earlier ones; verify the final state.
		final := map[[2]uint32]uint32{}
		for _, w := range written {
			final[[2]uint32{w.b, w.s}] = w.tag
		}
		for ref, tag := range final {
			if got := f.getTag(ref[0], ref[1]); got != tag {
				t.Fatalf("l=%d: slot (%d,%d) = %d, want %d", l, ref[0], ref[1], got, tag)
			}
		}
	}
}

func TestStringAndAccessors(t *testing.T) {
	p := Params{TagBits: 16, BucketSize: 2, Magic: true}
	if p.String() != "cuckoo[l=16,b=2,magic]" {
		t.Fatalf("String() = %q", p.String())
	}
	f, _ := New(p, 1<<14)
	if f.Params() != p {
		t.Fatal("Params accessor mismatch")
	}
	if f.FPR(100) != p.FPR(f.SizeBits(), 100) {
		t.Fatal("FPR accessor mismatch")
	}
}

// TestResetMatchesFresh pins the Reset contract: after Reset, the filter
// must be byte-for-byte equivalent to a freshly constructed one under the
// same insert sequence. The regression this guards: Reset used to keep
// the kick RNG's advanced state, so post-Reset inserts made different
// eviction choices than a fresh filter and the tables diverged — breaking
// Reset-vs-Rotate(nil) equivalence in the sharded wrapper.
func TestResetMatchesFresh(t *testing.T) {
	p := Params{TagBits: 8, BucketSize: 4, Magic: true}
	const mBits = 1 << 14
	f, err := New(p, mBits)
	if err != nil {
		t.Fatal(err)
	}
	// Fill to 90% load so the kick loop (and its RNG) runs plenty, then
	// reset and replay a fixed insert sequence.
	mustFill(t, f, 0.90, 31)
	f.Reset()
	if f.Count() != 0 || f.LoadFactor() != 0 {
		t.Fatalf("Reset left count=%d load=%v", f.Count(), f.LoadFactor())
	}

	fresh, err := New(p, mBits)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewMT19937(77)
	for {
		k := r.Uint32()
		errReset := f.Insert(k)
		errFresh := fresh.Insert(k)
		if (errReset == nil) != (errFresh == nil) {
			t.Fatalf("insert divergence: reset filter err=%v, fresh err=%v", errReset, errFresh)
		}
		if errReset != nil || f.LoadFactor() > 0.90 {
			break
		}
	}
	a, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("serialized sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reset filter diverges from fresh at byte %d (kick RNG not reseeded?)", i)
		}
	}
}

// benchMiB is the filter size of the memory-bound benchmark cases: the
// size loadbench's mixed workload grows its cuckoo filter to in 20 s,
// several times the L2 and beyond most of the L3, so every bucket probe
// is a cache miss the kernels must overlap.
const benchMiB = 37

// benchRun is the key count of one batch call in the memory-bound cases:
// a 1024-key request split over 8 shards.
const benchRun = 128

// benchParams is the server's default cuckoo geometry.
var benchParams = Params{TagBits: 16, BucketSize: 2, Magic: true}

// BenchmarkContainsBatch probes 1024-key batches of a 2^17-bit filter,
// which sits in L1, on SWAR and non-SWAR geometries, and 128-key runs of
// a 37 MiB default filter at load 0.5, where memory-level parallelism
// decides the cost.
func BenchmarkContainsBatch(b *testing.B) {
	for _, p := range []Params{
		{TagBits: 16, BucketSize: 2},
		{TagBits: 16, BucketSize: 2, Magic: true},
		{TagBits: 8, BucketSize: 4},
		{TagBits: 12, BucketSize: 4}, // non-SWAR path
	} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			f, _ := New(p, 1<<17)
			r := rng.NewMT19937(1)
			for i := 0; i < 1<<12; i++ {
				if err := f.Insert(r.Uint32()); err != nil {
					b.Fatal(err)
				}
			}
			probe := make([]uint32, 1024)
			for i := range probe {
				probe[i] = r.Uint32()
			}
			sel := make([]uint32, 0, 1024)
			b.SetBytes(int64(len(probe) * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel = f.ContainsBatch(probe, sel[:0])
			}
		})
	}
	b.Run(fmt.Sprintf("%s/%dMiB", benchParams, benchMiB), func(b *testing.B) {
		f, err := New(benchParams, benchMiB<<23)
		if err != nil {
			b.Fatal(err)
		}
		r := rng.NewMT19937(1)
		fillKeys := make([]uint32, f.NumBuckets()) // load 0.5 at b = 2
		for i := range fillKeys {
			fillKeys[i] = r.Uint32()
		}
		if _, err := f.InsertBatch(fillKeys); err != nil {
			b.Fatal(err)
		}
		probe := fillKeys[:1<<20] // overwritten: reuse the memory
		for i := range probe {
			probe[i] = r.Uint32()
		}
		sel := make([]uint32, 0, benchRun)
		off := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sel = f.ContainsBatch(probe[off:off+benchRun], sel[:0])
			off = (off + benchRun) % len(probe)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRun), "ns/key")
	})
}

// BenchmarkInsertBatch compares a loop of scalar Insert calls with
// InsertBatch on a 37 MiB default filter. Each iteration restores the
// filter at load 0.25 (untimed) and fills it to load 0.7 in 128-key runs,
// the load range and run length of loadbench's mixed workload.
func BenchmarkInsertBatch(b *testing.B) {
	f, err := New(benchParams, benchMiB<<23)
	if err != nil {
		b.Fatal(err)
	}
	slots := int(f.NumBuckets()) * int(benchParams.BucketSize)
	r := rng.NewMT19937(1)
	keys := make([]uint32, slots*7/10)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	prefill := slots / 4
	if _, err := f.InsertBatch(keys[:prefill]); err != nil {
		b.Fatal(err)
	}
	startWords, startCount := slices.Clone(f.words), f.count
	timed := keys[prefill:]
	for _, scalar := range []bool{true, false} {
		name := "batch"
		if scalar {
			name = "scalar"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(f.words, startWords)
				f.count = startCount
				b.StartTimer()
				for off := 0; off < len(timed); off += benchRun {
					run := timed[off:min(off+benchRun, len(timed))]
					if scalar {
						for _, k := range run {
							if err := f.Insert(k); err != nil {
								b.Fatal(err)
							}
						}
					} else if _, err := f.InsertBatch(run); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(timed)), "ns/key")
		})
	}
}
