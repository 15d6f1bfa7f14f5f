package perfilter

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"perfilter/internal/blocked"
	"perfilter/internal/bloom"
	"perfilter/internal/rng"
)

func allPublicFilters(t *testing.T) map[string]Filter {
	t.Helper()
	out := map[string]Filter{}
	mk := func(name string, f Filter, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = f
	}
	f, err := NewRegisterBlockedBloom(4, 1<<16)
	mk("register", f, err)
	f, err = NewBlockedBloom(8, 1<<16)
	mk("blocked", f, err)
	f, err = NewSectorizedBloom(8, 1<<16)
	mk("sectorized", f, err)
	f, err = NewCacheSectorizedBloom(8, 2, 1<<16)
	mk("cache-sectorized", f, err)
	f, err = NewClassicBloom(7, 1<<16)
	mk("classic", f, err)
	cf, err := NewCuckoo(16, 2, 1<<16)
	mk("cuckoo", cf, err)
	out["exact"] = NewExact(4096)
	return out
}

func TestAllConstructorsNoFalseNegatives(t *testing.T) {
	for name, f := range allPublicFilters(t) {
		r := rng.NewMT19937(7)
		keys := make([]uint32, 1500)
		for i := range keys {
			keys[i] = r.Uint32()
			if err := f.Insert(keys[i]); err != nil {
				t.Fatalf("%s: insert: %v", name, err)
			}
		}
		for _, k := range keys {
			if !f.Contains(k) {
				t.Fatalf("%s: false negative", name)
			}
		}
		sel := f.ContainsBatch(keys, nil)
		if len(sel) != len(keys) {
			t.Fatalf("%s: batch lost keys: %d/%d", name, len(sel), len(keys))
		}
	}
}

func TestFilterAccessors(t *testing.T) {
	for name, f := range allPublicFilters(t) {
		if f.SizeBits() == 0 {
			t.Fatalf("%s: zero size", name)
		}
		if fpr := f.FPR(100); fpr < 0 || fpr > 1 {
			t.Fatalf("%s: FPR %v out of range", name, fpr)
		}
		if f.String() == "" {
			t.Fatalf("%s: empty String()", name)
		}
		f.Insert(1)
		f.Reset()
		if f.Contains(1) && name != "classic" { // classic k small fp possible? no: empty filter
			t.Fatalf("%s: containment after Reset", name)
		}
	}
}

func TestExactHasZeroFPR(t *testing.T) {
	f := NewExact(100)
	if f.FPR(1000) != 0 {
		t.Fatal("exact filter must have FPR 0")
	}
	r := rng.NewSplitMix64(3)
	f.Insert(42)
	for i := 0; i < 10000; i++ {
		k := r.Uint32()
		if k != 42 && f.Contains(k) {
			t.Fatal("exact filter false positive")
		}
	}
}

func TestCuckooExtras(t *testing.T) {
	cf, err := NewCuckoo(16, 4, CuckooSizeForKeys(16, 4, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 1000; i++ {
		if err := cf.Insert(i); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if cf.Count() != 1000 {
		t.Fatalf("Count=%d", cf.Count())
	}
	if lf := cf.LoadFactor(); lf <= 0 || lf > 0.96 {
		t.Fatalf("LoadFactor=%v", lf)
	}
	if !cf.Delete(500) {
		t.Fatal("delete failed")
	}
	if cf.Count() != 999 {
		t.Fatal("count after delete wrong")
	}
}

func TestConfigValidateAndString(t *testing.T) {
	good := Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
		SectorBits: 64, Groups: 2, K: 8, Magic: true}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(good.String(), "cache-sectorized") {
		t.Fatalf("String() = %q", good.String())
	}
	bad := Config{Kind: BlockedBloom, WordBits: 48}
	if bad.Validate() == nil {
		t.Fatal("invalid config validated")
	}
	if !strings.Contains(bad.String(), "invalid") {
		t.Fatal("invalid config should render as invalid")
	}
	if _, err := New(bad, 1024); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

func TestConfigFPRWithoutBuilding(t *testing.T) {
	c := Config{Kind: Cuckoo, TagBits: 16, BucketSize: 2}
	// 20 bits/key → α=0.8 → ≈5e-5 (§6).
	f := c.FPR(20000, 1000)
	if f < 3e-5 || f > 8e-5 {
		t.Fatalf("cuckoo FPR %v, want ≈5e-5", f)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	configs := []Config{
		{Kind: BlockedBloom, WordBits: 64, BlockBits: 512, SectorBits: 64, Groups: 2, K: 8, Magic: true},
		{Kind: ClassicBloom, K: 7},
		{Kind: Cuckoo, TagBits: 12, BucketSize: 4, Magic: true},
		{Kind: Exact},
	}
	for _, c := range configs {
		mc, err := c.toModel()
		if err != nil {
			t.Fatal(err)
		}
		back := fromModel(mc)
		if back != c {
			t.Fatalf("round trip changed config: %+v -> %+v", c, back)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		BlockedBloom: "bloom", ClassicBloom: "classic",
		Cuckoo: "cuckoo", Exact: "exact", Kind(99): "invalid",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d) = %q", k, k.String())
		}
	}
}

// TestFilterStrings pins every kind's String() to the values captured
// before the kernels took over the Filter contract; the blocked, classic
// and cuckoo kernels render their Params.
func TestFilterStrings(t *testing.T) {
	build := func(k Kind) Filter {
		f, err := New(DefaultConfig(k), 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	reg, _ := NewRegisterBlockedBloom(4, 1<<16)
	plain, _ := New(Config{Kind: BlockedBloom, WordBits: 32, BlockBits: 256, SectorBits: 256, Groups: 1, K: 6}, 1<<16)
	cf, _ := NewCuckoo(8, 4, 1<<16)
	xf, _ := BuildXor([]Key{1, 2, 3}, 16, true)
	ef := NewExact(10)
	ef.Insert(1)
	for _, c := range []struct {
		f    Filter
		want string
	}{
		{build(BlockedBloom), "bloom/cache-sectorized[B=512,S=64,z=2,k=8,magic]"},
		{build(ClassicBloom), "bloom/classic[k=7,magic]"},
		{build(Cuckoo), "cuckoo[l=16,b=2,magic]"},
		{build(Xor), "xor8[building]"},
		{build(Exact), "exact[n=0,slots=2048]"},
		{reg, "bloom/register[B=64,k=4,magic]"},
		{plain, "bloom/blocked[B=256,k=6,pow2]"},
		{cf, "cuckoo[l=8,b=4,magic]"},
		{xf, "fuse16"},
		{ef, "exact[n=1,slots=16]"},
	} {
		if got := c.f.String(); got != c.want {
			t.Errorf("%T: String() = %q, want %q", c.f, got, c.want)
		}
		var params fmt.Stringer
		switch f := c.f.(type) {
		case blocked.Probe:
			params = f.Params()
		case *bloom.Filter:
			params = f.Params()
		case *CuckooFilter:
			params = f.Params()
		default:
			continue
		}
		if params.String() != c.want {
			t.Errorf("%T: Params().String() = %q, want %q", c.f, params, c.want)
		}
	}
}

func TestAdviseHighThroughputPicksBloom(t *testing.T) {
	advice, err := Advise(Workload{N: 1 << 20, Tw: 50, Sigma: 0.1, Platform: PlatformSKX})
	if err != nil {
		t.Fatal(err)
	}
	if advice.Config.Kind != BlockedBloom {
		t.Fatalf("tw=50 recommends %v, expected blocked bloom", advice.Config.Kind)
	}
	if advice.Overhead <= 0 || advice.FPR <= 0 {
		t.Fatalf("degenerate advice: %+v", advice)
	}
	if !advice.Beneficial {
		t.Fatal("filtering at σ=0.1, tw=50 should be beneficial")
	}
}

func TestAdviseLowThroughputPicksCuckoo(t *testing.T) {
	advice, err := Advise(Workload{N: 1 << 16, Tw: 1 << 22, Sigma: 0.1, Platform: PlatformSKX})
	if err != nil {
		t.Fatal(err)
	}
	if advice.Config.Kind != Cuckoo {
		t.Fatalf("tw=2^22 recommends %v, expected cuckoo", advice.Config.Kind)
	}
}

func TestAdviseExactRegion(t *testing.T) {
	advice, err := Advise(Workload{
		N: 1 << 12, Tw: 1 << 28, Sigma: 0.1,
		Platform: PlatformSKX, AllowExact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if advice.Config.Kind != Exact {
		t.Fatalf("small n, huge tw recommends %v, expected exact", advice.Config.Kind)
	}
	if advice.FPR != 0 {
		t.Fatal("exact advice must have FPR 0")
	}
}

func TestAdviseSigmaOneNeverBeneficial(t *testing.T) {
	advice, err := Advise(Workload{N: 1 << 16, Tw: 1000, Sigma: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if advice.Beneficial {
		t.Fatal("σ=1 can never be beneficial")
	}
}

func TestAdviseErrors(t *testing.T) {
	if _, err := Advise(Workload{N: 0, Tw: 100}); err == nil {
		t.Fatal("accepted N=0")
	}
	if _, err := Advise(Workload{N: 100, Tw: -1}); err == nil {
		t.Fatal("accepted negative tw")
	}
	if _, err := Advise(Workload{N: 100, Tw: 1, Sigma: 2}); err == nil {
		t.Fatal("accepted sigma > 1")
	}
	if _, err := Advise(Workload{N: 100, Tw: 1, BitsPerKeyBudget: 2}); err == nil {
		t.Fatal("accepted sub-4-bit budget")
	}
}

func TestBuildAdvisedEndToEnd(t *testing.T) {
	f, advice, err := BuildAdvised(Workload{N: 10000, Tw: 200, Sigma: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if f.SizeBits() != advice.MBits && advice.Config.Kind != Exact {
		// Sizes can only differ by the constructor's own rounding, which
		// ActualBits already applied during advising.
		t.Fatalf("built size %d != advised %d", f.SizeBits(), advice.MBits)
	}
	r := rng.NewMT19937(5)
	for i := 0; i < 10000; i++ {
		if err := f.Insert(r.Uint32()); err != nil {
			t.Fatalf("advised filter overflowed: %v", err)
		}
	}
}

func TestAdvisePlatformsDiffer(t *testing.T) {
	// The Bloom-vs-Cuckoo boundary shifts with platform (Fig. 10): at a
	// mid-range tw, at least the overhead should differ across machines.
	w := Workload{N: 1 << 18, Tw: 4096, Sigma: 0.1}
	seen := map[string]bool{}
	for _, p := range []Platform{PlatformXeon, PlatformKNL, PlatformSKX, PlatformRyzen} {
		w.Platform = p
		advice, err := Advise(w)
		if err != nil {
			t.Fatal(err)
		}
		seen[advice.Model] = true
	}
	if len(seen) != 4 {
		t.Fatalf("expected 4 distinct models, got %v", seen)
	}
}

func TestQuickPublicInvariant(t *testing.T) {
	f, err := NewCacheSectorizedBloom(8, 2, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(key uint32) bool {
		f.Insert(key)
		sel := f.ContainsBatch([]uint32{key}, nil)
		return f.Contains(key) && len(sel) == 1
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHash64Distribution(t *testing.T) {
	seen := map[uint32]bool{}
	for i := uint64(0); i < 10000; i++ {
		seen[Hash64(i)] = true
	}
	if len(seen) < 9990 {
		t.Fatalf("Hash64 collides too much: %d distinct", len(seen))
	}
	f, _ := NewRegisterBlockedBloom(4, 1<<14)
	for i := uint64(0); i < 1000; i++ {
		f.Insert(Hash64(i << 32)) // keys differing only in high bits
	}
	for i := uint64(0); i < 1000; i++ {
		if !f.Contains(Hash64(i << 32)) {
			t.Fatal("wide-key workflow broken")
		}
	}
}

func TestHashString(t *testing.T) {
	a, b := HashString("hello"), HashString("hellp")
	if a == b {
		t.Fatal("adjacent strings collide")
	}
	if HashString("hello") != a {
		t.Fatal("not deterministic")
	}
	seen := map[uint32]bool{}
	for i := 0; i < 5000; i++ {
		seen[HashString(string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune(i)))] = true
	}
	if len(seen) < 4000 {
		t.Fatalf("HashString collides too much: %d distinct", len(seen))
	}
}
