package perfilter

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"strings"
	"testing"
)

// goldenCapture makes the golden tests log their current values in
// pinnable form; run
//
//	go test -run 'TestGoldenEnvelopes|TestGoldenAdvise' -v -golden-capture
//
// and paste the output over the golden tables below when intentionally
// changing a wire format or the cost model.
var goldenCapture = flag.Bool("golden-capture", false,
	"log the golden envelope digests and advise lines in pinnable form")

// The golden equivalence suite pins observable behaviour across
// refactors of the per-kind dispatch: the exact serialized bytes of every
// wire format, the advisor's answers over a workload grid, and the
// adaptive control loop's migration verdicts. Any drift means a refactor
// changed behaviour, not just structure.
//
// Everything pinned here is deterministic: the filters use fixed hash
// constants (no seeding), cuckoo eviction walks are derived from the
// victim tag, and xor/fuse peeling retries seeds in a fixed sequence.

// goldenKeys returns n deterministic pseudo-random keys (xorshift32,
// fixed seed) — stable across platforms and Go versions.
func goldenKeys(n int) []Key {
	keys := make([]Key, n)
	s := uint32(0x9E3779B9)
	for i := range keys {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		keys[i] = s
	}
	return keys
}

// goldenDigest marshals f and returns len(bytes):sha256hex.
func goldenDigest(t *testing.T, f Filter) string {
	t.Helper()
	b, err := Marshal(f)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%d:%s", len(b), hex.EncodeToString(sum[:8]))
}

// goldenFilters builds one deterministic instance of every serializable
// shape: each model kind standalone, the extension families, a sharded
// envelope per kind, and an adaptive envelope.
func goldenFilters(t *testing.T) []struct {
	name string
	f    Filter
} {
	t.Helper()
	keys := goldenKeys(1000)
	mk := func(cfg Config, mBits uint64) Filter {
		f, err := New(cfg, mBits)
		if err != nil {
			t.Fatalf("New(%v): %v", cfg, err)
		}
		for _, k := range keys {
			if err := f.Insert(k); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		return f
	}
	var out []struct {
		name string
		f    Filter
	}
	add := func(name string, f Filter) {
		out = append(out, struct {
			name string
			f    Filter
		}{name, f})
	}

	add("blocked", mk(Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
		SectorBits: 64, Groups: 2, K: 8, Magic: true}, 1<<16))
	add("register-blocked", mk(Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 64,
		SectorBits: 64, Groups: 1, K: 4, Magic: false}, 1<<16))
	add("classic", mk(Config{Kind: ClassicBloom, K: 7, Magic: true}, 1<<16))
	add("cuckoo", mk(Config{Kind: Cuckoo, TagBits: 16, BucketSize: 2, Magic: true},
		CuckooSizeForKeys(16, 2, 1000)))
	add("exact", mk(Config{Kind: Exact}, 1000))

	xf, err := BuildXor(keys, 8, false)
	if err != nil {
		t.Fatalf("BuildXor: %v", err)
	}
	add("xor8", xf)
	ff, err := BuildXor(keys, 16, true)
	if err != nil {
		t.Fatalf("BuildXor fuse: %v", err)
	}
	add("fuse16", ff)

	// An unsealed xor filter (buffered keys) exercises the pending-phase
	// wire format.
	uf, err := New(Config{Kind: Xor, FingerprintBits: 8}, 1<<14)
	if err != nil {
		t.Fatalf("New xor: %v", err)
	}
	for _, k := range keys[:100] {
		_ = uf.Insert(k)
	}
	add("xor8-unsealed", uf)

	// Sharded envelopes: one per kind, fixed 4 shards.
	shardCfgs := []struct {
		name string
		cfg  Config
	}{
		{"sharded-blocked", Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
			SectorBits: 64, Groups: 2, K: 8, Magic: true}},
		{"sharded-classic", Config{Kind: ClassicBloom, K: 7, Magic: true}},
		{"sharded-cuckoo", Config{Kind: Cuckoo, TagBits: 16, BucketSize: 2, Magic: true}},
		{"sharded-exact", Config{Kind: Exact}},
		{"sharded-fuse8", Config{Kind: Xor, FingerprintBits: 8, Fuse: true}},
	}
	for _, sc := range shardCfgs {
		s, err := NewSharded(sc.cfg, 1<<18, 4)
		if err != nil {
			t.Fatalf("NewSharded(%s): %v", sc.name, err)
		}
		if _, err := s.InsertBatch(keys); err != nil {
			t.Fatalf("InsertBatch(%s): %v", sc.name, err)
		}
		add(sc.name, s)
	}

	// Adaptive envelope: counters + key log + inner sharded envelope.
	a, err := NewAdaptive(Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
		SectorBits: 64, Groups: 2, K: 8, Magic: true}, 1<<18,
		AdaptiveOptions{Workload: Workload{Tw: 1024, Sigma: 0.125,
			BitsPerKeyBudget: 16, Platform: PlatformSKX}, Shards: 4})
	if err != nil {
		t.Fatalf("NewAdaptive: %v", err)
	}
	if _, err := a.InsertBatch(keys); err != nil {
		t.Fatalf("adaptive InsertBatch: %v", err)
	}
	a.ContainsBatch(keys[:512], nil)
	add("adaptive", a)
	return out
}

// goldenEnvelopes holds the pinned wire digests ("len:sha256prefix"),
// captured pre-refactor. See goldenCapture to regenerate.
var goldenEnvelopes = map[string]string{
	"blocked":          "8222:22e26a22aca31164",
	"register-blocked": "8222:e6da436eccda5799",
	"classic":          "8206:a1ad4dc6c283656f",
	"cuckoo":           "2427:1da721560a4e22d3",
	"exact":            "16400:20cfd0ac2352bf5d",
	"xor8":             "1319:a90ec6c06c148d49",
	"fuse16":           "2872:69d17c67a77bf8ea",
	"xor8-unsealed":    "456:323b75edbb0c7576",
	"sharded-blocked":  "32992:57f89df1a7f171e8",
	"sharded-classic":  "32928:f932839a46a49d32",
	"sharded-cuckoo":   "33044:4ece7649219d1391",
	"sharded-exact":    "65704:7781e385ce24f545",
	"sharded-fuse8":    "4328:a790110bdc576c86",
	"adaptive":         "37064:339e2dae7b2ef836",
}

// TestGoldenEnvelopes pins the serialized bytes of every wire format, and
// checks each round-trips through Unmarshal with identical probe results.
func TestGoldenEnvelopes(t *testing.T) {
	for _, g := range goldenFilters(t) {
		got := goldenDigest(t, g.f)
		if *goldenCapture {
			t.Logf("%q: %q,", g.name, got)
		}
		want, ok := goldenEnvelopes[g.name]
		if !ok {
			t.Errorf("%s: no pinned digest", g.name)
			continue
		}
		if got != want {
			t.Errorf("%s: envelope digest %s, pinned %s (serialized bytes changed)", g.name, got, want)
		}
		b, err := Marshal(g.f)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", g.name, err)
		}
		rt, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", g.name, err)
		}
		probes := goldenKeys(4000)
		if got, want := rt.ContainsBatch(probes, nil), g.f.ContainsBatch(probes, nil); !equalSel(got, want) {
			t.Errorf("%s: round-tripped probe results differ", g.name)
		}
	}
}

func equalSel(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// goldenWorkloads is the advisory grid: problem sizes and work savings
// spanning the skyline's regions, crossed with the hint flags that gate
// family enumeration.
func goldenWorkloads() []Workload {
	var out []Workload
	for _, n := range []uint64{1 << 14, 1 << 20, 1 << 26} {
		for _, tw := range []float64{16, 1024, 1 << 16} {
			for _, h := range []struct{ full, exact, ro bool }{
				{false, false, false},
				{false, false, true},
				{true, true, true},
			} {
				out = append(out, Workload{
					N: n, Tw: tw, Sigma: 0.1, BitsPerKeyBudget: 16,
					Platform: PlatformSKX, FullSpace: h.full,
					AllowExact: h.exact, ReadMostly: h.ro,
				})
			}
		}
	}
	// A 20 bits/key budget admits the fuse16 layout (≈18.1 bits/key), so
	// these two pin the xor family's win region and its rebuild surcharge.
	for _, tw := range []float64{1024, 1 << 16} {
		out = append(out, Workload{
			N: 1 << 20, Tw: tw, Sigma: 0.1, BitsPerKeyBudget: 20,
			Platform: PlatformSKX, ReadMostly: true,
		})
	}
	return out
}

func adviseLine(a Advice, err error) string {
	if err != nil {
		return "err:" + err.Error()
	}
	return fmt.Sprintf("%s m=%d f=%.3e tl=%.4f rho=%.4f ben=%v",
		a.Config, a.MBits, a.FPR, a.LookupCycles, a.Overhead, a.Beneficial)
}

// goldenAdvise holds the pinned Advise answers for goldenWorkloads, in
// order, captured pre-refactor on the SKX preset (host-independent).
var goldenAdvise = []string{
	"bloom/sectorized[B=64,S=32,k=4,pow2] m=262144 f=5.282e-03 tl=1.8275 rho=1.9120 ben=true",
	"bloom/sectorized[B=64,S=32,k=4,pow2] m=262144 f=5.282e-03 tl=1.8275 rho=1.9120 ben=true",
	"bloom/cache-sectorized[B=128,S=8,z=4,k=4,pow2] m=262144 f=3.682e-03 tl=1.4138 rho=1.4727 ben=true",
	"bloom/cache-sectorized[B=512,S=32,z=4,k=8,pow2] m=262144 f=1.006e-03 tl=2.1625 rho=3.1923 ben=true",
	"bloom/cache-sectorized[B=512,S=32,z=4,k=8,pow2] m=262144 f=1.006e-03 tl=2.1625 rho=3.1923 ben=true",
	"bloom/cache-sectorized[B=512,S=8,z=8,k=8,pow2] m=262144 f=8.678e-04 tl=1.5813 rho=2.4699 ben=true",
	"cuckoo[l=12,b=2,magic] m=262152 f=7.322e-04 tl=2.6963 rho=50.6832 ben=true",
	"cuckoo[l=12,b=2,magic] m=262152 f=7.322e-04 tl=2.6963 rho=50.6832 ben=true",
	"exact[robin-hood] m=2097152 f=0.000e+00 tl=8.3562 rho=8.3562 ben=true",
	"bloom/cache-sectorized[B=512,S=32,z=2,k=4,pow2] m=8388608 f=2.742e-02 tl=3.3256 rho=3.7644 ben=true",
	"bloom/cache-sectorized[B=512,S=32,z=2,k=4,pow2] m=8388608 f=2.742e-02 tl=3.3256 rho=3.7644 ben=true",
	"bloom/cache-sectorized[B=512,S=8,z=4,k=4,pow2] m=8388608 f=2.501e-02 tl=2.8969 rho=3.2970 ben=true",
	"bloom/cache-sectorized[B=512,S=32,z=4,k=8,pow2] m=16777216 f=1.006e-03 tl=6.6391 rho=7.6689 ben=true",
	"bloom/cache-sectorized[B=512,S=32,z=4,k=8,pow2] m=16777216 f=1.006e-03 tl=6.6391 rho=7.6689 ben=true",
	"bloom/cache-sectorized[B=512,S=8,z=8,k=8,pow2] m=16777216 f=8.678e-04 tl=6.0578 rho=6.9464 ben=true",
	"cuckoo[l=12,b=2,magic] m=16777368 f=7.322e-04 tl=11.6494 rho=59.6373 ben=true",
	"cuckoo[l=12,b=2,magic] m=16777368 f=7.322e-04 tl=11.6494 rho=59.6373 ben=true",
	"exact[robin-hood] m=134217728 f=0.000e+00 tl=21.1087 rho=21.1087 ben=true",
	"bloom/cache-sectorized[B=256,S=32,z=2,k=2,pow2] m=268435456 f=1.553e-01 tl=27.0935 rho=29.5787 ben=false",
	"bloom/cache-sectorized[B=256,S=32,z=2,k=2,pow2] m=268435456 f=1.553e-01 tl=27.0935 rho=29.5787 ben=false",
	"bloom/cache-sectorized[B=256,S=16,z=2,k=2,pow2] m=268435456 f=1.553e-01 tl=26.7023 rho=29.1875 ben=false",
	"bloom/cache-sectorized[B=512,S=32,z=4,k=8,pow2] m=1073741824 f=1.006e-03 tl=38.1153 rho=39.1451 ben=true",
	"bloom/cache-sectorized[B=512,S=32,z=4,k=8,pow2] m=1073741824 f=1.006e-03 tl=38.1153 rho=39.1451 ben=true",
	"bloom/cache-sectorized[B=512,S=8,z=8,k=8,pow2] m=1073741824 f=8.678e-04 tl=37.5340 rho=38.4226 ben=true",
	"bloom/cache-sectorized[B=512,S=32,z=8,k=8,pow2] m=1073741824 f=8.678e-04 tl=38.3653 rho=95.2378 ben=true",
	"bloom/cache-sectorized[B=512,S=32,z=8,k=8,pow2] m=1073741824 f=8.678e-04 tl=38.3653 rho=95.2378 ben=true",
	"exact[robin-hood] m=8589934592 f=0.000e+00 tl=57.4236 rho=57.4236 ben=true",
	"bloom/cache-sectorized[B=512,S=32,z=4,k=8,pow2] m=16777216 f=1.006e-03 tl=6.6391 rho=7.6689 ben=true",
	"fuse16 m=18874880 f=1.526e-05 tl=11.5839 rho=12.5862 ben=true",
}

// TestGoldenAdvise pins the advisor's output over the workload grid.
func TestGoldenAdvise(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping advisory sweep goldens in -short mode")
	}
	ws := goldenWorkloads()
	if len(goldenAdvise) != len(ws) {
		t.Fatalf("pinned %d advise lines for %d workloads", len(goldenAdvise), len(ws))
	}
	for i, w := range ws {
		got := adviseLine(Advise(w))
		if *goldenCapture {
			t.Logf("%q,", got)
		}
		if got != goldenAdvise[i] {
			t.Errorf("workload %d (%+v):\n got %s\nwant %s", i, w, got, goldenAdvise[i])
		}
	}
}

// goldenDecisions pins the adaptive control loop's verdicts for two
// synthetic histories: a write-heavy cuckoo filter that should stay put,
// and a read-only xor filter that must migrate once writes resume.
var goldenDecisions = []string{
	`cur=bloom/cache-sectorized[B=512,S=64,z=2,k=8,magic] best=bloom/cache-sectorized[B=512,S=32,z=4,k=8,pow2] kindChange=false migrate=false reason="improvement -34.0% below margin 15.0%"`,
	`cur=bloom/cache-sectorized[B=512,S=64,z=2,k=8,magic] best=bloom/sectorized[B=64,S=32,k=4,pow2] kindChange=false migrate=true reason="improvement 19.7% clears margin 15.0%"`,
	`cur=fuse8 best=bloom/cache-sectorized[B=512,S=32,z=4,k=8,pow2] kindChange=true migrate=true reason="improvement 47.7% clears margin 15.0%"`,
}

func decisionLine(adv AdaptiveAdvice, err error) string {
	if err != nil {
		return "err:" + err.Error()
	}
	return fmt.Sprintf("cur=%s best=%s kindChange=%v migrate=%v reason=%q",
		adv.Current.Config, adv.Best.Config, adv.KindChange, adv.WouldMigrate, adv.Reason)
}

// TestGoldenMigrationDecisions pins the control loop's migration verdicts.
func TestGoldenMigrationDecisions(t *testing.T) {
	keys := goldenKeys(4096)
	var got []string

	// Scenario 1: blocked-Bloom filter under a tracked mixed workload —
	// the verdict and its reason are functions of the counters only.
	a, err := NewAdaptive(Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
		SectorBits: 64, Groups: 2, K: 8, Magic: true}, 1<<18,
		AdaptiveOptions{Workload: Workload{Tw: 1024, Sigma: 0.125,
			BitsPerKeyBudget: 16, Platform: PlatformSKX}, Shards: 4})
	if err != nil {
		t.Fatalf("NewAdaptive: %v", err)
	}
	if _, err := a.InsertBatch(keys); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	for i := 0; i < 8; i++ {
		a.ContainsBatch(keys, nil)
	}
	got = append(got, decisionLine(a.Advice()))
	// The same history at a tiny tw must flip the recommendation toward
	// the cheapest-lookup family.
	got = append(got, decisionLine(a.AdviceTw(16)))

	// Scenario 2: an xor filter whose window shows writes resumed — the
	// immutable-family override must force a migration verdict.
	x, err := NewAdaptive(Config{Kind: Xor, FingerprintBits: 8, Fuse: true}, 1<<18,
		AdaptiveOptions{Workload: Workload{Tw: 1024, Sigma: 0.125,
			BitsPerKeyBudget: 16, Platform: PlatformSKX}, Shards: 4})
	if err != nil {
		t.Fatalf("NewAdaptive xor: %v", err)
	}
	if _, err := x.InsertBatch(keys); err != nil {
		t.Fatalf("InsertBatch xor: %v", err)
	}
	x.ContainsBatch(keys, nil)
	got = append(got, decisionLine(x.Advice()))

	if len(goldenDecisions) != len(got) {
		t.Fatalf("pinned %d decision lines, computed %d:\n%s",
			len(goldenDecisions), len(got), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != goldenDecisions[i] {
			t.Errorf("decision %d:\n got %s\nwant %s", i, got[i], goldenDecisions[i])
		}
	}
}
