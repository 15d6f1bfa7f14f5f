package perfilter

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var (
	adaptiveBloomCfg = Config{Kind: BlockedBloom, WordBits: 64, BlockBits: 512,
		SectorBits: 64, Groups: 2, K: 8, Magic: true}
	adaptiveCuckooCfg = Config{Kind: Cuckoo, TagBits: 16, BucketSize: 2, Magic: true}
)

// selBytes renders a selection vector for byte-level comparison.
func selBytes(sel []uint32) []byte {
	out := make([]byte, 4*len(sel))
	for i, v := range sel {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// TestAdaptiveTrackedAdviceMatchesStatic pins the control loop to the
// paper's static advisor: for a stationary workload (fixed n, tw, σ), the
// advice computed from the *tracked* counters must reproduce the static
// Advise answer for the same planned workload exactly.
func TestAdaptiveTrackedAdviceMatchesStatic(t *testing.T) {
	const n = 50_000
	const tw = 400.0
	const sigma = 0.1
	a, err := NewAdaptive(adaptiveBloomCfg, 16*n, AdaptiveOptions{
		Workload: Workload{Tw: tw, Sigma: sigma},
		Shards:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key(i)
	}
	if _, err := a.InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	// Stationary probe stream at true-hit rate σ: 10% members, 90% misses.
	probe := make([]Key, 0, 1000)
	for b := 0; b < 50; b++ {
		probe = probe[:0]
		for i := 0; i < 1000; i++ {
			if i%10 == 0 {
				probe = append(probe, Key((b*100+i)%n))
			} else {
				probe = append(probe, Key(n+b*1000+i))
			}
		}
		a.ContainsBatch(probe, nil)
	}
	adv, err := a.Advice()
	if err != nil {
		t.Fatal(err)
	}
	c := a.Counters()
	if c.Inserts != n || c.Probes != 50_000 {
		t.Fatalf("counters = %+v", c)
	}
	// Tracked σ = observed positive fraction: the true 10% plus at most
	// the filter's false-positive rate.
	trackedSigma := adv.Workload.Sigma
	if trackedSigma < sigma || trackedSigma > sigma+0.05 {
		t.Fatalf("tracked sigma = %v, want ≈ %v", trackedSigma, sigma)
	}
	static, err := Advise(Workload{N: n, Tw: tw, Sigma: sigma})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Best.Config != static.Config {
		t.Fatalf("tracked advice %+v != static advice %+v", adv.Best.Config, static.Config)
	}
	if adv.Best.MBits != static.MBits {
		t.Fatalf("tracked MBits %d != static MBits %d", adv.Best.MBits, static.MBits)
	}
	if adv.Workload.N != n {
		t.Fatalf("tracked n = %d, want %d", adv.Workload.N, n)
	}
}

// TestAdaptiveMigrationLosslessUnderWriters is the migration-equivalence
// property test: concurrent writers hammer inserts while the filter
// migrates Bloom→Cuckoo and back Cuckoo→Bloom mid-stream. Afterwards no
// acknowledged key may be missing (zero false negatives), the member
// selection vector must be byte-stable across migrations, batch and
// scalar probes must agree, and the final Bloom generation must be
// byte-equivalent to a reference filter built offline from the same keys.
// Run with -race.
func TestAdaptiveMigrationLosslessUnderWriters(t *testing.T) {
	const writers = 4
	perWriter := 30_000
	if testing.Short() {
		perWriter = 8_000
	}
	total := writers * perWriter
	const shards = 4
	mBloom := uint64(16 * total)
	mCuckoo := 2 * CuckooSizeForKeys(16, 2, uint64(total))

	a, err := NewAdaptive(adaptiveBloomCfg, mBloom, AdaptiveOptions{
		Workload: Workload{Tw: 10_000},
		Shards:   shards,
	})
	if err != nil {
		t.Fatal(err)
	}

	var progress [writers]atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]Key, 0, 32)
			for i := 0; i < perWriter; i++ {
				k := Key(i*writers + w)
				if i%5 == 4 {
					batch = append(batch[:0], k)
					if _, err := a.InsertBatch(batch); err != nil {
						errCh <- err
						return
					}
				} else if err := a.Insert(k); err != nil {
					errCh <- err
					return
				}
				progress[w].Store(int64(i + 1))
			}
		}(w)
	}

	// A fixed probe batch of keys that are certainly inserted before the
	// first migration: its selection vector must be all positions, before
	// and after every migration, byte for byte. Key(i*writers+w) is
	// acknowledged once writer w has passed iteration i, so the keys below
	// writers*minIters are in once every writer reports that floor.
	waitFor := func(minIters int) {
		for {
			done := true
			for w := range progress {
				if progress[w].Load() < int64(minIters) {
					done = false
				}
			}
			if done {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(perWriter / 4)
	fixed := make([]Key, writers*(perWriter/8))
	for i := range fixed {
		fixed[i] = Key(i)
	}
	selBefore := a.ContainsBatch(fixed, nil)
	if len(selBefore) != len(fixed) {
		t.Fatalf("pre-migration: %d of %d members selected", len(selBefore), len(fixed))
	}

	// Bloom→Cuckoo under live writers.
	if err := a.Migrate(context.Background(), adaptiveCuckooCfg, mCuckoo); err != nil {
		t.Fatalf("bloom→cuckoo: %v", err)
	}
	selMid := a.ContainsBatch(fixed, nil)
	if !bytes.Equal(selBytes(selBefore), selBytes(selMid)) {
		t.Fatal("member selection vector changed across bloom→cuckoo migration")
	}

	waitFor(perWriter / 2)
	// Cuckoo→Bloom under live writers.
	if err := a.Migrate(context.Background(), adaptiveBloomCfg, mBloom); err != nil {
		t.Fatalf("cuckoo→bloom: %v", err)
	}
	selAfter := a.ContainsBatch(fixed, nil)
	if !bytes.Equal(selBytes(selBefore), selBytes(selAfter)) {
		t.Fatal("member selection vector changed across cuckoo→bloom migration")
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Zero false negatives: every acknowledged key is present.
	all := make([]Key, total)
	for i := range all {
		all[i] = Key(i)
	}
	sel := a.ContainsBatch(all, nil)
	if len(sel) != total {
		t.Fatalf("%d of %d keys present after two migrations", len(sel), total)
	}

	// Batch/scalar parity on a mixed member/non-member stream.
	rng := rand.New(rand.NewSource(42))
	mixed := make([]Key, 4096)
	for i := range mixed {
		mixed[i] = Key(rng.Intn(4 * total))
	}
	batchSel := a.ContainsBatch(mixed, nil)
	var scalarSel []uint32
	for i, k := range mixed {
		if a.Contains(k) {
			scalarSel = append(scalarSel, uint32(i))
		}
	}
	if !bytes.Equal(selBytes(batchSel), selBytes(scalarSel)) {
		t.Fatal("ContainsBatch disagrees with scalar Contains after migration")
	}

	// Reference equivalence: the final Bloom generation must answer
	// byte-identically to a filter of the same configuration built offline
	// from the same key set (Bloom insertion is order-independent, so the
	// nondeterministic replay/dual-write order cannot show through).
	ref, err := NewSharded(adaptiveBloomCfg, mBloom, shards)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.InsertBatch(all); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		for i := range mixed {
			mixed[i] = Key(rng.Intn(8 * total))
		}
		got := a.ContainsBatch(mixed, nil)
		want := ref.ContainsBatch(mixed, nil)
		if !bytes.Equal(selBytes(got), selBytes(want)) {
			t.Fatalf("trial %d: migrated filter differs from reference rebuild", trial)
		}
	}
}

// TestAdaptiveLiveCrossover drives the paper's headline dynamic: at a
// cache-miss-scale tw the advisor picks Cuckoo while n is small enough for
// the filter to be cache-resident, and Bloom overtakes as n grows. The
// adaptive filter must start as Cuckoo and migrate itself to Bloom as
// inserts accumulate — through the periodic control loop or the ErrFull
// emergency path, whichever fires first — with the flip recorded in its
// decisions and no key lost.
func TestAdaptiveLiveCrossover(t *testing.T) {
	const tw = 400.0
	start := uint64(1) << 12
	a, advice, err := NewAdaptiveAdvised(AdaptiveOptions{
		Workload: Workload{N: start, Tw: tw, BitsPerKeyBudget: 16},
		Shards:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if advice.Config.Kind != Cuckoo {
		t.Fatalf("advisor picked %s at n=%d, tw=%g; expected cuckoo", advice.Config.Kind, start, tw)
	}

	// Find the modeled crossover: the smallest probed n where the static
	// advisor flips to Bloom.
	modeled := uint64(0)
	for n := start; n <= 1<<23; n *= 2 {
		adv, err := Advise(Workload{N: n, Tw: tw, BitsPerKeyBudget: 16})
		if err != nil {
			t.Fatal(err)
		}
		if adv.Config.Kind == BlockedBloom {
			modeled = n
			break
		}
	}
	if modeled == 0 {
		t.Fatal("no modeled crossover below 2^23 — cost model changed?")
	}

	limit := 2 * modeled
	batch := make([]Key, 1<<12)
	var n uint64
	for n < limit {
		for i := range batch {
			batch[i] = Key(n + uint64(i))
		}
		if _, err := a.InsertBatch(batch); err != nil {
			t.Fatalf("insert at n=%d: %v", n, err)
		}
		n += uint64(len(batch))
		if _, _, err := a.Reoptimize(context.Background(), false, nil); err != nil {
			t.Fatalf("reoptimize at n=%d: %v", n, err)
		}
	}
	if a.Config().Kind != BlockedBloom {
		t.Fatalf("filter is still %s at n=%d; expected the tuner to flip to bloom (modeled crossover %d)",
			a.Config().Kind, n, modeled)
	}
	// The flip may come from a periodic Reoptimize or from the ErrFull
	// emergency path; either way it must be in the decision history.
	var flipN uint64
	trace, _ := a.DecisionTrace()
	for _, d := range trace {
		if d.Migrated && d.KindChanged {
			flipN = d.N
			break
		}
	}
	if flipN == 0 {
		t.Fatal("no kind-changing migration recorded")
	}
	// The live flip happens within a factor of 4 of the modeled boundary
	// (hysteresis delays it past the exact crossover by design).
	if flipN < modeled/4 || flipN > 4*modeled {
		t.Fatalf("kind flip at n=%d, far from modeled crossover %d", flipN, modeled)
	}
	// Spot-check losslessness after the whole cascade of migrations.
	probe := make([]Key, 4096)
	rng := rand.New(rand.NewSource(7))
	for i := range probe {
		probe[i] = Key(rng.Int63n(int64(n)))
	}
	if sel := a.ContainsBatch(probe, nil); len(sel) != len(probe) {
		t.Fatalf("%d of %d inserted keys present after crossover migrations", len(sel), len(probe))
	}
}

// TestAdaptiveEnvelopeRoundTrip checks the serialization path: probe
// equivalence, counter restoration, and — because the key log rides in the
// envelope — the restored filter can still migrate kinds losslessly.
func TestAdaptiveEnvelopeRoundTrip(t *testing.T) {
	const n = 20_000
	a, err := NewAdaptive(adaptiveBloomCfg, 16*n, AdaptiveOptions{
		Workload: Workload{Tw: 5000, Sigma: 0.2},
		Shards:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key(i * 3)
	}
	if _, err := a.InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	a.ContainsBatch(keys[:1000], nil)

	data, err := Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := f.(*Adaptive)
	if !ok {
		t.Fatalf("Unmarshal returned %T", f)
	}
	if got := b.Counters(); got != a.Counters() {
		t.Fatalf("counters: got %+v, want %+v", got, a.Counters())
	}
	if b.Config() != a.Config() {
		t.Fatalf("config: got %+v, want %+v", b.Config(), a.Config())
	}
	rng := rand.New(rand.NewSource(9))
	probe := make([]Key, 4096)
	for trial := 0; trial < 4; trial++ {
		for i := range probe {
			probe[i] = Key(rng.Intn(6 * n))
		}
		got := b.ContainsBatch(probe, nil)
		want := a.ContainsBatch(probe, nil)
		if !bytes.Equal(selBytes(got), selBytes(want)) {
			t.Fatalf("trial %d: restored filter differs from original", trial)
		}
	}

	// The restored key log still supports a kind change.
	if err := b.Migrate(context.Background(), adaptiveCuckooCfg, 2*CuckooSizeForKeys(16, 2, n)); err != nil {
		t.Fatalf("migrate after restore: %v", err)
	}
	if sel := b.ContainsBatch(keys, nil); len(sel) != n {
		t.Fatalf("%d of %d keys present after post-restore migration", len(sel), n)
	}
}

// TestAdaptiveSealedLogRoundTrip migrates and round-trips an adaptive
// filter whose key log holds more than one sealed run: every acknowledged
// key must probe positive after Bloom→Cuckoo, after Marshal/Unmarshal and
// after Cuckoo→Bloom, and each migration's decision records the keys it
// replayed.
func TestAdaptiveSealedLogRoundTrip(t *testing.T) {
	const n = 150_000
	a, err := NewAdaptive(adaptiveBloomCfg, 16*n, AdaptiveOptions{Workload: Workload{Tw: 5000}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	seen := make(map[Key]bool, n)
	keys := make([]Key, 0, n)
	for len(keys) < n {
		if k := Key(rng.Uint32()); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for i := 0; i < n; i += 4096 {
		if _, err := a.InsertBatch(keys[i:min(i+4096, n)]); err != nil {
			t.Fatal(err)
		}
	}
	allPresent := func(f Filter, stage string) {
		t.Helper()
		if sel := f.ContainsBatch(keys, nil); len(sel) != n {
			t.Fatalf("%s: %d of %d keys present", stage, len(sel), n)
		}
	}
	migrate := func(f *Adaptive, cfg Config, mBits uint64) {
		t.Helper()
		if err := f.Migrate(context.Background(), cfg, mBits); err != nil {
			t.Fatal(err)
		}
		d, ok := f.LastMigration()
		if !ok || d.ReplayedKeys != n || d.MigrationNs <= 0 {
			t.Fatalf("migration decision records %d replayed keys in %d ns, want %d keys", d.ReplayedKeys, d.MigrationNs, n)
		}
	}
	migrate(a, adaptiveCuckooCfg, 2*CuckooSizeForKeys(16, 2, n))
	allPresent(a, "after Bloom→Cuckoo")
	data, err := Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnmarshalAdaptive(data, AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	allPresent(b, "after Marshal/Unmarshal")
	migrate(b, adaptiveBloomCfg, 16*n)
	allPresent(b, "after Cuckoo→Bloom")
}

// TestAdaptiveErrFullRecovery fills a deliberately undersized cuckoo
// filter far past its capacity: the emergency path must grow it live and
// every insert must be acknowledged and retained.
func TestAdaptiveErrFullRecovery(t *testing.T) {
	capKeys := uint64(4096)
	a, err := NewAdaptive(adaptiveCuckooCfg, CuckooSizeForKeys(16, 2, capKeys), AdaptiveOptions{
		Workload: Workload{N: capKeys, Tw: 100_000, BitsPerKeyBudget: 16},
		Shards:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 8 * int(capKeys)
	for i := 0; i < total; i++ {
		if err := a.Insert(Key(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	all := make([]Key, total)
	for i := range all {
		all[i] = Key(i)
	}
	if sel := a.ContainsBatch(all, nil); len(sel) != total {
		t.Fatalf("%d of %d keys present after emergency growth", len(sel), total)
	}
	grown := false
	trace, _ := a.DecisionTrace()
	for _, d := range trace {
		if d.Migrated {
			grown = true
		}
	}
	if !grown {
		t.Fatal("no growth migration recorded")
	}
}

// TestAdaptiveRotateClearsWithoutResurrection pins the adaptive rotation
// contract: Rotate clears (the standard Sharded.Rotate semantics), the
// key log and counters rotate with the generation, and — the regression
// that matters — a later migration must NOT resurrect cleared keys from a
// stale log. Migrate with the current config is the resize-preserving
// operation.
func TestAdaptiveRotateClearsWithoutResurrection(t *testing.T) {
	const n = 10_000
	a, err := NewAdaptive(adaptiveBloomCfg, 16*n, AdaptiveOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	old := make([]Key, n)
	for i := range old {
		old[i] = Key(i)
	}
	if _, err := a.InsertBatch(old); err != nil {
		t.Fatal(err)
	}

	// Migrate at the same config and double the size: contents preserved.
	if err := a.Migrate(context.Background(), a.Config(), 32*n); err != nil {
		t.Fatal(err)
	}
	if sel := a.ContainsBatch(old, nil); len(sel) != n {
		t.Fatalf("%d of %d keys present after resize migration", len(sel), n)
	}
	if a.SizeBits() < 24*n {
		t.Fatalf("size = %d bits after resize, want ≥ %d", a.SizeBits(), 24*n)
	}

	// Rotate: clears contents, restarts the log epoch and the counters.
	gen := a.Generation()
	if err := a.Rotate(context.Background(), 16*n); err != nil {
		t.Fatal(err)
	}
	if a.Generation() != gen+1 {
		t.Fatalf("generation = %d, want %d", a.Generation(), gen+1)
	}
	if sel := a.ContainsBatch(old[:1000], nil); len(sel) > 10 {
		t.Fatalf("%d old keys still probe positive after clearing rotation", len(sel))
	}
	if c := a.Counters(); c.Inserts != 0 {
		t.Fatalf("counters survived rotation: %+v", c)
	}
	if a.LogBits() != 0 {
		t.Fatalf("key log survived rotation: %d bits", a.LogBits())
	}

	// New keys in, then a kind migration: new keys survive, cleared keys
	// stay gone (no resurrection from a stale log epoch).
	fresh := make([]Key, n)
	for i := range fresh {
		fresh[i] = Key(1_000_000 + i)
	}
	if _, err := a.InsertBatch(fresh); err != nil {
		t.Fatal(err)
	}
	if err := a.Migrate(context.Background(), adaptiveCuckooCfg, 2*CuckooSizeForKeys(16, 2, n)); err != nil {
		t.Fatal(err)
	}
	if sel := a.ContainsBatch(fresh, nil); len(sel) != n {
		t.Fatalf("%d of %d fresh keys present after migration", len(sel), n)
	}
	if sel := a.ContainsBatch(old[:1000], nil); len(sel) > 10 {
		t.Fatalf("migration resurrected %d cleared keys", len(sel))
	}

	// Reset clears filter, log and counters too.
	a.Reset()
	if sel := a.ContainsBatch(fresh[:100], nil); len(sel) != 0 {
		t.Fatal("keys survived Reset")
	}
	if c := a.Counters(); c.Inserts != 0 {
		t.Fatalf("counters survived Reset: %+v", c)
	}
}

// TestAdaptiveXorMigrationLosslessUnderWriters proves the immutable
// family is a first-class migration target: concurrent writers hammer
// inserts while the filter migrates Bloom→Xor (the staged xor shards are
// solved from the key-log replay and sealed inside the rotation window)
// and later Xor→Bloom (writes "resume" onto a mutable family). The
// guarantees checked, with -race:
//
//   - zero false negatives against the key log at the end — no
//     acknowledged write is lost by either migration;
//   - keys acknowledged while the Xor generation was live are queryable
//     after the next migration (the acceptance bar; the overflow path in
//     fact makes them queryable immediately, which is also asserted);
//   - the member selection vector over early keys is byte-stable across
//     both migrations;
//   - batch and scalar probes agree on the sealed xor generation.
func TestAdaptiveXorMigrationLosslessUnderWriters(t *testing.T) {
	const writers = 4
	perWriter := 30_000
	if testing.Short() {
		perWriter = 8_000
	}
	total := writers * perWriter
	const shards = 4
	mBloom := uint64(16 * total)
	xorCfg := Config{Kind: Xor, FingerprintBits: 8}

	a, err := NewAdaptive(adaptiveBloomCfg, mBloom, AdaptiveOptions{
		Workload: Workload{Tw: 1 << 20},
		Shards:   shards,
	})
	if err != nil {
		t.Fatal(err)
	}

	var progress [writers]atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]Key, 0, 32)
			for i := 0; i < perWriter; i++ {
				k := Key(i*writers + w)
				if i%5 == 4 {
					batch = append(batch[:0], k)
					if _, err := a.InsertBatch(batch); err != nil {
						errCh <- err
						return
					}
				} else if err := a.Insert(k); err != nil {
					errCh <- err
					return
				}
				progress[w].Store(int64(i + 1))
			}
		}(w)
	}
	waitFor := func(minIters int) {
		for {
			done := true
			for w := range progress {
				if progress[w].Load() < int64(minIters) {
					done = false
				}
			}
			if done {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	waitFor(perWriter / 4)
	fixed := make([]Key, writers*(perWriter/8))
	for i := range fixed {
		fixed[i] = Key(i)
	}
	selBefore := a.ContainsBatch(fixed, nil)
	if len(selBefore) != len(fixed) {
		t.Fatalf("pre-migration: %d of %d members selected", len(selBefore), len(fixed))
	}

	// Bloom→Xor under live writers: the key-log snapshot is replayed into
	// staged xor shards, which are sealed before the swap; dual-writes
	// racing the window land in pending/overflow buffers.
	if err := a.Migrate(context.Background(), xorCfg, 0); err != nil {
		t.Fatalf("bloom→xor: %v", err)
	}
	if got := a.Config().Kind; got != Xor {
		t.Fatalf("deployed kind %v after migration, want Xor", got)
	}
	selMid := a.ContainsBatch(fixed, nil)
	if !bytes.Equal(selBytes(selBefore), selBytes(selMid)) {
		t.Fatal("member selection vector changed across bloom→xor migration")
	}

	// Writes arriving while the Xor generation is live: a distinct key
	// range no writer touches, inserted mid-generation.
	xorEra := make([]Key, 1024)
	for i := range xorEra {
		xorEra[i] = Key(1_000_000_000 + i)
	}
	if _, err := a.InsertBatch(xorEra); err != nil {
		t.Fatalf("insert during xor generation: %v", err)
	}
	if sel := a.ContainsBatch(xorEra, nil); len(sel) != len(xorEra) {
		t.Fatalf("only %d of %d xor-era inserts queryable while xor is live", len(sel), len(xorEra))
	}

	// Batch/scalar parity on the sealed generation. Writers are still
	// running, so the probe set must be membership-stable: established
	// members plus keys from a range no writer ever touches (a racing
	// insert between the two probe passes would otherwise legitimately
	// flip an answer).
	rng := rand.New(rand.NewSource(7))
	mixed := make([]Key, 4096)
	for i := range mixed {
		if i%2 == 0 {
			mixed[i] = fixed[rng.Intn(len(fixed))]
		} else {
			mixed[i] = Key(1<<31 + rng.Intn(1<<20))
		}
	}
	batchSel := a.ContainsBatch(mixed, nil)
	var scalarSel []uint32
	for i, k := range mixed {
		if a.Contains(k) {
			scalarSel = append(scalarSel, uint32(i))
		}
	}
	if !bytes.Equal(selBytes(batchSel), selBytes(scalarSel)) {
		t.Fatal("ContainsBatch disagrees with scalar Contains on the xor generation")
	}

	waitFor(perWriter / 2)
	// Xor→Bloom under live writers: writes resumed, move back to a
	// mutable family. The replay covers the sealed tables' keys, the
	// overflow buffers and every dual-write.
	if err := a.Migrate(context.Background(), adaptiveBloomCfg, mBloom); err != nil {
		t.Fatalf("xor→bloom: %v", err)
	}
	selAfter := a.ContainsBatch(fixed, nil)
	if !bytes.Equal(selBytes(selBefore), selBytes(selAfter)) {
		t.Fatal("member selection vector changed across xor→bloom migration")
	}
	// The xor-era inserts must be queryable after the next migration.
	if sel := a.ContainsBatch(xorEra, nil); len(sel) != len(xorEra) {
		t.Fatalf("only %d of %d xor-era inserts survived the xor→bloom migration", len(sel), len(xorEra))
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Zero false negatives against the key log: every acknowledged key —
	// the writers' full ranges plus the xor-era batch — is present.
	all := make([]Key, total)
	for i := range all {
		all[i] = Key(i)
	}
	if sel := a.ContainsBatch(all, nil); len(sel) != total {
		t.Fatalf("%d of %d keys present after the round trip", len(sel), total)
	}
	if log := a.log.Load(); log != nil {
		missing := 0
		log.Snapshot().Replay(func(k Key) error {
			if !a.Contains(k) {
				missing++
			}
			return nil
		})
		if missing != 0 {
			t.Fatalf("%d logged keys missing from the filter (false negatives)", missing)
		}
	}
}

// TestAdaptiveReadMostlyCrossoverToXor drives the control loop through
// the immutable family's full life cycle without any explicit Migrate
// call: a high-tw workload builds once and then only probes, so the
// tracked insert fraction drops under the read-mostly gate and
// Reoptimize migrates to xor on modeled-ρ merit; when writes later
// resume, the next pass must move back to a mutable family (the
// writes-resumed override, since the mutable candidate is *worse* on ρ
// alone) with every key — including the resumed ones — still present.
func TestAdaptiveReadMostlyCrossoverToXor(t *testing.T) {
	const n = 50_000
	a, err := NewAdaptive(adaptiveBloomCfg, 16*n, AdaptiveOptions{
		Workload: Workload{Tw: 1 << 20, BitsPerKeyBudget: 20},
		Shards:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key(i + 1)
	}
	if _, err := a.InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	// Mostly-miss probe traffic until the insert share of the window is
	// safely under ReadMostlyMaxInsertFraction.
	probe := make([]Key, 4096)
	for i := range probe {
		probe[i] = Key(10_000_000 + i)
	}
	for b := 0; b < 1+49*n/len(probe); b++ {
		a.ContainsBatch(probe, nil)
	}
	adv, err := a.Advice()
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Workload.ReadMostly {
		t.Fatalf("workload not read-mostly at insert fraction %.4f", adv.Window.InsertFraction())
	}
	if adv.Best.Config.Kind != Xor {
		t.Fatalf("read-mostly best is %s, want xor", adv.Best.Config)
	}
	d, _, err := a.Reoptimize(context.Background(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Migrated || a.Config().Kind != Xor {
		t.Fatalf("control loop did not migrate to xor: %+v (kind %v)", d, a.Config().Kind)
	}
	if sel := a.ContainsBatch(keys, nil); len(sel) != n {
		t.Fatalf("%d of %d keys present on the xor generation", len(sel), n)
	}

	// Writes resume: enough inserts to clear the policy floor, making
	// the window decidedly not read-mostly.
	resumed := make([]Key, 2048)
	for i := range resumed {
		resumed[i] = Key(20_000_000 + i)
	}
	if _, err := a.InsertBatch(resumed); err != nil {
		t.Fatal(err)
	}
	if sel := a.ContainsBatch(resumed, nil); len(sel) != len(resumed) {
		t.Fatalf("only %d of %d resumed writes queryable on the live xor generation", len(sel), len(resumed))
	}
	d, _, err = a.Reoptimize(context.Background(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Migrated || a.Config().Kind == Xor {
		t.Fatalf("writes resumed but the loop kept the immutable filter: %+v (kind %v)", d, a.Config().Kind)
	}
	if !strings.Contains(d.Reason, "writes resumed") {
		t.Fatalf("migration reason %q does not explain the override", d.Reason)
	}
	for _, k := range resumed[:256] {
		if !a.Contains(k) {
			t.Fatal("resumed write lost across the xor→mutable migration")
		}
	}
	if sel := a.ContainsBatch(keys, nil); len(sel) != n {
		t.Fatalf("%d of %d original keys present after the round trip", len(sel), n)
	}
}

// TestAdaptiveIncompleteKeyLog pins the one reason left for a filter to
// refuse migration: its key log does not cover every key it holds. The
// tracked workload is the one under which TestGoldenMigrationDecisions
// pins a migrate verdict (tw=16), so only the log can stand in the way.
func TestAdaptiveIncompleteKeyLog(t *testing.T) {
	keys := goldenKeys(4096)
	opts := AdaptiveOptions{Workload: Workload{Tw: 16, Sigma: 0.125,
		BitsPerKeyBudget: 16, Platform: PlatformSKX}, Shards: 4}
	// track inserts keys through a and probes them, then returns the advice.
	track := func(t *testing.T, a *Adaptive, keys []Key) AdaptiveAdvice {
		t.Helper()
		if _, err := a.InsertBatch(keys); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			a.ContainsBatch(keys, nil)
		}
		adv, err := a.Advice()
		if err != nil {
			t.Fatal(err)
		}
		return adv
	}
	refused := func(t *testing.T, a *Adaptive, adv AdaptiveAdvice) {
		t.Helper()
		if adv.WouldMigrate || adv.Reason != "key log incomplete after restore" {
			t.Fatalf("advice: migrate=%v reason=%q, want a refusal for the incomplete log",
				adv.WouldMigrate, adv.Reason)
		}
		if err := a.Migrate(context.Background(), adaptiveCuckooCfg, 1<<18); err == nil {
			t.Fatal("Migrate succeeded without a complete key log")
		}
	}

	t.Run("NewAdaptiveFrom", func(t *testing.T) {
		s, err := NewSharded(adaptiveBloomCfg, 1<<18, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.InsertBatch(keys[:2048]); err != nil {
			t.Fatal(err)
		}
		a := NewAdaptiveFrom(s, opts)
		refused(t, a, track(t, a, keys[2048:]))

		a.Reset()
		if adv := track(t, a, keys); !adv.WouldMigrate {
			t.Fatalf("after Reset: migrate=false reason=%q", adv.Reason)
		}
		if err := a.Migrate(context.Background(), adaptiveCuckooCfg, 1<<18); err != nil {
			t.Fatalf("Migrate after Reset: %v", err)
		}
		if sel := a.ContainsBatch(keys, nil); len(sel) != len(keys) {
			t.Fatalf("%d of %d keys present after migration", len(sel), len(keys))
		}
	})

	t.Run("envelope without log", func(t *testing.T) {
		a, err := NewAdaptive(adaptiveBloomCfg, 1<<18, opts)
		if err != nil {
			t.Fatal(err)
		}
		if adv := track(t, a, keys); !adv.WouldMigrate {
			t.Fatalf("original: migrate=false reason=%q", adv.Reason)
		}
		data, err := Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		// Clear the "log present" flag (bit 1) and drop the logged keys,
		// keeping the header's other fields and the inner envelope.
		le := binary.LittleEndian
		logLen := le.Uint64(data[64:])
		env := append([]byte(nil), data[:adaptiveHeaderLen]...)
		env[5] &^= 2
		le.PutUint64(env[64:], 0)
		env = append(env, data[adaptiveHeaderLen+4*logLen:]...)

		b, err := UnmarshalAdaptive(env, opts)
		if err != nil {
			t.Fatal(err)
		}
		if b.LogBits() != 0 {
			t.Fatalf("restored log holds %d bits, want 0", b.LogBits())
		}
		probe := append(goldenKeys(8192)[4096:], keys...)
		if got, want := b.ContainsBatch(probe, nil), a.ContainsBatch(probe, nil); !bytes.Equal(selBytes(got), selBytes(want)) {
			t.Fatal("restored filter's probe results differ from the original's")
		}
		adv, err := b.Advice()
		if err != nil {
			t.Fatal(err)
		}
		refused(t, b, adv)
	})
}
