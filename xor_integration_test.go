package perfilter

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestAdviseReadMostlyGatesXor: the immutable family must be enumerable
// exactly when the workload declares itself read-mostly. At a high-tw,
// large-n point (deep inside the skyline's X region) the advisor must
// pick it — and must never pick it for the same workload without the
// declaration.
func TestAdviseReadMostlyGatesXor(t *testing.T) {
	w := Workload{N: 1 << 20, Tw: 1 << 20, Sigma: 0.01, BitsPerKeyBudget: 20, Platform: PlatformSKX}
	mutable, err := Advise(w)
	if err != nil {
		t.Fatal(err)
	}
	if mutable.Config.Kind == Xor {
		t.Fatalf("advisor picked the immutable family without the read-mostly declaration: %s", mutable.Config)
	}
	w.ReadMostly = true
	adv, err := Advise(w)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Config.Kind != Xor {
		t.Fatalf("read-mostly advisor picked %s at tw=2^20, want the xor family", adv.Config)
	}
	if adv.Overhead >= mutable.Overhead {
		t.Fatalf("xor pick does not improve ρ: %.3f vs mutable %.3f", adv.Overhead, mutable.Overhead)
	}
	bpk := float64(adv.MBits) / float64(w.N)
	if bpk < 4 || bpk > 20.01 {
		t.Fatalf("advised xor size %.2f bits/key outside the budget", bpk)
	}
	// The advised configuration must actually construct and hold keys.
	f, err := New(adv.Config, adv.MBits)
	if err != nil {
		t.Fatal(err)
	}
	x := f.(*XorFilter)
	for k := Key(0); k < 10_000; k++ {
		if err := x.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Seal(); err != nil {
		t.Fatal(err)
	}
	for k := Key(0); k < 10_000; k++ {
		if !x.Contains(k) {
			t.Fatal("false negative after advised build")
		}
	}
	// At a tiny tw the rebuild surcharge must price the family out even
	// for a read-mostly workload.
	w.Tw = 16
	small, err := Advise(w)
	if err != nil {
		t.Fatal(err)
	}
	if small.Config.Kind == Xor {
		t.Fatal("xor advised at tw=16; the rebuild surcharge is not priced in")
	}
}

// TestEvaluateOverheadXorSurcharge: pricing a deployed xor configuration
// must include the rebuild surcharge, so current-vs-best comparisons in
// the control loop are apples to apples with Advise's candidates.
func TestEvaluateOverheadXorSurcharge(t *testing.T) {
	w := Workload{N: 1 << 16, Tw: 1 << 10, Platform: PlatformSKX}
	cfg := Config{Kind: Xor, FingerprintBits: 8}
	adv, err := EvaluateOverhead(w, cfg, 10*(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	base := adv.LookupCycles + adv.FPR*w.Tw
	if adv.Overhead <= base {
		t.Fatalf("overhead %.4f does not exceed tl + f·tw = %.4f (no surcharge)", adv.Overhead, base)
	}
}

// TestShardedXorRotationSealsAndRoundTrips covers the sharded lifecycle
// of the build-once family: a rotation's fill populates staged shards,
// the rotation seals them, probes then run the O(1) table test, and the
// sharded envelope round-trips byte-identically.
func TestShardedXorRotationSealsAndRoundTrips(t *testing.T) {
	const n = 50_000
	cfg := Config{Kind: Xor, FingerprintBits: 8, Fuse: true}
	s, err := NewSharded(cfg, uint64(n)*10, 4) // size hint only; shards size themselves at seal
	if err != nil {
		t.Fatal(err)
	}
	build, probe := buildKeys(n)
	if err := s.Rotate(context.Background(), 0, func(insert func(Key) error) error {
		for _, k := range build {
			if err := insert(k); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s.String(), "building") {
		t.Fatalf("shards not sealed after rotation: %s", s.String())
	}
	for _, k := range build[:1000] {
		if !s.Contains(k) {
			t.Fatal("false negative after sealed rotation")
		}
	}
	// Post-seal inserts take the overflow path and stay queryable.
	if err := s.Insert(0xFEEDFACE); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(0xFEEDFACE) {
		t.Fatal("overflow insert not queryable")
	}
	want := s.ContainsBatch(probe, nil)
	data, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, ok := back.(*Sharded)
	if !ok {
		t.Fatalf("restored %T, want *Sharded", back)
	}
	if restored.Config() != cfg {
		t.Fatalf("restored config %+v, want %+v", restored.Config(), cfg)
	}
	got := restored.ContainsBatch(probe, nil)
	if !bytes.Equal(selBytes(want), selBytes(got)) {
		t.Fatal("sharded xor round trip changed probe results")
	}
	if !restored.Contains(0xFEEDFACE) {
		t.Fatal("overflow key lost in the envelope round trip")
	}
}
