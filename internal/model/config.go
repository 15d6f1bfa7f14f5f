// Package model implements the paper's core contribution: the
// performance-optimal filtering model (§2) and the skyline sweeps of §6.
//
// The overhead of a filter configuration F at work saving tw is
//
//	ρ(F) = tl(F) + f(F)·tw                (Eq. 1)
//
// and the performance-optimal filter minimizes ρ. Filtering is beneficial
// at all iff ρ(F_opt) < (1−σ)·tw. f comes from the analytic models in
// package fpr; tl comes from a CostModel — either the analytic machine
// model parameterized with the paper's Table 1 platforms (package model's
// presets) or host measurements (package calibrate).
//
// The package is also the one kind table of the repository: each
// family's spec (spec.go) holds its constructor as well as its analytic
// behaviour, and Config.New builds through it. The root package's New,
// the sharded factories, the calibration and the measured figures all
// construct filters that way, so no other package switches on the kind
// to build one.
package model

import (
	"fmt"
	"math/bits"

	"perfilter/internal/blocked"
	"perfilter/internal/bloom"
	"perfilter/internal/core"
	"perfilter/internal/cuckoo"
	"perfilter/internal/magic"
	"perfilter/internal/xor"
)

// Kind identifies a filter family.
type Kind uint8

const (
	// KindBlockedBloom covers all blocked variants (register-blocked,
	// plain blocked, sectorized, cache-sectorized).
	KindBlockedBloom Kind = iota
	// KindClassicBloom is the unblocked baseline.
	KindClassicBloom
	// KindCuckoo is the cuckoo filter.
	KindCuckoo
	// KindExact is the exact hash set (f = 0, large footprint).
	KindExact
	// KindXor covers the immutable xor/fuse family (xor8, xor16 and their
	// binary-fuse layouts): space-optimal and probe-cheap, but build-once —
	// the advisor enumerates it only for read-mostly workloads, where a
	// key-log rebuild is an acceptable write path.
	KindXor
	numKinds
)

// NumKinds returns the number of registered filter families (the valid
// Kind values are [0, NumKinds)).
func NumKinds() int { return int(numKinds) }

func (k Kind) String() string {
	if sp := specOf(k); sp != nil {
		return sp.name
	}
	return "invalid"
}

// Config is a tagged union over the filter families' parameter types.
type Config struct {
	Kind    Kind
	Bloom   blocked.Params // Kind == KindBlockedBloom
	Classic bloom.Params   // Kind == KindClassicBloom
	Cuckoo  cuckoo.Params  // Kind == KindCuckoo
	Xor     xor.Params     // Kind == KindXor
}

// Validate checks the embedded parameters.
func (c Config) Validate() error {
	if sp := specOf(c.Kind); sp != nil {
		return sp.validate(c)
	}
	return fmt.Errorf("model: invalid kind %d", c.Kind)
}

// String renders the configuration.
func (c Config) String() string {
	if sp := specOf(c.Kind); sp != nil {
		return sp.render(c)
	}
	return "invalid"
}

// New builds an empty filter of (at least) mBits for c — the one
// construction path of the root package, the sharded factories, the
// calibration and the measured figures. The exact set reads mBits as 64
// bits per slot of capacity; an xor filter treats it as a buffer hint and
// takes its size from the keys it is sealed with.
func (c Config) New(mBits uint64) (core.Filter, error) {
	if sp := specOf(c.Kind); sp != nil && sp.build != nil {
		return sp.build(c, mBits)
	}
	return nil, fmt.Errorf("model: no filter family for kind %s", c.Kind)
}

// FPR returns the analytic false-positive rate at size mBits with n keys.
func (c Config) FPR(mBits, n uint64) float64 {
	if sp := specOf(c.Kind); sp != nil {
		return sp.fpr(c, mBits, n)
	}
	return 0
}

// Feasible reports whether a filter of mBits can actually be built holding
// n keys. Bloom filters always construct; cuckoo filters require the load
// factor α = l·n/m to stay within the practical limit for their bucket size
// (§4: ~50%, 84%, 95%, 98% for b = 1, 2, 4, 8 — beyond that, construction
// fails). The skyline sweep and the advisor both honour this constraint.
// Xor tables are solved by peeling, which needs the layout's space factor
// (≈1.23 slots/key, ≈1.13 for fuse) — below that the build fails for any
// seed.
func (c Config) Feasible(mBits, n uint64) bool {
	if sp := specOf(c.Kind); sp != nil && sp.feasible != nil {
		return sp.feasible(c, mBits, n)
	}
	return true
}

// GranuleBits is the sizing granule: filters round their size up to whole
// granules (block for blocked Bloom, bucket for cuckoo, bit for classic).
func (c Config) GranuleBits() uint32 {
	if sp := specOf(c.Kind); sp != nil && sp.granule != nil {
		return sp.granule(c)
	}
	return 1
}

// usesMagic reports whether the configuration uses magic-modulo addressing.
func (c Config) usesMagic() bool {
	if sp := specOf(c.Kind); sp != nil && sp.usesMagic != nil {
		return sp.usesMagic(c)
	}
	return false
}

// ActualBits applies the same size rounding the constructors apply, without
// building a filter: magic addressing rounds the granule count to the next
// class-(ii) divisor (Eq. 10), power-of-two addressing to the next power of
// two. Exact and xor structures are sized by key count, not by a byte
// budget (see ExactBits and xor.Params.SizeForKeys); for them the request
// is returned unchanged.
func (c Config) ActualBits(desired uint64) uint64 {
	if SizedByKeys(c.Kind) {
		return desired
	}
	g := uint64(c.GranuleBits())
	granules := (desired + g - 1) / g
	if granules == 0 {
		granules = 1
	}
	if c.usesMagic() {
		if granules > 0xFFFFFFFF {
			granules = 0xFFFFFFFF
		}
		return uint64(magic.Next(uint32(granules)).D()) * g
	}
	return nextPow2(granules) * g
}

// ExactBits returns the footprint of the exact hash set for n keys: slots
// at 85% maximum load, 8 bytes each, power-of-two table.
func ExactBits(n uint64) uint64 {
	slots := nextPow2(uint64(float64(n)/0.85) + 1)
	if slots < 16 {
		slots = 16
	}
	return slots * 64
}

// Overhead is Eq. 1: ρ(F) = tl + f·tw, the per-lookup cost of filtering
// including the false-positive work.
func Overhead(tl, f, tw float64) float64 {
	return tl + f*tw
}

// Beneficial reports whether installing the filter helps at all:
// ρ(F_opt) < (1−σ)·tw (§2). σ is the fraction of probes that truly match.
func Beneficial(rho, sigma, tw float64) bool {
	return rho < (1-sigma)*tw
}

// WorkPerTuple is the σ-aware per-tuple probe-pipeline cost tw′(F) from §2:
//
//	tw′ = (1−σ′)·tlNeg + σ′·(tlPos + tw),  σ′ = σ + f
//
// tlNeg and tlPos are the filter's negative/positive lookup costs (equal
// for everything except the classic Bloom filter).
func WorkPerTuple(tlNeg, tlPos, tw, sigma, f float64) float64 {
	sigmaP := sigma + f
	if sigmaP > 1 {
		sigmaP = 1
	}
	return (1-sigmaP)*tlNeg + sigmaP*(tlPos+tw)
}

// log2f returns log2 of a power-of-two as float64.
func log2f(x uint32) float64 {
	return float64(bits.Len32(x) - 1)
}

func nextPow2(x uint64) uint64 {
	if x <= 1 {
		return 1
	}
	return 1 << (64 - bits.LeadingZeros64(x-1))
}

// HashBits returns the number of hash bits one lookup consumes — the
// computational-efficiency axis of §3.1 (blocking reduces hash bits from
// k·log2(m) to k·log2(B) + log2(m/B)). Block/bucket addressing consumes a
// fixed 32 bits in this implementation regardless of addressing mode.
func (c Config) HashBits() float64 {
	if sp := specOf(c.Kind); sp != nil {
		return sp.hashBits(c)
	}
	return 32
}

// LinesAccessed returns how many cache lines one lookup touches: the
// memory-efficiency axis. Cuckoo filters read two buckets; blocked Bloom
// filters read one line; classic Bloom filters read up to k (modelled at
// its short-circuit expectation elsewhere). Xor filters read three slots
// in three table thirds (three independent lines); the fuse layout
// confines them to three adjacent small segments, which keeps them within
// one or two lines/pages in practice — modelled as two.
func (c Config) LinesAccessed() float64 {
	if sp := specOf(c.Kind); sp != nil {
		return sp.lines(c)
	}
	return 1
}
