package model

import "perfilter/internal/core"

// kindSpec is one filter family's registration: its constructor and every
// per-kind behaviour the analytic layer needs — validation, rendering, the
// FPR and feasibility models, sizing rules, the cost function, the sweep
// enumeration and its workload gate — gathered in one immutable record.
// The Config methods in config.go, the Machine cost model in cost.go and
// the enumeration in enumerate.go are all table lookups over these specs,
// so adding a family is one new spec_<family>.go file, a Kind constant and
// its kindSpecs entry; nothing else in the package dispatches on Kind.
type kindSpec struct {
	// name is the canonical kind string (Kind.String, server kind names).
	name string
	// letter is the one-character type-map legend (skyline rendering).
	letter byte

	// build constructs an empty filter of (at least) mBits; Config.New.
	build func(c Config, mBits uint64) (core.Filter, error)
	// validate checks the family's parameters embedded in c.
	validate func(c Config) error
	// render prints the configuration in the paper's notation.
	render func(c Config) string
	// fpr is the analytic false-positive model at size mBits with n keys.
	fpr func(c Config, mBits, n uint64) float64
	// feasible reports whether a filter of mBits holding n keys can be
	// built at all (nil: always buildable).
	feasible func(c Config, mBits, n uint64) bool
	// granule is the sizing granule in bits (nil: 1).
	granule func(c Config) uint32
	// usesMagic reports magic-modulo addressing (nil: never).
	usesMagic func(c Config) bool
	// hashBits is the hash-consumption model of §3.1.
	hashBits func(c Config) float64
	// lines is the cache-lines-per-lookup model.
	lines func(c Config) float64
	// cycles is the family's term of the Machine cost model (cost.go).
	cycles func(m Machine, c Config, mBits uint64, simd bool) float64
	// enumerate yields the family's sweep configuration space (full
	// selects the paper's complete space where one exists).
	enumerate func(full bool) []Config
	// gate reports whether the hints admit the family into a sweep
	// (nil: always enumerated).
	gate func(h EnumHints) bool

	// sizeForKeys, when non-nil, declares the family sized by key count
	// rather than by a bits budget (exact, xor): sweeps evaluate one point
	// per n and ActualBits applies no rounding.
	sizeForKeys func(c Config, n uint64) uint64
	// budgetExempt marks a sized-by-keys family that ignores the
	// bits-per-key budget entirely (the exact set, capped by
	// SweepOpts.MaxExactBytes instead).
	budgetExempt bool
	// buildSurcharge, when non-nil, marks the family immutable: a
	// build-once structure pays this extra ρ per lookup to amortize its
	// reconstruction from a key log (xor/fuse; see XorBuildSurcharge).
	buildSurcharge func(tw float64) float64
}

// kindSpecs is the spec table, indexed by Kind. Each spec_<family>.go
// declares its family's kindSpec value; the numKinds sentinel sizes the
// array, so a duplicate or out-of-range index fails to compile and
// TestEveryKindRegistered catches a missing entry.
var kindSpecs = [numKinds]*kindSpec{
	KindBlockedBloom: &blockedSpec,
	KindClassicBloom: &classicSpec,
	KindCuckoo:       &cuckooSpec,
	KindExact:        &exactSpec,
	KindXor:          &xorSpec,
}

// specOf returns the spec for k, or nil for an invalid kind. Callers fall
// back to a neutral default on nil (e.g. FPR 0, granule 1).
func specOf(k Kind) *kindSpec {
	if k < numKinds {
		return kindSpecs[k]
	}
	return nil
}

// asFilter passes a kernel constructor's result on as a core.Filter,
// returning a nil Filter on error rather than a nil pointer wrapped in a
// non-nil interface.
func asFilter[F core.Filter](f F, err error) (core.Filter, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// SizedByKeys reports whether the family's footprint is a function of the
// key count rather than a bits budget (exact, xor/fuse) — such kinds get
// one sweep point per n and no size rounding.
func SizedByKeys(k Kind) bool {
	sp := specOf(k)
	return sp != nil && sp.sizeForKeys != nil
}

// KindMutable reports whether the family absorbs inserts in place. An
// immutable (build-once) family pays a rebuild surcharge per lookup and
// forces the adaptive control loop back to a mutable family when writes
// resume; see BuildSurchargeFor.
func KindMutable(k Kind) bool {
	sp := specOf(k)
	return sp == nil || sp.buildSurcharge == nil
}

// BuildSurchargeFor returns the per-lookup rebuild surcharge ρ carries
// for kind k at work saving tw — zero for mutable families, the
// amortized construction cost for immutable ones.
func BuildSurchargeFor(k Kind, tw float64) float64 {
	if sp := specOf(k); sp != nil && sp.buildSurcharge != nil {
		return sp.buildSurcharge(tw)
	}
	return 0
}
