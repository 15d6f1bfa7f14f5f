package perfilter

import (
	"fmt"

	"perfilter/internal/blocked"
	"perfilter/internal/bloom"
	"perfilter/internal/cuckoo"
	"perfilter/internal/exact"
	"perfilter/internal/magic"
	"perfilter/internal/model"
	"perfilter/internal/xor"
)

// The per-kind dispatch of the root package: construction, wire magics,
// name resolution and default configurations are switches over the closed
// set of families. The analytic side (validation, FPR, cost, enumeration,
// mutability) is internal/model's kind-spec table. TestKinds checks that
// every model kind has a case in each switch here and in Unmarshal.

// newFilter builds a filter of (at least) mBits for mc. A shard always
// reads mBits as bits; a standalone exact set reads an mBits below 2^16
// as a key-count hint, so a small per-shard split never flips into the
// hint regime.
func newFilter(mc model.Config, mBits uint64, shard bool) (Filter, error) {
	switch mc.Kind {
	case model.KindBlockedBloom:
		return asFilter(blocked.New(mc.Bloom, mBits))
	case model.KindClassicBloom:
		return asFilter(bloom.New(mc.Classic, mBits))
	case model.KindCuckoo:
		return asFilter(cuckoo.New(mc.Cuckoo, mBits))
	case model.KindXor:
		return asFilter(xor.New(mc.Xor, mBits))
	case model.KindExact:
		if !shard && mBits < 1<<16 {
			return exact.New(int(mBits)), nil
		}
		return exact.New(int(max(mBits/64, 1))), nil
	}
	return nil, fmt.Errorf("perfilter: no filter family for kind %s", mc.Kind)
}

// asFilter passes a kernel constructor's result on as a Filter, returning
// a nil Filter on error rather than a nil pointer wrapped in a non-nil
// interface.
func asFilter[F Filter](f F, err error) (Filter, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// wireMagic is the leading uint32 of kind k's encoding, or 0 for an
// invalid kind.
func wireMagic(k Kind) uint32 {
	switch k {
	case BlockedBloom:
		return magic.WireBlocked
	case ClassicBloom:
		return magic.WireClassic
	case Cuckoo:
		return magic.WireCuckoo
	case Xor:
		return magic.WireXor
	case Exact:
		return magic.WireExact
	}
	return 0
}

// KindByName resolves a family name to its Kind. The empty string is an
// alias for the blocked-Bloom default. Wire-only formats (the sharded and
// adaptive envelopes) do not resolve: they are not constructible through
// New.
func KindByName(name string) (Kind, bool) {
	if name == "" {
		return BlockedBloom, true
	}
	for k := range Kind(model.NumKinds()) {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// KindNames returns the family names in Kind order — the vocabulary
// KindByName accepts (plus the "" alias).
func KindNames() []string {
	names := make([]string, model.NumKinds())
	for k := range names {
		names[k] = Kind(k).String()
	}
	return names
}

// DefaultConfig returns the family's headline default configuration (what
// the filter server builds when a create request names only the kind):
// the cache-sectorized blocked Bloom (B=512, S=64, z=2, k=8), the k=7
// classic filter (the common 10-bits/key deployment), the (l=16, b=2)
// cuckoo filter, the 8-bit xor filter, or the exact set.
func DefaultConfig(k Kind) Config {
	switch k {
	case BlockedBloom:
		return fromModel(model.Config{Kind: model.KindBlockedBloom, Bloom: blocked.DefaultParams()})
	case ClassicBloom:
		return Config{Kind: ClassicBloom, K: 7, Magic: true}
	case Cuckoo:
		return Config{Kind: Cuckoo, TagBits: 16, BucketSize: 2, Magic: true}
	case Xor:
		return Config{Kind: Xor, FingerprintBits: 8}
	}
	return Config{Kind: k}
}

// KindMutable reports whether the family absorbs inserts in place; the
// immutable xor/fuse family instead rebuilds from a key log (see
// XorFilter and the adaptive wrapper's migration path).
func KindMutable(k Kind) bool { return model.KindMutable(model.Kind(k)) }
