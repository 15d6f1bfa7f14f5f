package perfilter

import (
	"perfilter/internal/model"
	"perfilter/internal/registry"
)

// Registry-derived kind vocabulary: the server's create/migrate paths and
// the CLIs resolve kind strings and enumerate valid kinds through these,
// so a newly registered family shows up everywhere without touching any
// of them.

// KindByName resolves a registered family name or alias to its Kind. The
// empty string is an alias for the blocked-Bloom default. Wire-only
// formats (the sharded and adaptive envelopes) do not resolve: they are
// not constructible through New.
func KindByName(name string) (Kind, bool) {
	d := registry.ByName(name)
	if !d.Constructible() {
		return 0, false
	}
	return Kind(d.Kind), true
}

// KindNames returns the constructible family names in Kind order — the
// vocabulary KindByName accepts (plus aliases).
func KindNames() []string { return registry.KindNames() }

// DefaultConfig returns the family's headline default configuration (what
// the filter server builds when a create request names only the kind):
// the cache-sectorized blocked Bloom (B=512, S=64, z=2, k=8), the k=7
// classic filter, the (l=16, b=2) cuckoo filter, the 8-bit xor filter, or
// the exact set.
func DefaultConfig(k Kind) Config {
	if d := registry.Lookup(model.Kind(k)); d != nil {
		return fromModel(d.Default)
	}
	return Config{Kind: k}
}

// KindMutable reports whether the family absorbs inserts in place; the
// immutable xor/fuse family instead rebuilds from a key log (see
// XorFilter and the adaptive wrapper's migration path).
func KindMutable(k Kind) bool { return model.KindMutable(model.Kind(k)) }
