// Package registry is the kind-descriptor table behind every per-kind
// dispatch in the filter stack. Each filter family registers one immutable
// Descriptor — its canonical name and aliases, wire magic, default
// configuration, constructors and decoder — from an explicit
// register_<family>.go file in the root package (a plain package-level
// `var _ = Register(...)` expression, no init() functions, no
// blank-import side effects). The filter type itself implements
// core.Filter and its own MarshalBinary; mutability is the model spec's
// (model.KindMutable), and build-once shards implement sharded.Sealer. The
// construction, serialization, sharding and adaptive layers then resolve
// kinds through lookups here instead of hand-written switches, so adding a
// family is one descriptor file plus a model spec (internal/model's
// kind-spec table carries the analytic side: cost entry, enumeration and
// its EnumHints gate, keyed by the same model.Kind — the registry
// conformance suite asserts the two tables agree).
//
// Filter is core.Filter, the same contract the root package and the
// sharded wrapper use; registry imports only core and model, and the root
// package imports registry.
package registry

import (
	"fmt"
	"sort"

	"perfilter/internal/core"
	"perfilter/internal/model"
)

// Key is the key type, an alias of the root package's.
type Key = core.Key

// Filter is the filter contract shared with the root package.
type Filter = core.Filter

// NoKind marks a wire-only descriptor: a serialization format (the
// sharded and adaptive envelopes) that decodes through the registry but is
// not part of the model's Kind space and cannot be built through
// New(Config, mBits).
const NoKind = model.Kind(0xFF)

// Descriptor is one family's registration. All fields are set once at
// registration and never mutated.
type Descriptor struct {
	// Kind is the model-side identity, or NoKind for wire-only formats.
	// Cost modeling, sweep enumeration and the EnumHints gate for this
	// kind live in internal/model's spec table under the same value.
	Kind model.Kind
	// Name is the canonical kind string (matches Kind.String() for
	// constructible kinds).
	Name string
	// Aliases are additional accepted names (e.g. "" selects the default
	// family on the server's create path).
	Aliases []string
	// WireMagic is the first little-endian uint32 of the family's
	// serialized form (assigned centrally in internal/magic).
	WireMagic uint32
	// Default is the family's headline default configuration — what the
	// server's create path uses when the request names only the kind.
	Default model.Config

	// New builds a filter of (at least) mBits; nil for wire-only formats.
	// mc.Kind is always Kind.
	New func(mc model.Config, mBits uint64) (Filter, error)
	// NewShard, when non-nil, overrides New for per-shard construction
	// under the sharded wrapper (the exact set interprets a standalone
	// mBits below 2^16 as a capacity hint; shards must always use the
	// bits regime).
	NewShard func(mc model.Config, perShardBits uint64) (Filter, error)
	// Decode reverses the family's MarshalBinary; Unmarshal dispatches to
	// it by WireMagic.
	Decode func(data []byte) (Filter, error)
}

// Constructible reports whether the descriptor can build filters (it is a
// filter family, not just a wire format).
func (d *Descriptor) Constructible() bool { return d != nil && d.New != nil }

var (
	descriptors []*Descriptor
	byKind      = map[model.Kind]*Descriptor{}
	byMagic     = map[uint32]*Descriptor{}
	byName      = map[string]*Descriptor{}
)

// Register installs a descriptor. It panics on a duplicate name, alias,
// kind or wire magic, or on a descriptor missing its identity — each is a
// programming error any test run must surface immediately. It returns
// struct{}{} so families register with a package-level
// `var _ = registry.Register(...)` expression.
func Register(d Descriptor) struct{} {
	if d.Name == "" {
		panic("registry: descriptor without a name")
	}
	if d.WireMagic != 0 && byMagic[d.WireMagic] != nil {
		panic(fmt.Sprintf("registry: duplicate wire magic %#08x (%s vs %s)",
			d.WireMagic, d.Name, byMagic[d.WireMagic].Name))
	}
	if d.Kind != NoKind && byKind[d.Kind] != nil {
		panic(fmt.Sprintf("registry: duplicate kind %s (%s vs %s)",
			d.Kind, d.Name, byKind[d.Kind].Name))
	}
	if byName[d.Name] != nil {
		panic(fmt.Sprintf("registry: duplicate name %q", d.Name))
	}
	for _, a := range d.Aliases {
		if byName[a] != nil {
			panic(fmt.Sprintf("registry: duplicate alias %q (%s vs %s)",
				a, d.Name, byName[a].Name))
		}
	}
	c := d
	descriptors = append(descriptors, &c)
	if c.Kind != NoKind {
		byKind[c.Kind] = &c
	}
	if c.WireMagic != 0 {
		byMagic[c.WireMagic] = &c
	}
	byName[c.Name] = &c
	for _, a := range c.Aliases {
		byName[a] = &c
	}
	return struct{}{}
}

// Unregister removes a descriptor by canonical name. It exists so tests
// can install a temporary stub family and restore the table; production
// code never unregisters.
func Unregister(name string) {
	d := byName[name]
	if d == nil || d.Name != name {
		return
	}
	for i, e := range descriptors {
		if e == d {
			descriptors = append(descriptors[:i], descriptors[i+1:]...)
			break
		}
	}
	if d.Kind != NoKind && byKind[d.Kind] == d {
		delete(byKind, d.Kind)
	}
	if byMagic[d.WireMagic] == d {
		delete(byMagic, d.WireMagic)
	}
	delete(byName, d.Name)
	for _, a := range d.Aliases {
		if byName[a] == d {
			delete(byName, a)
		}
	}
}

// Lookup returns the descriptor for a constructible kind, or nil.
func Lookup(k model.Kind) *Descriptor { return byKind[k] }

// ByMagic returns the descriptor owning a wire magic, or nil.
func ByMagic(m uint32) *Descriptor { return byMagic[m] }

// ByName resolves a canonical name or alias, or nil.
func ByName(name string) *Descriptor { return byName[name] }

// All returns every descriptor: constructible families first in Kind
// order, then wire-only formats by name. The slice is fresh; the
// descriptors are shared.
func All() []*Descriptor {
	out := make([]*Descriptor, len(descriptors))
	copy(out, descriptors)
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].Constructible(), out[j].Constructible()
		if ci != cj {
			return ci
		}
		if ci && out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// KindNames returns the constructible family names in Kind order — the
// vocabulary the server and the CLIs accept and enumerate in errors.
func KindNames() []string {
	var names []string
	for _, d := range All() {
		if d.Constructible() {
			names = append(names, d.Name)
		}
	}
	return names
}

// WireMagics returns every registered wire magic (unordered use only).
func WireMagics() []uint32 {
	out := make([]uint32, 0, len(byMagic))
	for m := range byMagic {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
