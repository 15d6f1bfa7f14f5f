// Package registry keeps the one lookup the load benchmark's layer replay
// (loadbench/replay.go) still makes: Lookup(k).Default, a kind's default
// configuration in model form. The per-kind dispatch itself is the root
// package's switches; the values here come from perfilter.DefaultConfig.
// Delete this package once the benchmark reads perfilter.DefaultConfig
// directly.
package registry

import (
	"perfilter"
	"perfilter/internal/blocked"
	"perfilter/internal/bloom"
	"perfilter/internal/cuckoo"
	"perfilter/internal/model"
	"perfilter/internal/xor"
)

// Descriptor carries a kind's default configuration.
type Descriptor struct {
	Default model.Config
}

// Lookup returns kind k's default configuration. Every family's
// parameters are filled from the public form; the model reads only the
// ones k's Kind selects.
func Lookup(k model.Kind) *Descriptor {
	c := perfilter.DefaultConfig(perfilter.Kind(k))
	return &Descriptor{Default: model.Config{
		Kind: k,
		Bloom: blocked.Params{
			WordBits: c.WordBits, BlockBits: c.BlockBits,
			SectorBits: c.SectorBits, Z: c.Groups, K: c.K, Magic: c.Magic,
		},
		Classic: bloom.Params{K: c.K, Magic: c.Magic},
		Cuckoo:  cuckoo.Params{TagBits: c.TagBits, BucketSize: c.BucketSize, Magic: c.Magic},
		Xor:     xor.Params{FingerprintBits: c.FingerprintBits, Fuse: c.Fuse},
	}}
}
