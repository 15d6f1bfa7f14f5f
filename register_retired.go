package perfilter

import (
	"perfilter/internal/magic"
	"perfilter/internal/registry"
)

// Retired wire formats (the counting and scalable Bloom extensions) stay
// registered without a decoder: snapshots from earlier builds carry their
// magics, so Unmarshal refuses them as unrecognized and no new family can
// claim them.
var (
	_ = registry.Register(registry.Descriptor{Kind: registry.NoKind, Name: "counting", WireMagic: magic.WireCounting})
	_ = registry.Register(registry.Descriptor{Kind: registry.NoKind, Name: "scalable", WireMagic: magic.WireScalable})
)
