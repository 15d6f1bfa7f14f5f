package magic

// Wire magics: the first little-endian uint32 of every serialized filter
// format in the module, declared together so the full namespace is visible
// in one place and collisions are impossible to miss (TestWireMagicsUnique
// asserts uniqueness). Each family's serializer writes and checks its
// constant, and the root package's Unmarshal switches on them to pick the
// decoder. The values spell "pfL?" in little-endian ASCII and are frozen:
// changing one breaks every snapshot written by an earlier build.
const (
	// WireBlocked tags blocked / register-blocked / sectorized /
	// cache-sectorized Bloom filters (internal/blocked).
	WireBlocked = 0x70664C42 // "pfLB"
	// WireClassic tags classic (unblocked) Bloom filters (internal/bloom).
	WireClassic = 0x70664C4B // "pfLK"
	// WireCuckoo tags cuckoo filters (internal/cuckoo).
	WireCuckoo = 0x70664C43 // "pfLC"
	// WireExact tags the exact Robin Hood hash set (internal/exact).
	WireExact = 0x70664C45 // "pfLE"
	// WireXor tags xor/fuse filters (internal/xor).
	WireXor = 0x70664C58 // "pfLX"
	// WireCounting and WireScalable are retired (counting and scalable
	// Bloom filters): snapshots from earlier builds carry them, so they
	// must never be reassigned.
	WireCounting = 0x70664C4E // "pfLN"
	WireScalable = 0x70664C47 // "pfLG"
	// WireSharded tags the sharded concurrent wrapper's envelope of
	// per-shard payloads (root package).
	WireSharded = 0x70664C50 // "pfLP"
	// WireAdaptive tags the adaptive wrapper's envelope: workload counters
	// and key log around an inner sharded envelope (root package).
	WireAdaptive = 0x70664C41 // "pfLA"
)

// WireMagics lists every assigned wire magic, retired ones included; new
// formats must append here so the uniqueness test covers them.
func WireMagics() []uint32 {
	return []uint32{
		WireBlocked, WireClassic, WireCuckoo, WireExact, WireXor,
		WireCounting, WireScalable, WireSharded, WireAdaptive,
	}
}
