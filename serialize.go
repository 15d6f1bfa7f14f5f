package perfilter

import (
	"encoding/binary"
	"fmt"
	"math"

	"perfilter/internal/adaptive"
	"perfilter/internal/magic"
	"perfilter/internal/model"
	"perfilter/internal/registry"
	"perfilter/internal/sharded"
)

// Serialization turns any filter this package builds into a portable byte
// string and back — what the filter server persists across restarts. Every
// format is little-endian and self-describing: the first four bytes are a
// per-kind wire magic, so Unmarshal dispatches without external type
// information, and a round-tripped filter answers ContainsBatch
// byte-identically to the original.

// ShardedWireMagic is the first little-endian uint32 of a serialized
// sharded filter's envelope (per-kind payloads follow per shard). The
// value is assigned centrally in internal/magic alongside every other
// format's.
const ShardedWireMagic = magic.WireSharded // "pfLP"

// AdaptiveWireMagic is the first little-endian uint32 of a serialized
// adaptive filter: workload counters and the key log, wrapped around an
// inner sharded envelope. Persisting the log keeps restored filters fully
// migratable — without it a restored approximate filter has no replay
// source and kind changes would have to be refused. The value is assigned
// centrally in internal/magic alongside every other format's.
const AdaptiveWireMagic = magic.WireAdaptive // "pfLA"

const (
	adaptiveWireVersion = 1
	// adaptive envelope header: magic u32, version u8, flags u8 (bit0:
	// log complete, bit1: log present), reserved u16, tw f64, sigma f64,
	// bits-per-key budget f64, four workload counters u64, log length u64.
	adaptiveHeaderLen = 4 + 1 + 1 + 2 + 3*8 + 4*8 + 8

	shardedWireVersion = 1
	// envelope header: magic u32, version u8, kind u8, magic-flag u8,
	// reserved u8, seven u32 geometry fields, perShardBits u64, seq u64,
	// shard count u32.
	envHeaderLen = 8 + 7*4 + 8 + 8 + 4
	// per-shard record header: insert count u64, payload length u32.
	envShardLen = 8 + 4
)

// Marshal serializes a filter built by this package for network transfer
// or persistence (e.g. the filter server's snapshots). Every kind
// serializes: blocked/register-blocked/sectorized/cache-sectorized Bloom
// (any blocked geometry), classic Bloom, cuckoo (victim slot included),
// xor/fuse (sealed or still buffering), the exact set, the Sharded
// concurrent wrapper (as an envelope of per-shard payloads) and the
// Adaptive wrapper (counters and key log around a sharded envelope). The
// encoder is the filter's own MarshalBinary.
func Marshal(f Filter) ([]byte, error) {
	if m, ok := f.(interface{ MarshalBinary() ([]byte, error) }); ok {
		return m.MarshalBinary()
	}
	return nil, fmt.Errorf("perfilter: %T does not serialize", f)
}

// Unmarshal reverses Marshal, reconstructing the filter with its type and
// parameters. The decoder is picked by the leading wire magic; decode
// failures surface the kind-specific error, wrapped with the magic that
// selected the decoder, so a corrupted payload always names the format it
// claimed to be. A sharded envelope yields a *Sharded (assert to it for
// the concurrent API).
func Unmarshal(data []byte) (Filter, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("perfilter: filter encoding truncated (%d bytes, no magic)", len(data))
	}
	magicWord := binary.LittleEndian.Uint32(data)
	d := registry.ByMagic(magicWord)
	if d == nil || d.Decode == nil {
		return nil, fmt.Errorf("perfilter: unrecognized filter encoding (magic %#08x)", magicWord)
	}
	f, err := d.Decode(data)
	if err != nil {
		// Tag the decoder failure with the dispatching magic: a corrupted
		// payload always names the format it claimed to be.
		return nil, fmt.Errorf("perfilter: decode magic %#08x: %w", magicWord, err)
	}
	return f, nil
}

// MarshalBinary serializes the sharded wrapper: a header carrying the
// per-shard configuration (so rotation works after restore) followed by
// each shard's own wire payload. The wrapper lock pins perShard to the
// generation being snapshotted; the snapshot itself is taken under the
// rotation lock, each shard under its read lock.
func (s *Sharded) MarshalBinary() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, err := s.s.Snapshot(Marshal)
	if err != nil {
		return nil, err
	}
	total := envHeaderLen
	for _, p := range snap.Payloads {
		total += envShardLen + len(p)
	}
	out := make([]byte, envHeaderLen, total)
	le := binary.LittleEndian
	le.PutUint32(out[0:], ShardedWireMagic)
	out[4] = shardedWireVersion
	out[5] = uint8(s.cfg.Kind)
	if s.cfg.Magic {
		out[6] = 1
	}
	le.PutUint32(out[8:], s.cfg.WordBits)
	le.PutUint32(out[12:], s.cfg.BlockBits)
	le.PutUint32(out[16:], s.cfg.SectorBits)
	le.PutUint32(out[20:], s.cfg.Groups)
	le.PutUint32(out[24:], s.cfg.K)
	le.PutUint32(out[28:], s.cfg.TagBits)
	le.PutUint32(out[32:], s.cfg.BucketSize)
	if s.cfg.Kind == Xor {
		// The xor family reuses the (otherwise unused) cuckoo slots: the
		// fingerprint width travels in the TagBits word and the fuse flag
		// in the formerly reserved byte, keeping the envelope layout (and
		// older snapshots) unchanged.
		le.PutUint32(out[28:], s.cfg.FingerprintBits)
		if s.cfg.Fuse {
			out[7] = 1
		}
	}
	le.PutUint64(out[36:], s.perShard)
	le.PutUint64(out[44:], snap.Seq)
	le.PutUint32(out[52:], uint32(len(snap.Payloads)))
	for i, p := range snap.Payloads {
		if uint64(len(p)) > math.MaxUint32 {
			return nil, fmt.Errorf("perfilter: shard %d payload (%d bytes) exceeds the envelope's 4 GiB record limit", i, len(p))
		}
		var hdr [envShardLen]byte
		le.PutUint64(hdr[0:], snap.Counts[i])
		le.PutUint32(hdr[8:], uint32(len(p)))
		out = append(out, hdr[:]...)
		out = append(out, p...)
	}
	return out, nil
}

// UnmarshalSharded reconstructs a sharded concurrent filter from a
// Marshal envelope, restoring the configuration, generation sequence and
// per-shard contents (probe results are byte-identical to the original's).
func UnmarshalSharded(data []byte) (*Sharded, error) {
	if len(data) < envHeaderLen {
		return nil, fmt.Errorf("perfilter: truncated sharded envelope")
	}
	le := binary.LittleEndian
	if le.Uint32(data[0:]) != ShardedWireMagic {
		return nil, fmt.Errorf("perfilter: bad sharded envelope magic")
	}
	if data[4] != shardedWireVersion {
		return nil, fmt.Errorf("perfilter: unsupported sharded envelope version %d", data[4])
	}
	cfg := Config{
		Kind:       Kind(data[5]),
		Magic:      data[6] == 1,
		WordBits:   le.Uint32(data[8:]),
		BlockBits:  le.Uint32(data[12:]),
		SectorBits: le.Uint32(data[16:]),
		Groups:     le.Uint32(data[20:]),
		K:          le.Uint32(data[24:]),
		TagBits:    le.Uint32(data[28:]),
		BucketSize: le.Uint32(data[32:]),
	}
	if cfg.Kind == Xor {
		// Reverse the slot reuse of MarshalBinary.
		cfg.FingerprintBits, cfg.TagBits = cfg.TagBits, 0
		cfg.Fuse = data[7] == 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("perfilter: sharded envelope config: %w", err)
	}
	perShard := le.Uint64(data[36:])
	if perShard == 0 {
		return nil, fmt.Errorf("perfilter: sharded envelope with zero per-shard bits")
	}
	seq := le.Uint64(data[44:])
	p := le.Uint32(data[52:])
	if p == 0 || p > sharded.MaxShards {
		return nil, fmt.Errorf("perfilter: sharded envelope shard count %d out of range", p)
	}
	snap := &sharded.Snapshot{
		Seq:      seq,
		Counts:   make([]uint64, p),
		Payloads: make([][]byte, p),
	}
	off := envHeaderLen
	for i := uint32(0); i < p; i++ {
		if len(data) < off+envShardLen {
			return nil, fmt.Errorf("perfilter: truncated shard %d record", i)
		}
		snap.Counts[i] = le.Uint64(data[off:])
		plen32 := le.Uint32(data[off+8:])
		off += envShardLen
		// Compare in uint64 so a crafted length cannot wrap int on 32-bit
		// platforms and slip past the bounds check into a slice panic;
		// after the check, plen fits an int on any platform.
		if uint64(len(data)-off) < uint64(plen32) {
			return nil, fmt.Errorf("perfilter: truncated shard %d payload", i)
		}
		plen := int(plen32)
		snap.Payloads[i] = data[off : off+plen]
		off += plen
	}
	if off != len(data) {
		return nil, fmt.Errorf("perfilter: %d trailing bytes after sharded envelope", len(data)-off)
	}
	// A valid configuration names a registered family (the registry
	// conformance suite covers every model kind).
	wantMagic := registry.Lookup(model.Kind(cfg.Kind)).WireMagic
	sh := &Sharded{cfg: cfg, perShard: perShard}
	s, err := sharded.Restore(snap, func(payload []byte) (sharded.Inner, error) {
		// The payload's own magic picks the decoder; it must agree with
		// the envelope's declared kind (a mismatch means a stitched or
		// corrupted envelope).
		if len(payload) >= 4 && le.Uint32(payload) != wantMagic {
			return nil, fmt.Errorf("perfilter: shard payload magic %#08x does not match envelope kind %s", le.Uint32(payload), cfg.Kind)
		}
		return Unmarshal(payload)
	}, factoryFor(cfg, perShard))
	if err != nil {
		return nil, err
	}
	sh.s = s
	return sh, nil
}

// MarshalBinary serializes the adaptive wrapper: the configured workload
// hints, the tracked counters, the key log and the inner sharded envelope.
// The inner envelope is captured first and the log after it, so the log is
// always a superset of the envelope's keys (a writer appends to the log
// before inserting) and the restored pair keeps the migration guarantee.
func (a *Adaptive) MarshalBinary() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	inner, err := a.s.MarshalBinary()
	if err != nil {
		return nil, err
	}
	flags := uint8(2) // log present
	if a.logComplete.Load() {
		flags |= 1
	}
	keys := a.log.Load().Snapshot().Keys()
	c := a.stats.Snapshot()
	w := a.opts.Workload
	out := make([]byte, adaptiveHeaderLen, adaptiveHeaderLen+4*len(keys)+len(inner))
	le := binary.LittleEndian
	le.PutUint32(out[0:], AdaptiveWireMagic)
	out[4] = adaptiveWireVersion
	out[5] = flags
	le.PutUint64(out[8:], math.Float64bits(w.Tw))
	le.PutUint64(out[16:], math.Float64bits(w.Sigma))
	le.PutUint64(out[24:], math.Float64bits(w.BitsPerKeyBudget))
	le.PutUint64(out[32:], c.Inserts)
	le.PutUint64(out[40:], c.Probes)
	le.PutUint64(out[48:], c.Positives)
	le.PutUint64(out[56:], c.Batches)
	le.PutUint64(out[64:], uint64(len(keys)))
	for _, k := range keys {
		out = le.AppendUint32(out, k)
	}
	return append(out, inner...), nil
}

// UnmarshalAdaptive reconstructs an adaptive filter from a Marshal
// envelope: the inner sharded filter (probe results byte-identical to the
// original's), the workload counters, and the key log, so the restored
// filter can keep migrating losslessly. opts supplies the runtime pieces
// that are not persisted (policy, decision history depth, auto-grow);
// zero workload fields fall back to the persisted ones.
func UnmarshalAdaptive(data []byte, opts AdaptiveOptions) (*Adaptive, error) {
	if len(data) < adaptiveHeaderLen {
		return nil, fmt.Errorf("perfilter: truncated adaptive envelope")
	}
	le := binary.LittleEndian
	if le.Uint32(data[0:]) != AdaptiveWireMagic {
		return nil, fmt.Errorf("perfilter: bad adaptive envelope magic")
	}
	if data[4] != adaptiveWireVersion {
		return nil, fmt.Errorf("perfilter: unsupported adaptive envelope version %d", data[4])
	}
	flags := data[5]
	tw := math.Float64frombits(le.Uint64(data[8:]))
	sigma := math.Float64frombits(le.Uint64(data[16:]))
	budget := math.Float64frombits(le.Uint64(data[24:]))
	counters := adaptive.Counters{
		Inserts:   le.Uint64(data[32:]),
		Probes:    le.Uint64(data[40:]),
		Positives: le.Uint64(data[48:]),
		Batches:   le.Uint64(data[56:]),
	}
	logLen := le.Uint64(data[64:])
	rest := data[adaptiveHeaderLen:]
	if uint64(len(rest))/4 < logLen {
		return nil, fmt.Errorf("perfilter: truncated adaptive key log (%d of %d keys)", len(rest)/4, logLen)
	}
	keys := make([]Key, logLen)
	for i := range keys {
		keys[i] = le.Uint32(rest[4*i:])
	}
	inner, err := UnmarshalSharded(rest[4*logLen:])
	if err != nil {
		return nil, err
	}
	if opts.Workload.Tw == 0 {
		opts.Workload.Tw = tw
	}
	if opts.Workload.Sigma == 0 {
		opts.Workload.Sigma = sigma
	}
	if opts.Workload.BitsPerKeyBudget == 0 {
		opts.Workload.BitsPerKeyBudget = budget
	}
	hadLog := flags&2 != 0
	complete := flags&1 != 0
	// A restored filter whose snapshot carried no log (or an incomplete
	// one) gets a fresh, incomplete log: it can track and advise but not
	// migrate until Reset.
	a := newAdaptive(inner, opts, hadLog && complete)
	if hadLog {
		a.log.Load().AppendBatch(keys)
	}
	a.stats.Restore(counters)
	return a, nil
}
