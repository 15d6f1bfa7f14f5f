package blocked

import (
	"encoding/binary"
	"fmt"

	"perfilter/internal/core"
	"perfilter/internal/magic"
)

// Serialization lets filters travel and persist (the filter server's
// snapshots). The format is a fixed little-endian header (magic, version,
// parameters, block count) followed by the raw word array. Filters deserialize on any
// architecture; word order is canonicalized to little-endian.

// WireMagic is the first little-endian uint32 of every serialized blocked
// filter; the perfilter package dispatches decoders on it. The value is
// assigned centrally in internal/magic alongside every other format's.
const WireMagic = magic.WireBlocked // "pfLB"

const (
	wireMagic   = WireMagic
	wireVersion = 1
)

// headerLen is the serialized header size in bytes.
const headerLen = 4 + 1 + 1 + 4 + 4 + 4 + 4 + 4 + 4

// MarshalBinary serializes the filter (header + words).
func (f *Filter[W]) MarshalBinary() ([]byte, error) {
	wordBytes := int(f.wordBits / 8)
	out := make([]byte, headerLen+len(f.words)*wordBytes)
	le := binary.LittleEndian
	le.PutUint32(out[0:], wireMagic)
	out[4] = wireVersion
	if f.params.Magic {
		out[5] = 1
	}
	le.PutUint32(out[6:], f.params.WordBits)
	le.PutUint32(out[10:], f.params.BlockBits)
	le.PutUint32(out[14:], f.params.SectorBits)
	le.PutUint32(out[18:], f.params.Z)
	le.PutUint32(out[22:], f.params.K)
	le.PutUint32(out[26:], f.numBlocks)
	body := out[headerLen:]
	switch f.wordBits {
	case 32:
		for i, w := range f.words {
			le.PutUint32(body[i*4:], uint32(w))
		}
	default:
		for i, w := range f.words {
			le.PutUint64(body[i*8:], uint64(w))
		}
	}
	return out, nil
}

// Unmarshal reconstructs a filter from MarshalBinary output.
func Unmarshal(data []byte) (Probe, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("blocked: truncated header")
	}
	le := binary.LittleEndian
	if le.Uint32(data[0:]) != wireMagic {
		return nil, fmt.Errorf("blocked: bad magic")
	}
	if data[4] != wireVersion {
		return nil, fmt.Errorf("blocked: unsupported version %d", data[4])
	}
	p := Params{
		Magic:      data[5] == 1,
		WordBits:   le.Uint32(data[6:]),
		BlockBits:  le.Uint32(data[10:]),
		SectorBits: le.Uint32(data[14:]),
		Z:          le.Uint32(data[18:]),
		K:          le.Uint32(data[22:]),
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	numBlocks := le.Uint32(data[26:])
	if numBlocks == 0 {
		return nil, fmt.Errorf("blocked: zero blocks")
	}
	// Reject sizes the input cannot possibly carry before allocating the
	// word array: a crafted header must not buy a multi-gigabyte make().
	if uint64(numBlocks)*uint64(p.BlockBits) > uint64(len(data))*8 {
		return nil, fmt.Errorf("blocked: %d blocks of %d bits exceed the %d-byte encoding", numBlocks, p.BlockBits, len(data))
	}
	// Rebuild through New so all derived state (plan, divider) is fresh,
	// then overwrite the words. Size by exact bit count: New rounds the
	// same way the original constructor did, so block counts must agree.
	mBits := uint64(numBlocks) * uint64(p.BlockBits)
	probe, err := New(p, mBits)
	if err != nil {
		return nil, err
	}
	body := data[headerLen:]
	switch f := probe.(type) {
	case *Filter[uint32]:
		if f.numBlocks != numBlocks {
			return nil, fmt.Errorf("blocked: block count mismatch (%d vs %d)", f.numBlocks, numBlocks)
		}
		if len(body) != len(f.words)*4 {
			return nil, fmt.Errorf("blocked: body length %d, want %d", len(body), len(f.words)*4)
		}
		for i := range f.words {
			f.words[i] = le.Uint32(body[i*4:])
		}
	case *Filter[uint64]:
		if f.numBlocks != numBlocks {
			return nil, fmt.Errorf("blocked: block count mismatch (%d vs %d)", f.numBlocks, numBlocks)
		}
		if len(body) != len(f.words)*8 {
			return nil, fmt.Errorf("blocked: body length %d, want %d", len(body), len(f.words)*8)
		}
		for i := range f.words {
			f.words[i] = le.Uint64(body[i*8:])
		}
	}
	return probe, nil
}

// ensure both instantiations implement the marshaler shape used by the
// public API.
var (
	_ interface{ MarshalBinary() ([]byte, error) } = (*Filter[uint32])(nil)
	_ interface{ MarshalBinary() ([]byte, error) } = (*Filter[uint64])(nil)
	_ core.BatchProber                             = (*Filter[uint32])(nil)
)
