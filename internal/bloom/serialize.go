package bloom

import (
	"encoding/binary"
	"fmt"

	"perfilter/internal/magic"
)

// Serialization mirrors package blocked's: a fixed little-endian header
// (magic, version, parameters, bit count) followed by the raw word array,
// canonicalized to little-endian so filters deserialize on any
// architecture.

const (
	wireVersion = 1
	headerLen   = 4 + 1 + 1 + 4 + 4
)

// MarshalBinary serializes the filter (header + words).
func (f *Filter) MarshalBinary() ([]byte, error) {
	out := make([]byte, headerLen+len(f.words)*8)
	le := binary.LittleEndian
	le.PutUint32(out[0:], magic.WireClassic)
	out[4] = wireVersion
	if f.params.Magic {
		out[5] = 1
	}
	le.PutUint32(out[6:], f.params.K)
	le.PutUint32(out[10:], f.mBits)
	for i, w := range f.words {
		le.PutUint64(out[headerLen+i*8:], w)
	}
	return out, nil
}

// Unmarshal reconstructs a filter from MarshalBinary output.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("bloom: truncated header")
	}
	le := binary.LittleEndian
	if le.Uint32(data[0:]) != magic.WireClassic {
		return nil, fmt.Errorf("bloom: bad magic")
	}
	if data[4] != wireVersion {
		return nil, fmt.Errorf("bloom: unsupported version %d", data[4])
	}
	p := Params{Magic: data[5] == 1, K: le.Uint32(data[6:])}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mBits := le.Uint32(data[10:])
	if mBits == 0 {
		return nil, fmt.Errorf("bloom: zero size")
	}
	// Reject sizes the input cannot possibly carry before allocating the
	// word array (see the equivalent guard in package blocked).
	if uint64(mBits) > uint64(len(data))*8 {
		return nil, fmt.Errorf("bloom: %d bits exceed the %d-byte encoding", mBits, len(data))
	}
	// Rebuild through New at the exact rounded size: both addressing modes
	// round an already-rounded size to itself, so the divider and word
	// array must come out identical to the original's.
	f, err := New(p, uint64(mBits))
	if err != nil {
		return nil, err
	}
	if f.mBits != mBits {
		return nil, fmt.Errorf("bloom: size mismatch (%d vs %d)", f.mBits, mBits)
	}
	if len(data) != headerLen+len(f.words)*8 {
		return nil, fmt.Errorf("bloom: body length %d, want %d",
			len(data)-headerLen, len(f.words)*8)
	}
	for i := range f.words {
		f.words[i] = le.Uint64(data[headerLen+i*8:])
	}
	return f, nil
}
