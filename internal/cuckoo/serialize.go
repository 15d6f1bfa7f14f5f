package cuckoo

import (
	"encoding/binary"
	"fmt"

	"perfilter/internal/magic"
)

// Serialization mirrors package blocked's: a fixed little-endian header
// followed by the packed tag words, plus the victim slot so a parked tag
// survives the round trip with no false negatives.

const (
	wireVersion = 1
	headerLen   = 4 + 1 + 1 + 4 + 4 + 4 + 8 + 4 + 4 + 1
)

// MarshalBinary serializes the filter.
func (f *Filter) MarshalBinary() ([]byte, error) {
	out := make([]byte, headerLen+len(f.words)*8)
	le := binary.LittleEndian
	le.PutUint32(out[0:], magic.WireCuckoo)
	out[4] = wireVersion
	if f.params.Magic {
		out[5] = 1
	}
	le.PutUint32(out[6:], f.params.TagBits)
	le.PutUint32(out[10:], f.params.BucketSize)
	le.PutUint32(out[14:], f.numBuckets)
	le.PutUint64(out[18:], f.count)
	le.PutUint32(out[26:], f.victim)
	le.PutUint32(out[30:], f.victimIdx)
	if f.hasVictim {
		out[34] = 1
	}
	for i, w := range f.words {
		le.PutUint64(out[headerLen+i*8:], w)
	}
	return out, nil
}

// Unmarshal reconstructs a filter from MarshalBinary output.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("cuckoo: truncated header")
	}
	le := binary.LittleEndian
	if le.Uint32(data[0:]) != magic.WireCuckoo {
		return nil, fmt.Errorf("cuckoo: bad magic")
	}
	if data[4] != wireVersion {
		return nil, fmt.Errorf("cuckoo: unsupported version %d", data[4])
	}
	p := Params{
		Magic:      data[5] == 1,
		TagBits:    le.Uint32(data[6:]),
		BucketSize: le.Uint32(data[10:]),
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	numBuckets := le.Uint32(data[14:])
	if numBuckets == 0 {
		return nil, fmt.Errorf("cuckoo: zero buckets")
	}
	// Reject sizes the input cannot possibly carry before allocating the
	// word array (see the equivalent guard in package blocked).
	if uint64(numBuckets)*uint64(p.TagBits)*uint64(p.BucketSize) > uint64(len(data))*8 {
		return nil, fmt.Errorf("cuckoo: %d buckets exceed the %d-byte encoding", numBuckets, len(data))
	}
	f, err := New(p, uint64(numBuckets)*uint64(p.TagBits)*uint64(p.BucketSize))
	if err != nil {
		return nil, err
	}
	if f.numBuckets != numBuckets {
		return nil, fmt.Errorf("cuckoo: bucket count mismatch (%d vs %d)",
			f.numBuckets, numBuckets)
	}
	if len(data) != headerLen+len(f.words)*8 {
		return nil, fmt.Errorf("cuckoo: body length %d, want %d",
			len(data)-headerLen, len(f.words)*8)
	}
	f.count = le.Uint64(data[18:])
	f.victim = le.Uint32(data[26:])
	f.victimIdx = le.Uint32(data[30:])
	f.hasVictim = data[34] == 1
	for i := range f.words {
		f.words[i] = le.Uint64(data[headerLen+i*8:])
	}
	return f, nil
}
