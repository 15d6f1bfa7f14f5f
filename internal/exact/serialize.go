package exact

import (
	"encoding/binary"
	"fmt"

	"perfilter/internal/core"
	"perfilter/internal/magic"
	"perfilter/internal/mem"
)

// Serialization stores the table verbatim — every slot's key and probe
// distance — so the restored set is byte-identical to the original, not
// merely equivalent: re-inserting in scan order could tie-break Robin
// Hood displacements differently.

const (
	wireVersion = 1
	headerLen   = 4 + 1 + 3 + 4 + 4
)

// MarshalBinary serializes the set (header + slots).
func (s *Set) MarshalBinary() ([]byte, error) {
	out := make([]byte, headerLen+len(s.slots)*8)
	le := binary.LittleEndian
	le.PutUint32(out[0:], magic.WireExact)
	out[4] = wireVersion
	le.PutUint32(out[8:], uint32(len(s.slots)))
	le.PutUint32(out[12:], uint32(s.count))
	for i, sl := range s.slots {
		le.PutUint32(out[headerLen+i*8:], sl.key)
		le.PutUint32(out[headerLen+i*8+4:], sl.dist)
	}
	return out, nil
}

// Unmarshal reconstructs a set from MarshalBinary output.
func Unmarshal(data []byte) (*Set, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("exact: truncated header")
	}
	le := binary.LittleEndian
	if le.Uint32(data[0:]) != magic.WireExact {
		return nil, fmt.Errorf("exact: bad magic")
	}
	if data[4] != wireVersion {
		return nil, fmt.Errorf("exact: unsupported version %d", data[4])
	}
	size := le.Uint32(data[8:])
	if size < 16 || size&(size-1) != 0 {
		return nil, fmt.Errorf("exact: slot count %d is not a power of two >= 16", size)
	}
	count := le.Uint32(data[12:])
	if uint64(len(data)) != headerLen+uint64(size)*8 {
		return nil, fmt.Errorf("exact: body length %d, want %d",
			len(data)-headerLen, uint64(size)*8)
	}
	if count > size {
		return nil, fmt.Errorf("exact: count %d exceeds %d slots", count, size)
	}
	s := &Set{slots: mem.Make[slot](int(size)), mask: size - 1, count: int(count)}
	occupied := uint32(0)
	for i := range s.slots {
		sl := slot{
			key:  core.Key(le.Uint32(data[headerLen+i*8:])),
			dist: le.Uint32(data[headerLen+i*8+4:]),
		}
		// dist is the probe distance plus one; in any valid Robin Hood
		// table it is at most the slot count. Rejecting larger values
		// keeps the probe loops' termination invariant: corrupt or
		// crafted bytes must not be able to make Contains spin forever.
		if sl.dist > size {
			return nil, fmt.Errorf("exact: slot %d distance %d exceeds %d slots", i, sl.dist, size)
		}
		if sl.dist != 0 {
			occupied++
		}
		s.slots[i] = sl
	}
	if occupied != count {
		return nil, fmt.Errorf("exact: %d occupied slots but count %d", occupied, count)
	}
	return s, nil
}
