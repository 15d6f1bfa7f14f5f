package xor

import (
	"encoding/binary"
	"fmt"

	"perfilter/internal/magic"
	"perfilter/internal/mem"
)

// Serialization mirrors the other families': a fixed little-endian header
// followed by the fingerprint table, then any buffered keys. All three
// lifecycle phases round-trip: a sealed table is restored verbatim (probe
// results byte-identical), and pending/overflow buffers travel as raw
// key lists so a snapshot taken mid-build or mid-rotation loses nothing.

const (
	wireVersion = 1
	// header: magic u32, version u8, flags u8 (bit0 sealed, bit1 fuse),
	// fingerprint width u8, reserved u8, seed u64, segLen u32, segCount
	// u32, solved-key count u64, table slot count u64, pending count u64,
	// overflow count u64.
	headerLen = 4 + 1 + 1 + 1 + 1 + 8 + 4 + 4 + 8 + 8 + 8 + 8
)

// MarshalBinary serializes the filter (header, table, buffered keys).
func (f *Filter) MarshalBinary() ([]byte, error) {
	total := f.tab.slotCountForWire()
	w := f.params.FingerprintBits
	out := make([]byte, headerLen, headerLen+total*uint64(w)/8+
		uint64(len(f.pending)+len(f.overflow))*4)
	le := binary.LittleEndian
	le.PutUint32(out[0:], magic.WireXor)
	out[4] = wireVersion
	var flags uint8
	if f.sealed {
		flags |= 1
	}
	if f.params.Fuse {
		flags |= 2
	}
	out[5] = flags
	out[6] = uint8(w)
	le.PutUint64(out[8:], f.tab.seed)
	le.PutUint32(out[16:], f.tab.segLen)
	le.PutUint32(out[20:], f.tab.segCount)
	le.PutUint64(out[24:], f.tab.n)
	le.PutUint64(out[32:], total)
	le.PutUint64(out[40:], uint64(len(f.pending)))
	le.PutUint64(out[48:], uint64(len(f.overflow)))
	if f.tab.fp16 != nil {
		for _, v := range f.tab.fp16 {
			out = le.AppendUint16(out, v)
		}
	} else {
		out = append(out, f.tab.fp8...)
	}
	for _, k := range f.pending {
		out = le.AppendUint32(out, k)
	}
	for _, k := range f.overflow {
		out = le.AppendUint32(out, k)
	}
	return out, nil
}

// slotCountForWire returns the serialized table length: the layout's slot
// count when a table exists, zero for the empty/building states.
func (t *table) slotCountForWire() uint64 {
	if t.fp8 == nil && t.fp16 == nil {
		return 0
	}
	return t.totalSlots()
}

// Unmarshal reconstructs a filter from MarshalBinary output.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("xor: truncated header")
	}
	le := binary.LittleEndian
	if le.Uint32(data[0:]) != magic.WireXor {
		return nil, fmt.Errorf("xor: bad magic")
	}
	if data[4] != wireVersion {
		return nil, fmt.Errorf("xor: unsupported version %d", data[4])
	}
	flags := data[5]
	p := Params{FingerprintBits: uint32(data[6]), Fuse: flags&2 != 0}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := &Filter{params: p, sealed: flags&1 != 0}
	f.tab.seed = le.Uint64(data[8:])
	f.tab.segLen = le.Uint32(data[16:])
	f.tab.segCount = le.Uint32(data[20:])
	f.tab.fuse = p.Fuse
	f.tab.n = le.Uint64(data[24:])
	total := le.Uint64(data[32:])
	nPending := le.Uint64(data[40:])
	nOverflow := le.Uint64(data[48:])
	if total != 0 {
		if f.tab.segLen == 0 {
			return nil, fmt.Errorf("xor: zero segment length with %d slots", total)
		}
		// A fuse probe reaches into segments seg..seg+2 with seg <
		// segCount, so a zero segment count would index past the table
		// on the first Contains — reject it here, not with a panic there
		// (the constructor guarantees segCount >= 1).
		if p.Fuse && f.tab.segCount == 0 {
			return nil, fmt.Errorf("xor: zero segment count with %d slots", total)
		}
		// The layout must reproduce the slot count, or probe indexes would
		// run off the table.
		implied := f.tab.totalSlots()
		if implied != total {
			return nil, fmt.Errorf("xor: slot count %d does not match layout (%d)", total, implied)
		}
	} else if f.sealed && f.tab.n != 0 {
		return nil, fmt.Errorf("xor: sealed filter with %d keys but no table", f.tab.n)
	}
	wBytes := uint64(p.FingerprintBits) / 8
	body := data[headerLen:]
	// Bound every declared count by what the body could possibly hold
	// before doing size arithmetic with it, so a crafted header cannot
	// wrap the length check into a huge allocation: a near-2^64 slot
	// count (from a pathological segLen×segCount product) could
	// otherwise wrap total*wBytes around to a small `need`.
	if total > uint64(len(body))/wBytes {
		return nil, fmt.Errorf("xor: %d slots exceed the %d-byte encoding", total, len(data))
	}
	if nPending > uint64(len(body))/4 || nOverflow > uint64(len(body))/4 {
		return nil, fmt.Errorf("xor: truncated key buffers")
	}
	need := total*wBytes + (nPending+nOverflow)*4
	if uint64(len(body)) != need {
		return nil, fmt.Errorf("xor: body length %d, want %d", len(body), need)
	}
	if total != 0 {
		if p.FingerprintBits == 16 {
			f.tab.fp16 = mem.Make[uint16](int(total))
			for i := range f.tab.fp16 {
				f.tab.fp16[i] = le.Uint16(body[2*i:])
			}
		} else {
			f.tab.fp8 = mem.Make[uint8](int(total))
			copy(f.tab.fp8, body[:total])
		}
	}
	keyBody := body[total*wBytes:]
	if nPending > 0 {
		f.pending = make([]Key, nPending)
		for i := range f.pending {
			f.pending[i] = le.Uint32(keyBody[4*i:])
		}
	}
	keyBody = keyBody[nPending*4:]
	if nOverflow > 0 {
		f.overflow = make([]Key, nOverflow)
		f.overflowSet = make(map[Key]struct{}, nOverflow)
		for i := range f.overflow {
			k := le.Uint32(keyBody[4*i:])
			f.overflow[i] = k
			f.overflowSet[k] = struct{}{}
		}
	}
	return f, nil
}
