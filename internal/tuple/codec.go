package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary tuple encoding is used by the XJoin disk-spill partitions
// (slide 31) and the checkpoint codec; the distributed transport ships
// the schema-coded batch encoding instead (batchcodec.go). Layout:
//
//	varint ts | varint nvals | per value: kind byte + payload
//
// Integral payloads are varints; floats are 8 fixed bytes; strings are
// length-prefixed. The format is self-describing so readers do not need
// the schema.

// AppendEncode appends the encoding of t to buf and returns the extended
// slice.
func AppendEncode(buf []byte, t *Tuple) []byte {
	buf = binary.AppendVarint(buf, t.Ts)
	buf = binary.AppendUvarint(buf, uint64(len(t.Vals)))
	for _, v := range t.Vals {
		buf = append(buf, byte(v.Kind))
		switch v.Kind {
		case KindNull:
		case KindFloat:
			buf = binary.LittleEndian.AppendUint64(buf, v.num)
		case KindString:
			buf = binary.AppendUvarint(buf, v.num)
			buf = append(buf, v.str()...)
		default:
			buf = binary.AppendUvarint(buf, v.num)
		}
	}
	return buf
}

// Decode parses one tuple from buf, returning the tuple and the number of
// bytes consumed.
func Decode(buf []byte) (*Tuple, int, error) {
	ts, n := binary.Varint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("tuple: truncated timestamp")
	}
	off := n
	nvals, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("tuple: truncated arity")
	}
	off += n
	if nvals > uint64(len(buf)) { // cheap sanity bound: >=1 byte per value
		return nil, 0, fmt.Errorf("tuple: arity %d exceeds buffer", nvals)
	}
	vals := make([]Value, nvals)
	for i := range vals {
		if off >= len(buf) {
			return nil, 0, fmt.Errorf("tuple: truncated value %d", i)
		}
		k := Kind(buf[off])
		off++
		switch k {
		case KindNull:
			vals[i] = Null
		case KindFloat:
			if off+8 > len(buf) {
				return nil, 0, fmt.Errorf("tuple: truncated float")
			}
			vals[i] = Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
			off += 8
		case KindString:
			ln, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("tuple: truncated string")
			}
			off += n
			// Compare in uint64 space: a huge ln converted to int could
			// wrap off+n+int(ln) negative and slip past the bound.
			if ln > uint64(len(buf)-off) {
				return nil, 0, fmt.Errorf("tuple: truncated string")
			}
			vals[i] = String(string(buf[off : off+int(ln)]))
			off += int(ln)
		case KindInt, KindUint, KindBool, KindIP, KindTime:
			num, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("tuple: truncated integral value")
			}
			off += n
			vals[i] = Value{Kind: k, num: num}
		default:
			return nil, 0, fmt.Errorf("tuple: unknown kind %d", k)
		}
	}
	return &Tuple{Ts: ts, Vals: vals}, off, nil
}
