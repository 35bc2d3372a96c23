package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Batch encoding (wire format v3). Where the self-describing per-tuple
// encoding of codec.go spends a kind byte per value and a full varint
// timestamp per tuple, the batch encoding is schema-coded: both ends
// agree on the schema (negotiated at HELLO time on the transport), so
// value kinds are implied by field position, NULLs are carried in a
// per-tuple bitmap, and timestamps are delta-varints exploiting the
// ordering attribute's monotonicity (slide 17; late tuples still work —
// deltas are signed). Layout:
//
//	uvarint count
//	per tuple:
//	  varint tsDelta            ts minus the previous tuple's ts (first
//	                            tuple: minus zero)
//	  null bitmap               ceil(arity/8) bytes, bit i set = NULL
//	  per non-NULL value, payload only, kind taken from the schema:
//	    FLOAT   8 bytes little-endian
//	    STRING  uvarint length + bytes
//	    TIME, when the field is the ordering attribute:
//	            varint of (value - tuple Ts) — the ordering attribute
//	            usually *is* the timestamp, making this one zero byte
//	    other   uvarint raw payload
//
// A batch decodes in one of two layouts through the same value decoder:
// row-major into a caller-owned Arena (DecodeBatchInto: one backing
// []Value and []Tuple per batch), or column-major straight into a
// column batch's timestamp and field vectors (DecodeBatchCols). Either
// target is reused across batches, so steady-state decode of
// string-free schemas is allocation-free.

// AppendEncodeBatch appends the schema-coded encoding of the batch to
// buf and returns the extended slice. Every tuple must conform to the
// schema: matching arity, and every non-NULL value of the declared
// kind.
func AppendEncodeBatch(buf []byte, s *Schema, tuples []*Tuple) ([]byte, error) {
	arity := s.Arity()
	bitmapLen := (arity + 7) / 8
	ordIdx := timeOrdering(s)
	buf = binary.AppendUvarint(buf, uint64(len(tuples)))
	prev := int64(0)
	for _, t := range tuples {
		if len(t.Vals) != arity {
			return nil, fmt.Errorf("tuple: arity %d does not match schema %s", len(t.Vals), s)
		}
		buf = binary.AppendVarint(buf, t.Ts-prev)
		prev = t.Ts
		base := len(buf)
		for i := 0; i < bitmapLen; i++ {
			buf = append(buf, 0)
		}
		for i, v := range t.Vals {
			if v.Kind == KindNull {
				buf[base+i/8] |= 1 << (i % 8)
			}
		}
		for i, v := range t.Vals {
			if v.Kind == KindNull {
				continue
			}
			f := &s.Fields[i]
			if v.Kind != f.Kind {
				return nil, fmt.Errorf("tuple: field %s is %s, schema wants %s",
					f.Name, v.Kind, f.Kind)
			}
			switch f.Kind {
			case KindFloat:
				buf = binary.LittleEndian.AppendUint64(buf, v.num)
			case KindString:
				buf = binary.AppendUvarint(buf, v.num)
				buf = append(buf, v.str()...)
			default:
				if i == ordIdx {
					buf = binary.AppendVarint(buf, int64(v.num)-t.Ts)
				} else {
					buf = binary.AppendUvarint(buf, v.num)
				}
			}
		}
	}
	return buf, nil
}

// Arena owns the backing storage for row-major decoded batches: one
// []Value and one []Tuple array shared by every tuple of the batch.
// Decoded tuples (and their Vals slices) alias the arena and stay valid
// until Reset. The zero Arena is ready to use; reusing one across
// batches makes steady-state decode allocation-free for string-free
// schemas (STRING payloads still copy out of the wire buffer — aliasing
// it would be unsafe once the transport reuses it).
type Arena struct {
	vals   []Value
	tuples []Tuple
	ptrs   []*Tuple
}

// Reset forgets everything decoded so far, keeping the backing arrays
// for reuse. Tuples handed out by earlier DecodeBatchInto calls are
// invalid (they will be overwritten) after Reset.
func (a *Arena) Reset() {
	a.vals = a.vals[:0]
	a.tuples = a.tuples[:0]
	a.ptrs = a.ptrs[:0]
}

// ArenaPool is a freelist of decode arenas.
type ArenaPool struct {
	pool sync.Pool
}

// NewArenaPool builds an arena freelist.
func NewArenaPool() *ArenaPool {
	p := &ArenaPool{}
	p.pool.New = func() interface{} { return new(Arena) }
	return p
}

// Get returns an empty arena.
func (p *ArenaPool) Get() *Arena { return p.pool.Get().(*Arena) }

// Put recycles an arena. Its storage is zeroed first, so a pooled arena
// does not pin decoded strings against the garbage collector; every
// tuple decoded into it is invalid from then on.
func (p *ArenaPool) Put(a *Arena) {
	clear(a.vals[:cap(a.vals)])
	clear(a.tuples[:cap(a.tuples)])
	clear(a.ptrs[:cap(a.ptrs)])
	a.Reset()
	p.pool.Put(a)
}

// extend lengthens s by extra elements, reallocating only when the
// capacity is exhausted.
func extend[T any](s []T, extra int) []T {
	return slices.Grow(s, extra)[:len(s)+extra]
}

// timeOrdering returns the index of the schema's ordering attribute when
// it is a TIME field, which the batch codec carries as a delta from the
// tuple's timestamp; -1 otherwise.
func timeOrdering(s *Schema) int {
	if i := s.OrderingIndex(); i >= 0 && s.Fields[i].Kind == KindTime {
		return i
	}
	return -1
}

// decodeBatchCount reads a batch's tuple count and the offset past it.
// Each tuple costs at least one delta byte, so the count is bounded by
// the buffer length; this keeps a corrupt count from sizing the decode
// target arbitrarily.
func decodeBatchCount(buf []byte) (count, off int, err error) {
	count64, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, fmt.Errorf("tuple: truncated batch count")
	}
	if count64 > uint64(len(buf)) {
		return 0, 0, fmt.Errorf("tuple: batch count %d exceeds buffer", count64)
	}
	return int(count64), n, nil
}

// decodeTuple parses tuple t of a batch at buf[off:] into vals, whose
// length is the schema's arity: the one value decoder behind both the
// row-major and the column-major layout. prev is the previous tuple's
// timestamp (zero before the first); the tuple's own timestamp and the
// offset past it are returned.
func decodeTuple(buf []byte, off int, s *Schema, ordIdx int, prev int64, t int, vals []Value) (int64, int, error) {
	delta, n := binary.Varint(buf[off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("tuple: truncated batch timestamp %d", t)
	}
	off += n
	ts := prev + delta
	bitmapLen := (len(vals) + 7) / 8
	if bitmapLen > len(buf)-off {
		return 0, 0, fmt.Errorf("tuple: truncated null bitmap %d", t)
	}
	bitmap := buf[off : off+bitmapLen]
	off += bitmapLen
	for i := range vals {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			vals[i] = Null
			continue
		}
		switch k := s.Fields[i].Kind; k {
		case KindNull:
			vals[i] = Null
		case KindFloat:
			if 8 > len(buf)-off {
				return 0, 0, fmt.Errorf("tuple: truncated float in batch tuple %d", t)
			}
			vals[i] = Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
			off += 8
		case KindString:
			ln, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return 0, 0, fmt.Errorf("tuple: truncated string in batch tuple %d", t)
			}
			off += n
			if ln > uint64(len(buf)-off) {
				return 0, 0, fmt.Errorf("tuple: truncated string in batch tuple %d", t)
			}
			vals[i] = String(string(buf[off : off+int(ln)]))
			off += int(ln)
		default:
			if i == ordIdx {
				d, n := binary.Varint(buf[off:])
				if n <= 0 {
					return 0, 0, fmt.Errorf("tuple: truncated value in batch tuple %d", t)
				}
				off += n
				vals[i] = Value{Kind: k, num: uint64(d + ts)}
				continue
			}
			num, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return 0, 0, fmt.Errorf("tuple: truncated value in batch tuple %d", t)
			}
			off += n
			vals[i] = Value{Kind: k, num: num}
		}
	}
	return ts, off, nil
}

// DecodeBatchInto parses one batch from buf into the arena, returning
// the decoded tuples and the number of bytes consumed. The returned
// slice and every tuple in it alias the arena: they are valid until the
// arena is Reset (or returned to an ArenaPool). Decoding appends — an
// arena may accumulate several batches before a Reset. On error the
// arena is rolled back to its pre-call state.
func DecodeBatchInto(buf []byte, s *Schema, a *Arena) ([]*Tuple, int, error) {
	count, off, err := decodeBatchCount(buf)
	if err != nil {
		return nil, 0, err
	}
	arity := s.Arity()
	ordIdx := timeOrdering(s)
	valsBase, tupBase, ptrBase := len(a.vals), len(a.tuples), len(a.ptrs)
	a.vals = extend(a.vals, count*arity)
	a.tuples = extend(a.tuples, count)
	a.ptrs = extend(a.ptrs, count)
	prev := int64(0)
	for t := 0; t < count; t++ {
		vals := a.vals[valsBase+t*arity : valsBase+(t+1)*arity : valsBase+(t+1)*arity]
		prev, off, err = decodeTuple(buf, off, s, ordIdx, prev, t, vals)
		if err != nil {
			a.vals = a.vals[:valsBase]
			a.tuples = a.tuples[:tupBase]
			a.ptrs = a.ptrs[:ptrBase]
			return nil, 0, err
		}
		a.tuples[tupBase+t] = Tuple{Ts: prev, Vals: vals}
		a.ptrs[ptrBase+t] = &a.tuples[tupBase+t]
	}
	return a.ptrs[ptrBase:], off, nil
}

// DecodeBatchCols is DecodeBatchInto column-major: it parses one batch
// from buf, appending each tuple's timestamp to ts and its field c to
// cols[c], and returns the extended ts and the number of bytes consumed.
// cols must hold one column per schema field, each parallel to ts (the
// layout of a column batch), and is extended in place. Nothing aliases
// buf. On error ts and every column are restored to their lengths on
// entry, with the column slots written past them zeroed, so a failed
// decode leaves no string pinned in the caller's spare capacity.
func DecodeBatchCols(buf []byte, s *Schema, ts []int64, cols [][]Value) ([]int64, int, error) {
	count, off, err := decodeBatchCount(buf)
	if err != nil {
		return ts, 0, err
	}
	// Each tuple decodes into a row scratch and is then scattered across
	// the columns, so the value decoder stays the row layout's.
	arity, base := s.Arity(), len(ts)
	var stack [16]Value
	row := stack[:min(arity, len(stack))]
	if arity > len(stack) {
		row = make([]Value, arity)
	}
	ordIdx := timeOrdering(s)
	ts = extend(ts, count)
	for c := range cols {
		cols[c] = extend(cols[c], count)
	}
	prev := int64(0)
	for r := 0; r < count; r++ {
		prev, off, err = decodeTuple(buf, off, s, ordIdx, prev, r, row)
		if err != nil {
			for c := range cols {
				clear(cols[c][base:])
				cols[c] = cols[c][:base]
			}
			return ts[:base], 0, err
		}
		ts[base+r] = prev
		for c, v := range row {
			cols[c][base+r] = v
		}
	}
	return ts, off, nil
}
