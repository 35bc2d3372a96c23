// Package tuple defines the data model shared by every layer of streamdb:
// typed values, schemas, tuples, and the ordering-attribute machinery that
// stream operators rely on (Koudas & Srivastava, ICDE 2005, slides 16-17).
//
// Values are a tagged union rather than interface{} so that the per-tuple
// hot path (selection, hashing, aggregation) does not allocate.
package tuple

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind enumerates the primitive types a stream attribute may take.
type Kind uint8

// The supported attribute kinds. KindIP is a 32-bit IPv4 address kept in a
// uint64 payload; KindTime is nanoseconds since the epoch, matching the
// virtual clock used by the execution engine.
const (
	KindNull Kind = iota
	KindInt
	KindUint
	KindFloat
	KindString
	KindBool
	KindIP
	KindTime
)

var kindNames = [...]string{
	KindNull:   "NULL",
	KindInt:    "INT",
	KindUint:   "UINT",
	KindFloat:  "FLOAT",
	KindString: "STRING",
	KindBool:   "BOOL",
	KindIP:     "IP",
	KindTime:   "TIME",
}

// String returns the SQL-style name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind converts a type name (as written in schema definitions) to a
// Kind. It accepts the names produced by Kind.String, case-insensitively.
func ParseKind(s string) (Kind, error) {
	switch strings.ToUpper(s) {
	case "NULL":
		return KindNull, nil
	case "INT", "INTEGER", "BIGINT":
		return KindInt, nil
	case "UINT", "UINTEGER":
		return KindUint, nil
	case "FLOAT", "DOUBLE", "REAL":
		return KindFloat, nil
	case "STRING", "VARCHAR", "TEXT":
		return KindString, nil
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	case "IP", "IPV4":
		return KindIP, nil
	case "TIME", "TIMESTAMP":
		return KindTime, nil
	}
	return KindNull, fmt.Errorf("tuple: unknown type %q", s)
}

// Numeric reports whether values of this kind participate in arithmetic.
func (k Kind) Numeric() bool {
	switch k {
	case KindInt, KindUint, KindFloat, KindTime:
		return true
	}
	return false
}

// Value is a tagged union holding one attribute value. The zero Value is
// NULL. It is 24 bytes: the kind, one payload word and one pointer, so
// every batch column, row and window slot of values stays dense.
//
// Values do not support ==: a STRING's payload is a pointer, and == would
// compare addresses, not contents. Use Equal, or Compare for an order.
type Value struct {
	_    [0]func() // forbids == and map keys; zero-sized, so no padding
	Kind Kind
	// num holds KindInt (as int64 bits), KindUint, KindIP, KindTime,
	// KindBool (0/1), KindFloat's IEEE-754 bits and KindString's length;
	// p points at KindString's bytes and is nil for every other kind.
	num uint64
	p   *byte
}

// Null is the NULL value.
var Null = Value{}

// Int constructs an INT value.
func Int(v int64) Value { return Value{Kind: KindInt, num: uint64(v)} }

// Uint constructs a UINT value.
func Uint(v uint64) Value { return Value{Kind: KindUint, num: v} }

// Float constructs a FLOAT value.
func Float(v float64) Value { return Value{Kind: KindFloat, num: math.Float64bits(v)} }

// String constructs a STRING value. It shares v's bytes, as a copy of
// the string would.
func String(v string) Value {
	return Value{Kind: KindString, num: uint64(len(v)), p: unsafe.StringData(v)}
}

// Bool constructs a BOOL value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{Kind: KindBool, num: n}
}

// IP constructs an IP value from a 32-bit IPv4 address in host order.
func IP(v uint32) Value { return Value{Kind: KindIP, num: uint64(v)} }

// Time constructs a TIME value from nanoseconds since the epoch.
func Time(ns int64) Value { return Value{Kind: KindTime, num: uint64(ns)} }

// TimeOf constructs a TIME value from a time.Time.
func TimeOf(t time.Time) Value { return Time(t.UnixNano()) }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsInt returns the value as an int64. FLOAT is truncated; STRING fails.
func (v Value) AsInt() (int64, bool) {
	switch v.Kind {
	case KindInt, KindTime:
		return int64(v.num), true
	case KindUint, KindIP:
		return int64(v.num), true
	case KindFloat:
		return int64(v.fl()), true
	case KindBool:
		return int64(v.num), true
	}
	return 0, false
}

// AsUint returns the value as a uint64.
func (v Value) AsUint() (uint64, bool) {
	switch v.Kind {
	case KindUint, KindIP, KindBool, KindTime:
		return v.num, true
	case KindInt:
		if int64(v.num) < 0 {
			return 0, false
		}
		return v.num, true
	case KindFloat:
		f := v.fl()
		if f < 0 {
			return 0, false
		}
		return uint64(f), true
	}
	return 0, false
}

// AsFloat returns the value as a float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindFloat:
		return v.fl(), true
	case KindInt, KindTime:
		return float64(int64(v.num)), true
	case KindUint, KindIP, KindBool:
		return float64(v.num), true
	}
	return 0, false
}

// AsString returns the value as a string; only STRING succeeds.
func (v Value) AsString() (string, bool) {
	if v.Kind == KindString {
		return v.str(), true
	}
	return "", false
}

// AsBool returns the value as a bool; only BOOL succeeds.
func (v Value) AsBool() (bool, bool) {
	if v.Kind == KindBool {
		return v.num != 0, true
	}
	return false, false
}

// AsTime returns a TIME value as nanoseconds since the epoch.
func (v Value) AsTime() (int64, bool) {
	if v.Kind == KindTime {
		return int64(v.num), true
	}
	return 0, false
}

// Raw returns the payload word: the integral payload of INT, UINT, IP,
// TIME and BOOL, but a FLOAT's IEEE-754 bits and a STRING's length. It
// exists for hashing, encoding and kernels that have checked the kind.
func (v Value) Raw() uint64 { return v.num }

// Str returns the string payload (empty unless Kind == KindString).
func (v Value) Str() string {
	if v.Kind != KindString {
		return "" // another kind's payload word is not a length
	}
	return v.str()
}

// Fl returns the float payload (zero unless Kind == KindFloat).
func (v Value) Fl() float64 {
	bits := v.num
	if v.Kind != KindFloat {
		bits = 0
	}
	return math.Float64frombits(bits)
}

// str reads a STRING's bytes back; v.Kind must be KindString.
func (v Value) str() string { return unsafe.String(v.p, int(v.num)) }

// fl reads a FLOAT's payload; v.Kind must be KindFloat.
func (v Value) fl() float64 { return math.Float64frombits(v.num) }

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindUint:
		return strconv.FormatUint(v.num, 10)
	case KindFloat:
		return strconv.FormatFloat(v.fl(), 'g', -1, 64)
	case KindString:
		return v.str()
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindIP:
		return FormatIPv4(uint32(v.num))
	case KindTime:
		return strconv.FormatInt(int64(v.num), 10)
	}
	return "?"
}

// FormatIPv4 renders a host-order IPv4 address in dotted-quad form.
func FormatIPv4(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// ParseIPv4 parses a dotted-quad IPv4 address into host order.
func ParseIPv4(s string) (uint32, error) {
	var parts [4]uint64
	rest := s
	for i := 0; i < 4; i++ {
		var seg string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("tuple: bad IPv4 %q", s)
			}
			seg, rest = rest[:dot], rest[dot+1:]
		} else {
			seg = rest
		}
		n, err := strconv.ParseUint(seg, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("tuple: bad IPv4 %q", s)
		}
		parts[i] = n
	}
	return uint32(parts[0]<<24 | parts[1]<<16 | parts[2]<<8 | parts[3]), nil
}

// Equal reports deep equality of two values. Numeric values of different
// kinds compare by numeric value (1 == 1.0), matching SQL semantics.
// NULL equals nothing, including NULL.
func (v Value) Equal(o Value) bool {
	if v.Kind == KindNull || o.Kind == KindNull {
		return false
	}
	if v.Kind == KindString || o.Kind == KindString {
		return v.Kind == o.Kind && v.str() == o.str()
	}
	if v.Kind == KindBool || o.Kind == KindBool {
		return v.Kind == o.Kind && v.num == o.num
	}
	return v.compareNumeric(o) == 0
}

// Compare orders two values: -1, 0, +1. NULL sorts before everything.
// Values of incomparable kinds order by kind to give a stable total order.
func (v Value) Compare(o Value) int {
	if v.Kind == KindNull || o.Kind == KindNull {
		return int(boolTo(v.Kind != KindNull)) - int(boolTo(o.Kind != KindNull))
	}
	vn, on := v.Kind.Numeric(), o.Kind.Numeric()
	if vn && on {
		return v.compareNumeric(o)
	}
	if v.Kind != o.Kind {
		if v.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case KindString:
		return strings.Compare(v.str(), o.str())
	case KindBool:
		return int(v.num) - int(o.num)
	case KindIP:
		// Address order. Without this, sorting result rows by an IP
		// group key degrades to map iteration order.
		switch {
		case v.num < o.num:
			return -1
		case v.num > o.num:
			return 1
		}
	}
	return 0
}

func (v Value) compareNumeric(o Value) int {
	if v.Kind == KindFloat || o.Kind == KindFloat {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	// Both integral. Signed/unsigned cross-comparison must not wrap.
	if v.Kind == KindInt && int64(v.num) < 0 {
		if o.Kind == KindInt && int64(o.num) < 0 {
			switch {
			case int64(v.num) < int64(o.num):
				return -1
			case int64(v.num) > int64(o.num):
				return 1
			}
			return 0
		}
		return -1
	}
	if o.Kind == KindInt && int64(o.num) < 0 {
		return 1
	}
	switch {
	case v.num < o.num:
		return -1
	case v.num > o.num:
		return 1
	}
	return 0
}

func boolTo(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Hash returns a 64-bit FNV-1a hash of the value, used by hash joins,
// group-by tables and sketches. Numerically equal values of different
// integral kinds hash identically.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	switch v.Kind {
	case KindNull:
		mix(0)
	case KindString:
		mix(1)
		s := v.str()
		for i := 0; i < len(s); i++ {
			mix(s[i])
		}
	case KindFloat:
		// Hash integral floats as their integer value so 1.0 == 1 holds
		// for Equal implies equal hashes.
		if f := v.fl(); f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < math.MaxInt64 {
			return Int(int64(f)).Hash()
		}
		mix(2)
		for i := 0; i < 8; i++ {
			mix(byte(v.num >> (8 * i)))
		}
	case KindBool:
		mix(3)
		mix(byte(v.num))
	default: // integral kinds hash by numeric payload
		mix(4)
		for i := 0; i < 8; i++ {
			mix(byte(v.num >> (8 * i)))
		}
	}
	return h
}

// MemSize returns the in-memory footprint of the value in bytes, a
// STRING's bytes included, used by the memory-based optimizer and load
// shedder.
func (v Value) MemSize() int {
	n := int(unsafe.Sizeof(v))
	if v.Kind == KindString {
		n += int(v.num)
	}
	return n
}
