package tuple

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins Value at three words: kind, payload, pointer.
// Every batch column, row and window slot is an array of Values, so a
// field added here grows all of them.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
}

// plain is a value as the Go types it is made from, the reference
// FuzzValue holds Value to.
type plain struct {
	kind Kind
	i    int64  // INT, TIME
	u    uint64 // UINT, IP, BOOL (0/1)
	f    float64
	s    string
}

// plainOf builds a kind and its plain payload from fuzz input. A STRING
// is a suffix of s starting at n mod (len(s)+1), so it shares s's bytes
// and may be empty.
func plainOf(k byte, n uint64, s string) plain {
	p := plain{kind: Kind(k % 8)}
	switch p.kind {
	case KindInt, KindTime:
		p.i = int64(n)
	case KindUint:
		p.u = n
	case KindIP:
		p.u = uint64(uint32(n))
	case KindFloat:
		p.f = math.Float64frombits(n) // every NaN payload, ±0 and ±Inf
	case KindString:
		p.s = s[n%uint64(len(s)+1):]
	case KindBool:
		p.u = n & 1
	}
	return p
}

func (p plain) value() Value {
	switch p.kind {
	case KindInt:
		return Int(p.i)
	case KindUint:
		return Uint(p.u)
	case KindFloat:
		return Float(p.f)
	case KindString:
		return String(p.s)
	case KindBool:
		return Bool(p.u == 1)
	case KindIP:
		return IP(uint32(p.u))
	case KindTime:
		return Time(p.i)
	}
	return Null
}

// payload is the integral payload: INT and TIME as their two's
// complement bits.
func (p plain) payload() uint64 {
	if p.kind == KindInt || p.kind == KindTime {
		return uint64(p.i)
	}
	return p.u
}

// float is AsFloat: INT and TIME convert signed, UINT and IP unsigned.
func (p plain) float() float64 {
	switch p.kind {
	case KindFloat:
		return p.f
	case KindInt, KindTime:
		return float64(p.i)
	}
	return float64(p.u)
}

// exact reports whether float() is exact for an integral value, so a
// cross-kind comparison with a FLOAT loses nothing.
func (p plain) exact() bool {
	const lim = 1 << 53
	switch p.kind {
	case KindInt, KindTime:
		return -lim <= p.i && p.i <= lim
	case KindUint, KindIP:
		return p.u <= lim
	}
	return true
}

func sign[T int64 | uint64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0 // including NaN against anything
}

// numCmp orders two of INT, UINT, FLOAT, TIME and IP. Against a FLOAT
// both sides compare as float64. Integral pairs compare exactly; only
// INT is signed there, so a negative TIME orders by its unsigned bits.
func numCmp(a, b plain) int {
	if a.kind == KindFloat || b.kind == KindFloat {
		return sign(a.float(), b.float())
	}
	big := func(p plain) *big.Int {
		if p.kind == KindInt {
			return big.NewInt(p.i)
		}
		return new(big.Int).SetUint64(p.payload())
	}
	return big(a).Cmp(big(b))
}

func refEqual(a, b plain) bool {
	switch {
	case a.kind == KindNull || b.kind == KindNull:
		return false
	case a.kind == KindString || b.kind == KindString:
		return a.kind == b.kind && a.s == b.s
	case a.kind == KindBool || b.kind == KindBool:
		return a.kind == b.kind && a.u == b.u
	}
	return numCmp(a, b) == 0
}

func refCompare(a, b plain) int {
	if a.kind == KindNull || b.kind == KindNull {
		return sign(int64(min(a.kind, 1)), int64(min(b.kind, 1)))
	}
	if a.kind.Numeric() && b.kind.Numeric() {
		return numCmp(a, b)
	}
	if a.kind != b.kind {
		return sign(int64(a.kind), int64(b.kind))
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindBool, KindIP:
		return sign(a.u, b.u)
	}
	return 0
}

// refHash is FNV-1a over a kind tag and the payload's bytes; an
// integral FLOAT within int64 hashes as that INT.
func refHash(p plain) uint64 {
	h := fnv.New64a()
	word := func(tag byte, w uint64) {
		h.Write([]byte{tag})
		h.Write(binary.LittleEndian.AppendUint64(nil, w))
	}
	switch p.kind {
	case KindNull:
		h.Write([]byte{0})
	case KindString:
		h.Write([]byte{1})
		h.Write([]byte(p.s))
	case KindFloat:
		if p.f == math.Trunc(p.f) && !math.IsInf(p.f, 0) && math.Abs(p.f) < math.MaxInt64 {
			word(4, uint64(int64(p.f)))
		} else {
			word(2, math.Float64bits(p.f))
		}
	case KindBool:
		h.Write([]byte{3, byte(p.u)})
	default:
		word(4, p.payload())
	}
	return h.Sum64()
}

// checkAccessors holds every accessor of v to the plain value it was
// built from.
func checkAccessors(t *testing.T, p plain, v Value) {
	t.Helper()
	if v.Kind != p.kind || v.IsNull() != (p.kind == KindNull) {
		t.Fatalf("%v: kind %v, want %v", v, v.Kind, p.kind)
	}
	str, isStr := v.AsString()
	if isStr != (p.kind == KindString) || str != p.s || v.Str() != p.s {
		t.Fatalf("%v: AsString %q %v, Str %q, want %q", v, str, isStr, v.Str(), p.s)
	}
	bl, isBool := v.AsBool()
	if isBool != (p.kind == KindBool) || bl != (isBool && p.u == 1) {
		t.Fatalf("%v: AsBool %v %v", v, bl, isBool)
	}
	tm, isTime := v.AsTime()
	if isTime != (p.kind == KindTime) || (isTime && tm != p.i) {
		t.Fatalf("%v: AsTime %d %v", v, tm, isTime)
	}
	if math.Float64bits(v.Fl()) != math.Float64bits(p.f) {
		t.Fatalf("%v: Fl bits %#x, want %#x", v, math.Float64bits(v.Fl()), math.Float64bits(p.f))
	}
	if fl, ok := v.AsFloat(); ok != (p.kind.Numeric() || p.kind == KindIP || p.kind == KindBool) ||
		(ok && math.Float64bits(fl) != math.Float64bits(p.float())) {
		t.Fatalf("%v: AsFloat %v %v, want %v", v, fl, ok, p.float())
	}
	// Raw is the payload word: FLOAT's bits and STRING's length included.
	raw, mem := p.payload(), int(unsafe.Sizeof(v))
	switch p.kind {
	case KindFloat:
		raw = math.Float64bits(p.f)
		if v.String() != strconv.FormatFloat(p.f, 'g', -1, 64) {
			t.Fatalf("String() = %q, want %v", v.String(), p.f)
		}
	case KindString:
		raw, mem = uint64(len(p.s)), mem+len(p.s)
		if v.String() != p.s {
			t.Fatalf("String() = %q, want %q", v.String(), p.s)
		}
	case KindInt, KindTime, KindUint, KindIP, KindBool:
		if i, ok := v.AsInt(); !ok || i != int64(p.payload()) {
			t.Fatalf("%v: AsInt %d %v", v, i, ok)
		}
		u, ok := v.AsUint()
		if negative := p.kind == KindInt && p.i < 0; ok == negative || (ok && u != p.payload()) {
			t.Fatalf("%v: AsUint %d %v", v, u, ok)
		}
	}
	if v.Raw() != raw || v.MemSize() != mem {
		t.Fatalf("%v: Raw %#x, MemSize %d; want %#x, %d", v, v.Raw(), v.MemSize(), raw, mem)
	}
}

// roundTrips encodes a and b with both codecs and holds the decoded
// values to them bit for bit, and the re-encoding to the first bytes.
func roundTrips(t *testing.T, a, b Value) {
	t.Helper()
	tp := New(7, a, b)
	buf := AppendEncode(nil, tp)
	got, n, err := Decode(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("Decode: %v after %d of %d bytes", err, n, len(buf))
	}
	for i, v := range tp.Vals {
		if !sameValue(got.Vals[i], v) {
			t.Fatalf("Decode value %d: %v, want %v", i, got.Vals[i], v)
		}
	}
	if re := AppendEncode(nil, got); !bytes.Equal(re, buf) {
		t.Fatalf("re-encode changed the bytes: %x vs %x", re, buf)
	}

	fieldKind := func(v Value) Kind {
		if v.Kind == KindNull {
			return KindInt // a NULL travels in the null bitmap
		}
		return v.Kind
	}
	s := NewSchema("V", Field{Name: "a", Kind: fieldKind(a)}, Field{Name: "b", Kind: fieldKind(b)})
	bbuf, err := AppendEncodeBatch(nil, s, []*Tuple{tp})
	if err != nil {
		t.Fatal(err)
	}
	var arena Arena
	rows, n, err := DecodeBatchInto(bbuf, s, &arena)
	if err != nil || n != len(bbuf) || len(rows) != 1 {
		t.Fatalf("DecodeBatchInto: %v after %d of %d bytes", err, n, len(bbuf))
	}
	cols := make([][]Value, 2)
	ts, n, err := DecodeBatchCols(bbuf, s, nil, cols)
	if err != nil || n != len(bbuf) || len(ts) != 1 {
		t.Fatalf("DecodeBatchCols: %v after %d of %d bytes", err, n, len(bbuf))
	}
	for i, v := range tp.Vals {
		if !sameValue(rows[0].Vals[i], v) || !sameValue(cols[i][0], v) {
			t.Fatalf("batch decode value %d: %v (rows), %v (columns), want %v", i, rows[0].Vals[i], cols[i][0], v)
		}
	}
	if re, err := AppendEncodeBatch(nil, s, rows); err != nil || !bytes.Equal(re, bbuf) {
		t.Fatalf("batch re-encode changed the bytes (%v): %x vs %x", err, re, bbuf)
	}
}

// FuzzValue builds two values of a random kind and payload and holds
// them to the plain Go values they came from: every accessor returns its
// input, Equal, Compare and Hash agree with a reference computed on the
// plain values, and both codecs round-trip bit for bit. Equal implies
// equal hashes wherever Equal is exact; a NaN, which compares equal to
// every number, and an integer beyond float64's 53-bit mantissa against
// a FLOAT are the two places it is not.
func FuzzValue(f *testing.F) {
	long := strings.Repeat("stream", 200)
	for _, c := range []struct {
		k1 byte
		n1 uint64
		s1 string
		k2 byte
		n2 uint64
		s2 string
	}{
		{byte(KindFloat), 0x7ff8000000000001, "", byte(KindFloat), 0xfff0000000000001, ""}, // NaN payloads
		{byte(KindFloat), 0, "", byte(KindFloat), 1 << 63, ""},                             // +0, -0
		{byte(KindFloat), 0x7ff0000000000000, "", byte(KindFloat), 0xfff0000000000000, ""}, // ±Inf
		{byte(KindInt), uint64(1<<64 - 5), "", byte(KindFloat), math.Float64bits(-5), ""},  // negative INT
		{byte(KindUint), 3, "", byte(KindFloat), math.Float64bits(3), ""},
		{byte(KindTime), uint64(1<<64 - 1), "", byte(KindUint), 1<<64 - 1, ""},
		{byte(KindIP), 0x7f000001, "", byte(KindIP), 0x0a000001, ""},
		{byte(KindString), 0, "", byte(KindString), 3, "abc"},                       // empty strings
		{byte(KindString), 0, long, byte(KindString), 2, "xx" + long[:4]},           // long; substring
		{byte(KindString), 0, "\xff\xfe\x00", byte(KindString), 1, "a\xff\xfe\x00"}, // non-UTF-8
		{byte(KindBool), 1, "", byte(KindBool), 3, ""},
		{byte(KindNull), 0, "", byte(KindInt), 0, ""},
	} {
		f.Add(c.k1, c.n1, c.s1, c.k2, c.n2, c.s2)
	}
	f.Fuzz(func(t *testing.T, k1 byte, n1 uint64, s1 string, k2 byte, n2 uint64, s2 string) {
		pa, pb := plainOf(k1, n1, s1), plainOf(k2, n2, s2)
		a, b := pa.value(), pb.value()
		checkAccessors(t, pa, a)
		checkAccessors(t, pb, b)

		if got, want := a.Equal(b), refEqual(pa, pb); got != want {
			t.Fatalf("%v.Equal(%v) = %v, want %v", a, b, got, want)
		}
		if got, want := a.Compare(b), refCompare(pa, pb); got != want {
			t.Fatalf("%v.Compare(%v) = %d, want %d", a, b, got, want)
		}
		if got, want := a.Compare(a), refCompare(pa, pa); got != want {
			t.Fatalf("%v.Compare(itself) = %d, want %d", a, got, want)
		}
		if got, want := a.Hash(), refHash(pa); got != want {
			t.Fatalf("%v.Hash() = %#x, want %#x", a, got, want)
		}
		isNaN := func(p plain) bool { return p.kind == KindFloat && math.IsNaN(p.f) }
		if a.Equal(b) && !isNaN(pa) && !isNaN(pb) && pa.exact() && pb.exact() && a.Hash() != b.Hash() {
			t.Fatalf("%v and %v are Equal with hashes %#x and %#x", a, b, a.Hash(), b.Hash())
		}
		roundTrips(t, a, b)
	})
}
