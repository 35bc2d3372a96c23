package tuple

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Int(-42), KindInt, "-42"},
		{Uint(42), KindUint, "42"},
		{Float(2.5), KindFloat, "2.5"},
		{String("hi"), KindString, "hi"},
		{Bool(true), KindBool, "true"},
		{Bool(false), KindBool, "false"},
		{IP(0x7f000001), KindIP, "127.0.0.1"},
		{Time(99), KindTime, "99"},
		{Null, KindNull, "NULL"},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind, c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestValueNumericConversions(t *testing.T) {
	if n, ok := Float(3.9).AsInt(); !ok || n != 3 {
		t.Errorf("Float(3.9).AsInt() = %d, %v", n, ok)
	}
	if _, ok := String("x").AsInt(); ok {
		t.Error("String.AsInt() succeeded")
	}
	if _, ok := Int(-1).AsUint(); ok {
		t.Error("Int(-1).AsUint() succeeded")
	}
	if f, ok := Int(-7).AsFloat(); !ok || f != -7 {
		t.Errorf("Int(-7).AsFloat() = %v, %v", f, ok)
	}
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("Bool(true).AsBool() failed")
	}
	if ns, ok := Time(123).AsTime(); !ok || ns != 123 {
		t.Error("Time(123).AsTime() failed")
	}
	if _, ok := Int(123).AsTime(); ok {
		t.Error("Int.AsTime() succeeded")
	}
}

func TestValueEqualCrossKind(t *testing.T) {
	if !Int(5).Equal(Uint(5)) {
		t.Error("Int(5) != Uint(5)")
	}
	if !Int(5).Equal(Float(5.0)) {
		t.Error("Int(5) != Float(5)")
	}
	if Int(5).Equal(Float(5.5)) {
		t.Error("Int(5) == Float(5.5)")
	}
	if Null.Equal(Null) {
		t.Error("NULL == NULL (SQL semantics: must be false)")
	}
	if String("a").Equal(String("b")) {
		t.Error("a == b")
	}
	if !String("a").Equal(String("a")) {
		t.Error("a != a")
	}
	if Int(-1).Equal(Uint(math.MaxUint64)) {
		t.Error("-1 == MaxUint64 (wraparound bug)")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(-1), Uint(0), -1},
		{Uint(0), Int(-1), 1},
		{Int(-5), Int(-2), -1},
		{Float(1.5), Int(2), -1},
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{Null, Null, 0},
		{String("a"), String("b"), -1},
		{Bool(false), Bool(true), -1},
		{Uint(math.MaxUint64), Int(math.MaxInt64), 1},
		// IPs order by address: group tables sorted on an IP key must
		// not degrade to map iteration order.
		{IP(0x0a000001), IP(0x0a000002), -1},
		{IP(0x0a000002), IP(0x0a000001), 1},
		{IP(0x0a000001), IP(0x0a000001), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueHashEqualImpliesSameHash(t *testing.T) {
	f := func(n int64) bool {
		a, b, c := Int(n), Float(float64(n)), Uint(uint64(n))
		if float64(n) != math.Trunc(float64(n)) || int64(float64(n)) != n {
			return true // n not exactly representable; skip
		}
		if n >= 0 && a.Hash() != c.Hash() {
			return false
		}
		return a.Hash() == b.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	f := func(ip uint32) bool {
		got, err := ParseIPv4(FormatIPv4(ip))
		return err == nil && got == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3"} {
		if _, err := ParseIPv4(bad); err == nil {
			t.Errorf("ParseIPv4(%q) succeeded", bad)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{KindNull, KindInt, KindUint, KindFloat, KindString, KindBool, KindIP, KindTime} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) succeeded")
	}
	if k, err := ParseKind("integer"); err != nil || k != KindInt {
		t.Errorf("ParseKind(integer) = %v, %v", k, err)
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema("Traffic",
		Field{Name: "time", Kind: KindTime, Ordering: true},
		Field{Name: "srcIP", Kind: KindIP},
		Field{Name: "len", Kind: KindUint},
	)
	if s.Arity() != 3 {
		t.Fatalf("arity = %d", s.Arity())
	}
	if i := s.Index("srcIP"); i != 1 {
		t.Errorf("Index(srcIP) = %d", i)
	}
	if i := s.Index("nope"); i != -1 {
		t.Errorf("Index(nope) = %d", i)
	}
	if i := s.OrderingIndex(); i != 0 {
		t.Errorf("OrderingIndex = %d", i)
	}
	if _, ok := s.Field("len"); !ok {
		t.Error("Field(len) missing")
	}
	want := "Traffic(time TIME ORDERING, srcIP IP, len UINT)"
	if s.String() != want {
		t.Errorf("String() = %q, want %q", s.String(), want)
	}
}

func TestSchemaProject(t *testing.T) {
	s := NewSchema("S", Field{Name: "a", Kind: KindInt}, Field{Name: "b", Kind: KindFloat})
	p, err := s.Project("b")
	if err != nil || p.Arity() != 1 || p.Fields[0].Name != "b" {
		t.Fatalf("Project(b) = %v, %v", p, err)
	}
	if _, err := s.Project("c"); err == nil {
		t.Error("Project(c) succeeded")
	}
}

func TestSchemaConcatDisambiguates(t *testing.T) {
	a := NewSchema("S", Field{Name: "tstmp", Kind: KindTime, Ordering: true}, Field{Name: "x", Kind: KindInt})
	b := NewSchema("A", Field{Name: "tstmp", Kind: KindTime, Ordering: true}, Field{Name: "y", Kind: KindInt})
	j := a.Concat(b)
	if j.Arity() != 4 {
		t.Fatalf("arity = %d", j.Arity())
	}
	if j.Index("A.tstmp") != 2 {
		t.Errorf("missing disambiguated field: %s", j)
	}
	if j.OrderingIndex() != 0 {
		t.Errorf("left ordering should survive, right must not: %s", j)
	}
}

func TestSchemaPanicsOnDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate field did not panic")
		}
	}()
	NewSchema("S", Field{Name: "a", Kind: KindInt}, Field{Name: "a", Kind: KindInt})
}

func TestTupleConcatTimestampAndClone(t *testing.T) {
	a := New(5, Int(1))
	b := New(9, Int(2))
	j := a.Concat(b)
	if j.Ts != 9 || len(j.Vals) != 2 {
		t.Fatalf("Concat = %v", j)
	}
	c := a.Clone()
	c.Vals[0] = Int(99)
	if v, _ := a.Vals[0].AsInt(); v != 1 {
		t.Error("Clone aliases values")
	}
}

func TestTupleKeyAndKeyEqual(t *testing.T) {
	a := New(0, Int(1), String("x"), Float(2))
	b := New(9, Int(1), String("x"), Float(3))
	if a.Key([]int{0, 1}) != b.Key([]int{0, 1}) {
		t.Error("equal keys hash differently")
	}
	if !a.KeyEqual(b, []int{0, 1}, []int{0, 1}) {
		t.Error("KeyEqual false on equal keys")
	}
	if a.KeyEqual(b, []int{2}, []int{2}) {
		t.Error("KeyEqual true on unequal keys")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := New(-77, Int(-5), Uint(5), Float(3.25), String("hello"), Bool(true), IP(0x01020304), Time(42), Null)
	buf := AppendEncode(nil, in)
	out, n, err := Decode(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("Decode: %v, n=%d len=%d", err, n, len(buf))
	}
	if out.Ts != in.Ts || len(out.Vals) != len(in.Vals) {
		t.Fatalf("round trip mismatch: %v vs %v", out, in)
	}
	for i := range in.Vals {
		if in.Vals[i].Kind != out.Vals[i].Kind {
			t.Errorf("val %d kind %v != %v", i, out.Vals[i].Kind, in.Vals[i].Kind)
		}
		if in.Vals[i].Kind != KindNull && !in.Vals[i].Equal(out.Vals[i]) {
			t.Errorf("val %d: %v != %v", i, out.Vals[i], in.Vals[i])
		}
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(ts int64, i int64, u uint64, fl float64, s string, b bool) bool {
		in := New(ts, Int(i), Uint(u), Float(fl), String(s), Bool(b))
		buf := AppendEncode(nil, in)
		out, n, err := Decode(buf)
		if err != nil || n != len(buf) || out.Ts != ts {
			return false
		}
		for k := range in.Vals {
			if in.Vals[k].Kind != out.Vals[k].Kind {
				return false
			}
		}
		gs, _ := out.Vals[3].AsString()
		gf := out.Vals[2].Fl()
		return gs == s && (gf == fl || (math.IsNaN(gf) && math.IsNaN(fl)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCodecTruncation(t *testing.T) {
	buf := AppendEncode(nil, New(1, Int(7), String("abcdef")))
	for i := 0; i < len(buf); i++ {
		if _, _, err := Decode(buf[:i]); err == nil {
			t.Errorf("Decode of %d-byte prefix succeeded", i)
		}
	}
}

func TestMemSize(t *testing.T) {
	small := New(0, Int(1)).MemSize()
	big := New(0, Int(1), String("this string occupies space")).MemSize()
	if big <= small {
		t.Errorf("MemSize not monotone: %d <= %d", big, small)
	}
}
