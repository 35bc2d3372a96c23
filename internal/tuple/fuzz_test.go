package tuple

import "testing"

// valueEqual is Equal plus NULL==NULL, for round-trip comparisons (SQL
// Equal treats NULL as unequal to everything).
func valueEqual(a, b Value) bool {
	if a.Kind == KindNull || b.Kind == KindNull {
		return a.Kind == b.Kind
	}
	return a.Kind == b.Kind && a.Equal(b)
}

func FuzzDecode(f *testing.F) {
	// Seed corpus: valid encodings of representative tuples, plus known
	// tricky shapes (empty, truncated, huge-length string).
	seeds := []*Tuple{
		New(0),
		New(1, Int(-5), Uint(7), Bool(true)),
		New(1<<40, Time(1<<40), IP(0x7f000001), Float(3.25), String("payload")),
		New(-9, Null, String(""), Null),
	}
	for _, t := range seeds {
		f.Add(AppendEncode(nil, t))
	}
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x01, byte(KindString), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, n, err := Decode(data)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Semantic round trip: re-encoding the decoded tuple and decoding
		// again must reproduce it (the input itself may use non-minimal
		// varints, so byte equality is not required).
		re := AppendEncode(nil, tp)
		tp2, n2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if n2 != len(re) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(re))
		}
		if tp2.Ts != tp.Ts || len(tp2.Vals) != len(tp.Vals) {
			t.Fatalf("round trip changed tuple: %v vs %v", tp, tp2)
		}
		for i := range tp.Vals {
			if !valueEqual(tp.Vals[i], tp2.Vals[i]) {
				t.Fatalf("round trip changed value %d: %v vs %v", i, tp.Vals[i], tp2.Vals[i])
			}
		}
	})
}

// fuzzSchemas are the schemas FuzzDecodeBatch exercises, selected by the
// first input byte so the fuzzer can explore all of them.
var fuzzSchemas = []*Schema{
	NewSchema("Traffic",
		Field{Name: "time", Kind: KindTime, Ordering: true},
		Field{Name: "srcIP", Kind: KindIP},
		Field{Name: "destIP", Kind: KindIP},
		Field{Name: "protocol", Kind: KindUint},
		Field{Name: "length", Kind: KindUint},
	),
	NewSchema("Strings",
		Field{Name: "time", Kind: KindTime, Ordering: true},
		Field{Name: "host", Kind: KindString},
		Field{Name: "score", Kind: KindFloat},
	),
	NewSchema("Empty"),
	NewSchema("Wide",
		Field{Name: "a", Kind: KindInt}, Field{Name: "b", Kind: KindInt},
		Field{Name: "c", Kind: KindBool}, Field{Name: "d", Kind: KindFloat},
		Field{Name: "e", Kind: KindString}, Field{Name: "f", Kind: KindUint},
		Field{Name: "g", Kind: KindIP}, Field{Name: "h", Kind: KindTime},
		Field{Name: "i", Kind: KindInt},
	),
}

func FuzzDecodeBatch(f *testing.F) {
	seed0, err := AppendEncodeBatch(nil, fuzzSchemas[0], []*Tuple{
		New(100, Time(100), IP(1), IP(2), Uint(6), Uint(40)),
		New(90, Time(90), Null, IP(3), Uint(17), Null),
	})
	if err != nil {
		f.Fatal(err)
	}
	seed1, err := AppendEncodeBatch(nil, fuzzSchemas[1], []*Tuple{
		New(5, Time(5), String("a"), Float(1.5)),
		New(5, Time(5), Null, Null),
		New(-3, Time(-3), String(""), Float(-0)),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(byte(0), seed0)
	f.Add(byte(1), seed1)
	f.Add(byte(2), []byte{0})
	f.Add(byte(3), []byte{0x05, 0x00, 0x00})
	f.Add(byte(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		s := fuzzSchemas[int(which)%len(fuzzSchemas)]
		var a Arena
		tuples, n, err := DecodeBatchInto(data, s, &a)
		if err != nil {
			if len(a.vals) != 0 || len(a.tuples) != 0 || len(a.ptrs) != 0 {
				t.Fatal("arena not rolled back on error")
			}
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Semantic round trip through the batch codec. NULL values decode
		// as Null regardless of the bitmap-vs-KindNull-field path, so the
		// re-encode is always legal.
		re, err := AppendEncodeBatch(nil, s, tuples)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		var a2 Arena
		tuples2, n2, err := DecodeBatchInto(re, s, &a2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if n2 != len(re) || len(tuples2) != len(tuples) {
			t.Fatalf("round trip changed batch shape: %d/%d tuples, %d/%d bytes",
				len(tuples2), len(tuples), n2, len(re))
		}
		for i := range tuples {
			if tuples2[i].Ts != tuples[i].Ts {
				t.Fatalf("tuple %d ts changed: %d vs %d", i, tuples[i].Ts, tuples2[i].Ts)
			}
			for j := range tuples[i].Vals {
				if !valueEqual(tuples[i].Vals[j], tuples2[i].Vals[j]) {
					t.Fatalf("tuple %d field %d changed: %v vs %v",
						i, j, tuples[i].Vals[j], tuples2[i].Vals[j])
				}
			}
		}
	})
}

// sameValue is bit-identity: both batch layouts run one value decoder,
// so even NaN payloads must agree. Strings compare by content: the
// payload word holds the length and p only where the bytes live.
func sameValue(a, b Value) bool {
	return a.Kind == b.Kind && a.num == b.num && a.Str() == b.Str()
}

// isZero reports whether v is the zero Value, pointer word included:
// storage handed back to a pool must not pin a string.
func isZero(v Value) bool {
	return v.Kind == KindNull && v.num == 0 && v.p == nil
}

// FuzzDecodeBatchCols holds the column-major decode to the row-major
// one on any input: the same verdict, the same bytes consumed and the
// same timestamps and values. The column target already holds a row,
// as a batch coalescing frames does; a failed decode must leave it
// exactly as it was, with the spare capacity it wrote into zeroed.
func FuzzDecodeBatchCols(f *testing.F) {
	seed0, err := AppendEncodeBatch(nil, fuzzSchemas[0], []*Tuple{
		New(100, Time(100), IP(1), IP(2), Uint(6), Uint(40)),
		New(90, Time(90), Null, IP(3), Uint(17), Null),
	})
	if err != nil {
		f.Fatal(err)
	}
	seed1, err := AppendEncodeBatch(nil, fuzzSchemas[1], []*Tuple{
		New(5, Time(5), String("a"), Float(1.5)),
		New(5, Time(5), Null, Null),
		New(-3, Time(-3), String(""), Float(-0)),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(byte(0), seed0)
	f.Add(byte(1), seed1)
	f.Add(byte(1), seed1[:len(seed1)-1]) // the last tuple's float cut short
	f.Add(byte(2), []byte{0})
	f.Add(byte(3), []byte{0x05, 0x00, 0x00})
	f.Add(byte(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		s := fuzzSchemas[int(which)%len(fuzzSchemas)]
		arity := s.Arity()
		var a Arena
		rows, n, err := DecodeBatchInto(data, s, &a)

		prefix := make([]Value, arity)
		for c := range prefix {
			prefix[c] = String("held")
		}
		ts := append(make([]int64, 0, 4), -1)
		cols := make([][]Value, arity)
		for c := range cols {
			cols[c] = append(make([]Value, 0, 4), prefix[c])
		}
		ts, nc, errc := DecodeBatchCols(data, s, ts, cols)

		if (err == nil) != (errc == nil) {
			t.Fatalf("row decode error %v, column decode error %v", err, errc)
		}
		if err != nil {
			if len(ts) != 1 || ts[0] != -1 {
				t.Fatalf("timestamps not restored on error: %v", ts)
			}
			for c := range cols {
				if len(cols[c]) != 1 || !sameValue(cols[c][0], prefix[c]) {
					t.Fatalf("column %d not restored on error: %v", c, cols[c])
				}
				for _, v := range cols[c][1:cap(cols[c])] {
					if !isZero(v) {
						t.Fatalf("column %d keeps %v past its length after an error", c, v)
					}
				}
			}
			return
		}
		if nc != n {
			t.Fatalf("column decode consumed %d bytes, row decode %d", nc, n)
		}
		if len(ts) != 1+len(rows) {
			t.Fatalf("column decode produced %d rows, row decode %d", len(ts)-1, len(rows))
		}
		for r, tp := range rows {
			if ts[1+r] != tp.Ts {
				t.Fatalf("row %d: ts %d, want %d", r, ts[1+r], tp.Ts)
			}
			for c := range cols {
				if len(cols[c]) != len(ts) {
					t.Fatalf("column %d has %d rows, timestamps %d", c, len(cols[c]), len(ts))
				}
				if !sameValue(cols[c][1+r], tp.Vals[c]) {
					t.Fatalf("row %d field %d: %v, want %v", r, c, cols[c][1+r], tp.Vals[c])
				}
			}
		}
	})
}
