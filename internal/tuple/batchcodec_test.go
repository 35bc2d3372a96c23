package tuple

import (
	"bytes"
	"encoding/binary"
	"testing"
)

var batchSchema = NewSchema("S",
	Field{Name: "time", Kind: KindTime, Ordering: true},
	Field{Name: "src", Kind: KindIP},
	Field{Name: "proto", Kind: KindUint},
	Field{Name: "len", Kind: KindUint},
	Field{Name: "host", Kind: KindString},
	Field{Name: "score", Kind: KindFloat},
)

func batchTuples(n int) []*Tuple {
	out := make([]*Tuple, n)
	for i := range out {
		ts := int64(1000 + 10*i)
		host := String("example.com")
		if i%3 == 0 {
			host = Null
		}
		score := Float(float64(i) * 0.5)
		if i%5 == 0 {
			score = Null
		}
		out[i] = New(ts, Time(ts), IP(uint32(0x0a000000+i)), Uint(uint64(6)),
			Uint(uint64(40+i%1400)), host, score)
	}
	return out
}

func tuplesEqual(t *testing.T, got, want []*Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Ts != want[i].Ts {
			t.Fatalf("tuple %d: ts %d, want %d", i, got[i].Ts, want[i].Ts)
		}
		if len(got[i].Vals) != len(want[i].Vals) {
			t.Fatalf("tuple %d: arity %d, want %d", i, len(got[i].Vals), len(want[i].Vals))
		}
		for j := range got[i].Vals {
			g, w := got[i].Vals[j], want[i].Vals[j]
			if g.Kind != w.Kind || (g.Kind != KindNull && !g.Equal(w)) {
				t.Fatalf("tuple %d field %d: %v, want %v", i, j, g, w)
			}
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	want := batchTuples(100)
	buf, err := AppendEncodeBatch(nil, batchSchema, want)
	if err != nil {
		t.Fatal(err)
	}
	var a Arena
	got, n, err := DecodeBatchInto(buf, batchSchema, &a)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	tuplesEqual(t, got, want)
}

func TestBatchEmptyAndSingle(t *testing.T) {
	buf, err := AppendEncodeBatch(nil, batchSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a Arena
	got, _, err := DecodeBatchInto(buf, batchSchema, &a)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %d tuples, err %v", len(got), err)
	}
	one := batchTuples(1)
	buf, err = AppendEncodeBatch(buf[:0], batchSchema, one)
	if err != nil {
		t.Fatal(err)
	}
	a.Reset()
	got, _, err = DecodeBatchInto(buf, batchSchema, &a)
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, one)
}

func TestBatchNegativeDeltas(t *testing.T) {
	// Late tuples: timestamps going backwards must survive the delta
	// encoding.
	s := NewSchema("T", Field{Name: "v", Kind: KindInt})
	want := []*Tuple{
		New(100, Int(1)), New(50, Int(2)), New(-7, Int(3)), New(200, Int(4)),
	}
	buf, err := AppendEncodeBatch(nil, s, want)
	if err != nil {
		t.Fatal(err)
	}
	var a Arena
	got, _, err := DecodeBatchInto(buf, s, &a)
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, want)
}

func TestBatchSmallerThanPerTupleEncoding(t *testing.T) {
	// The headline claim: schema coding + delta timestamps beat the
	// self-describing per-tuple encoding on a netmon-style schema.
	s := NewSchema("Traffic",
		Field{Name: "time", Kind: KindTime, Ordering: true},
		Field{Name: "srcIP", Kind: KindIP},
		Field{Name: "destIP", Kind: KindIP},
		Field{Name: "protocol", Kind: KindUint},
		Field{Name: "length", Kind: KindUint},
	)
	tuples := make([]*Tuple, 64)
	for i := range tuples {
		ts := int64(1e9 + 10000*i)
		tuples[i] = New(ts, Time(ts), IP(uint32(0x0a010000+i)), IP(uint32(0x0a020000+i)),
			Uint(6), Uint(uint64(40+i)))
	}
	var v1 []byte
	for _, tp := range tuples {
		v1 = AppendEncode(v1, tp)
	}
	v3, err := AppendEncodeBatch(nil, s, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(v3)) > 0.7*float64(len(v1)) {
		t.Errorf("batch encoding %d bytes vs per-tuple %d: less than 30%% saving", len(v3), len(v1))
	}
}

func TestBatchEncodeRejectsSchemaViolations(t *testing.T) {
	s := NewSchema("T", Field{Name: "v", Kind: KindInt})
	if _, err := AppendEncodeBatch(nil, s, []*Tuple{New(1, Int(1), Int(2))}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := AppendEncodeBatch(nil, s, []*Tuple{New(1, String("x"))}); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestBatchDecodeTruncationAndCorruption(t *testing.T) {
	want := batchTuples(8)
	buf, err := AppendEncodeBatch(nil, batchSchema, want)
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must fail or decode fewer bytes, never panic
	// or over-read.
	for cut := 0; cut < len(buf); cut++ {
		var a Arena
		got, n, err := DecodeBatchInto(buf[:cut], batchSchema, &a)
		if err == nil {
			if n > cut {
				t.Fatalf("cut %d: consumed %d bytes beyond buffer", cut, n)
			}
			_ = got
		} else if len(a.ptrs) != 0 || len(a.vals) != 0 {
			t.Fatalf("cut %d: arena not rolled back on error", cut)
		}
	}
	// A batch count claiming more tuples than bytes is rejected before
	// sizing the arena.
	huge := binary.AppendUvarint(nil, 1<<40)
	if _, _, err := DecodeBatchInto(huge, batchSchema, &Arena{}); err == nil {
		t.Error("huge batch count accepted")
	}
	// A huge string length varint must not wrap the bounds check.
	s := NewSchema("T", Field{Name: "s", Kind: KindString})
	crafted := binary.AppendUvarint(nil, 1)        // count
	crafted = binary.AppendVarint(crafted, 0)      // ts delta
	crafted = append(crafted, 0)                   // bitmap: not null
	crafted = binary.AppendUvarint(crafted, 1<<62) // absurd string length
	crafted = append(crafted, 'x')
	if _, _, err := DecodeBatchInto(crafted, s, &Arena{}); err == nil {
		t.Error("wrapping string length accepted in batch decode")
	}
}

func TestDecodeStringLengthOverflow(t *testing.T) {
	// Regression for the v1 Decode string path: off+n+int(ln) wrapped
	// negative on a huge ln varint, slipping past the bounds check and
	// panicking on the slice expression.
	buf := binary.AppendVarint(nil, 1)     // ts
	buf = binary.AppendUvarint(buf, 1)     // nvals
	buf = append(buf, byte(KindString))    // kind
	buf = binary.AppendUvarint(buf, 1<<63) // ln: int64-wrapping length
	buf = append(buf, 'x')
	if _, _, err := Decode(buf); err == nil {
		t.Error("wrapping string length accepted")
	}
}

func TestArenaReuseAndPool(t *testing.T) {
	want := batchTuples(32)
	buf, err := AppendEncodeBatch(nil, batchSchema, want)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewArenaPool()
	for iter := 0; iter < 10; iter++ {
		a := pool.Get()
		got, _, err := DecodeBatchInto(buf, batchSchema, a)
		if err != nil {
			t.Fatal(err)
		}
		tuplesEqual(t, got, want)
		// Appending a second batch must keep the first batch's tuples
		// intact (growth copies, old pointers stay valid).
		got2, _, err := DecodeBatchInto(buf, batchSchema, a)
		if err != nil {
			t.Fatal(err)
		}
		tuplesEqual(t, got, want)
		tuplesEqual(t, got2, want)
		pool.Put(a)
	}
}

func TestBatchDecodeSteadyStateAllocFree(t *testing.T) {
	// String-free schema: after warm-up, decode into a reused arena must
	// not allocate.
	s := NewSchema("Traffic",
		Field{Name: "time", Kind: KindTime, Ordering: true},
		Field{Name: "srcIP", Kind: KindIP},
		Field{Name: "length", Kind: KindUint},
	)
	tuples := make([]*Tuple, 64)
	for i := range tuples {
		ts := int64(1000 * i)
		tuples[i] = New(ts, Time(ts), IP(uint32(i)), Uint(uint64(i)))
	}
	buf, err := AppendEncodeBatch(nil, s, tuples)
	if err != nil {
		t.Fatal(err)
	}
	var a Arena
	if _, _, err := DecodeBatchInto(buf, s, &a); err != nil { // warm up capacity
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		if _, _, err := DecodeBatchInto(buf, s, &a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state batch decode allocates %.1f times per batch", allocs)
	}

	// The column layout, into reused column storage, likewise.
	cols := make([][]Value, s.Arity())
	ts, _, err := DecodeBatchCols(buf, s, nil, cols)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		for c := range cols {
			cols[c] = cols[c][:0]
		}
		if ts, _, err = DecodeBatchCols(buf, s, ts[:0], cols); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state column batch decode allocates %.1f times per batch", allocs)
	}
}

func TestBatchRoundTripMatchesPerTupleDecode(t *testing.T) {
	// The two encodings must agree on content: encode v3, decode, then
	// re-encode each tuple with the v1 codec and compare with a direct
	// v1 encoding of the originals.
	want := batchTuples(20)
	buf, err := AppendEncodeBatch(nil, batchSchema, want)
	if err != nil {
		t.Fatal(err)
	}
	var a Arena
	got, _, err := DecodeBatchInto(buf, batchSchema, &a)
	if err != nil {
		t.Fatal(err)
	}
	var v1got, v1want []byte
	for i := range want {
		v1want = AppendEncode(v1want, want[i])
		v1got = AppendEncode(v1got, got[i])
	}
	if !bytes.Equal(v1got, v1want) {
		t.Error("batch round trip changed tuple content")
	}
}
