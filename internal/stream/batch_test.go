package stream

import (
	"testing"

	"streamdb/internal/tuple"
)

func batchEl(ts int64) Element {
	return Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(ts)))
}

func TestBatchPoolRecyclesAndZeroes(t *testing.T) {
	p := NewBatchPool(8)
	if p.Size() != 8 {
		t.Fatalf("Size = %d, want 8", p.Size())
	}
	b := p.Get()
	if len(b) != 0 || cap(b) < 8 {
		t.Fatalf("Get: len=%d cap=%d, want empty with cap >= 8", len(b), cap(b))
	}
	b = append(b, batchEl(1), batchEl(2))
	backing := b[:cap(b)]
	p.Put(b)
	// The recycled buffer must not pin the tuples it carried.
	for i := range backing {
		if backing[i].Tuple != nil || backing[i].Punct != nil {
			t.Fatalf("slot %d not zeroed on Put", i)
		}
	}
	b2 := p.Get()
	if len(b2) != 0 {
		t.Fatalf("recycled batch not empty: len=%d", len(b2))
	}
}

func TestBatchPoolMinimumSize(t *testing.T) {
	p := NewBatchPool(0)
	if p.Size() != 1 {
		t.Fatalf("Size = %d, want clamped to 1", p.Size())
	}
	p.Put(nil) // zero-cap batches are dropped, not pooled
	if b := p.Get(); cap(b) < 1 {
		t.Fatalf("Get after Put(nil): cap=%d", cap(b))
	}
}

func TestSliceSourceNextBatch(t *testing.T) {
	sch := tuple.NewSchema("S",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "v", Kind: tuple.KindInt},
	)
	var elems []Element
	for i := int64(0); i < 10; i++ {
		elems = append(elems, batchEl(i))
	}
	src := FromElements(sch, elems...)
	bulk, ok := interface{}(src).(BulkSource)
	if !ok {
		t.Fatal("SliceSource must implement BulkSource")
	}
	var got []Element
	got, more := bulk.NextBatch(got, 4)
	if len(got) != 4 || !more {
		t.Fatalf("first chunk: len=%d more=%v, want 4 true", len(got), more)
	}
	got, more = bulk.NextBatch(got, 100)
	if len(got) != 10 || more {
		t.Fatalf("second chunk: len=%d more=%v, want 10 false", len(got), more)
	}
	for i, e := range got {
		if e.Ts() != int64(i) {
			t.Fatalf("element %d has ts %d (order broken)", i, e.Ts())
		}
	}
	if _, more := bulk.NextBatch(nil, 1); more {
		t.Fatal("exhausted source reported more")
	}
}

// NextBatch and Next must be freely interleavable: the engine may mix
// peeked single reads with bulk fills.
func TestSliceSourceNextBatchInterleaved(t *testing.T) {
	sch := tuple.NewSchema("S",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "v", Kind: tuple.KindInt},
	)
	var elems []Element
	for i := int64(0); i < 6; i++ {
		elems = append(elems, batchEl(i))
	}
	src := FromElements(sch, elems...)
	e, ok := src.Next()
	if !ok || e.Ts() != 0 {
		t.Fatalf("Next: %v %v", e, ok)
	}
	chunk, _ := src.NextBatch(nil, 3)
	if len(chunk) != 3 || chunk[0].Ts() != 1 {
		t.Fatalf("NextBatch after Next: len=%d first=%d, want 3 1", len(chunk), chunk[0].Ts())
	}
	e, ok = src.Next()
	if !ok || e.Ts() != 4 {
		t.Fatalf("Next after NextBatch: ts=%d ok=%v, want 4 true", e.Ts(), ok)
	}
}

// Limit must not hide that its source can hand over elements in bulk,
// and its cap stays exact when a bulk read straddles it.
func TestLimitForwardsNextBatch(t *testing.T) {
	bulk, ok := Limit(NewTrafficStream(1, 1000, 10), 7).(BulkSource)
	if !ok {
		t.Fatal("Limit over a BulkSource must be a BulkSource")
	}
	got, more := bulk.NextBatch(nil, 4)
	if len(got) != 4 || !more {
		t.Fatalf("first chunk: len=%d more=%v, want 4 true", len(got), more)
	}
	if e, ok := bulk.Next(); !ok || e.Ts() <= got[3].Ts() {
		t.Fatalf("Next between bulk reads: ts=%d ok=%v", e.Ts(), ok)
	}
	got, more = bulk.NextBatch(got, 4)
	if len(got) != 6 || more {
		t.Fatalf("chunk across the cap: len=%d more=%v, want 6 false", len(got), more)
	}
	if got, more = bulk.NextBatch(got, 4); len(got) != 6 || more {
		t.Fatalf("read past the cap: len=%d more=%v", len(got), more)
	}
	// Same seed, element at a time: the bulk reads skipped nothing.
	want := Drain(Limit(NewTrafficStream(1, 1000, 10), 7), -1)
	if got[0].Ts() != want[0].Ts() || got[5].Ts() != want[6].Ts() {
		t.Errorf("bulk reads saw ts %d..%d, element reads %d..%d", got[0].Ts(), got[5].Ts(), want[0].Ts(), want[6].Ts())
	}

	blocking := &FuncSource{Sch: TrafficSchema("T"), Fn: func() (Element, bool) { return Element{}, false }}
	if _, ok := Limit(blocking, 7).(BulkSource); ok {
		t.Error("Limit over a plain Source must stay a plain Source: its Next may block")
	}
}
