package stream

// Unit coverage for the columnar batch ownership protocol: pooled
// batches must not recycle while any reference (including a WithSel
// view's pin on its parent) is outstanding, AppendRows must detach from
// the batch storage, and the pool must hand back zeroed batches.

import (
	"testing"

	"streamdb/internal/tuple"
)

var colSch = tuple.NewSchema("C",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "v", Kind: tuple.KindInt},
)

func fillBatch(b *Batch, n int) {
	for i := 0; i < n; i++ {
		b.AppendRow(tuple.New(int64(i), tuple.Time(int64(i)), tuple.Int(int64(i*10))))
	}
}

func TestColBatchRetainBlocksRecycle(t *testing.T) {
	pool := NewColPool(colSch, 8)
	b := pool.Get()
	fillBatch(b, 8)
	if !b.Exclusive() {
		t.Fatal("fresh batch must be exclusively owned")
	}

	b.Retain() // second consumer
	if b.Exclusive() {
		t.Fatal("retained batch reported exclusive")
	}
	b.Release() // first consumer done — storage must survive
	if got := b.Cols[1][3]; !got.Equal(tuple.Int(30)) {
		t.Fatalf("batch zeroed while a reference was outstanding: %v", got)
	}
	// The batch never reached the freelist: a Get must not return it.
	if pool.Get() == b {
		t.Fatal("pool recycled a batch with an outstanding reference")
	}
	b.Release() // last reference: now it recycles, zeroed
	c := pool.Get()
	if c.Rows() != 0 || c.Sel != nil {
		t.Fatalf("pooled batch not reset: %d rows, sel %v", c.Rows(), c.Sel)
	}
	c.Release()
}

func TestColBatchWithSelPinsParent(t *testing.T) {
	pool := NewColPool(colSch, 4)
	b := pool.Get()
	fillBatch(b, 4)

	v := b.WithSel([]int32{1, 3})
	if v.N() != 2 || v.Rows() != 4 {
		t.Fatalf("view: N=%d Rows=%d", v.N(), v.Rows())
	}
	if v.Exclusive() {
		t.Fatal("a view must never report exclusive (it does not own storage)")
	}
	b.Release() // producer done; the view's pin keeps the storage alive
	if got := v.Cols[1][3]; !got.Equal(tuple.Int(30)) {
		t.Fatalf("parent zeroed under a live view: %v", got)
	}
	if pool.Get() == b {
		t.Fatal("pool recycled a parent pinned by a view")
	}
	var out []Element
	out = v.AppendRows(out)
	if len(out) != 2 || out[0].Tuple.Ts != 1 || !out[1].Tuple.Vals[1].Equal(tuple.Int(30)) {
		t.Fatalf("view materialized wrong rows: %v", out)
	}
	v.Release() // drops the view and unpins the parent
	d := pool.Get()
	if d.Rows() != 0 {
		t.Fatalf("recycled parent not reset: %d rows", d.Rows())
	}
	d.Release()
}

func TestColBatchAppendRowsDetaches(t *testing.T) {
	pool := NewColPool(colSch, 6)
	b := pool.Get()
	fillBatch(b, 6)
	b.Sel = b.SelBuf()
	b.Sel = append(b.Sel, 0, 2, 4)

	var out []Element
	out = b.AppendRows(out)
	if len(out) != 3 {
		t.Fatalf("materialized %d rows, want 3", len(out))
	}
	b.Release() // zeroes and recycles the batch storage
	for i, wantV := range []int64{0, 20, 40} {
		e := out[i]
		if e.Tuple.Ts != int64(2*i) || !e.Tuple.Vals[1].Equal(tuple.Int(wantV)) {
			t.Fatalf("row %d corrupted after batch release: %v", i, e.Tuple)
		}
	}
}
