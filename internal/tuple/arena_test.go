package tuple

import "testing"

// TestArenaPoolPutZeroes: a pooled arena must not pin decoded values
// against the collector, so Put zeroes its storage before recycling it.
func TestArenaPoolPutZeroes(t *testing.T) {
	pool := NewArenaPool()
	want := batchTuples(32)
	buf, err := AppendEncodeBatch(nil, batchSchema, want)
	if err != nil {
		t.Fatal(err)
	}
	a := pool.Get()
	got, _, err := DecodeBatchInto(buf, batchSchema, a)
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, want)
	vals := got[0].Vals
	pool.Put(a)
	for j := range vals {
		if !isZero(vals[j]) {
			t.Fatalf("arena storage not zeroed by Put: %v", vals[j])
		}
	}
	// got aliases the arena's ptrs array, which Put nils too.
	if got[0] != nil {
		t.Fatal("arena tuple pointers not zeroed by Put")
	}
}

// TestArenaUnpooledLifecycle: a zero-value Arena (no pool) decodes,
// and after Reset decodes the next batch into the same storage.
func TestArenaUnpooledLifecycle(t *testing.T) {
	want := batchTuples(8)
	buf, err := AppendEncodeBatch(nil, batchSchema, want)
	if err != nil {
		t.Fatal(err)
	}
	var a Arena
	got, _, err := DecodeBatchInto(buf, batchSchema, &a)
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, want)
	first := &a.vals[0]
	a.Reset()
	got, _, err = DecodeBatchInto(buf, batchSchema, &a)
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, want)
	if &a.vals[0] != first {
		t.Fatal("Reset did not keep the arena's storage for reuse")
	}
}
