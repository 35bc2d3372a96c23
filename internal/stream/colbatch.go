package stream

import (
	"sync"
	"sync/atomic"

	"streamdb/internal/tuple"
)

// Columnar batches: the vectorized counterpart of []Element edge
// batches. A Batch holds one contiguous run of data tuples decomposed
// into column vectors — Cols[c][r] is field c of row r, Ts[r] its
// timestamp — plus an optional selection vector Sel listing the row
// indexes that are still live (nil = all rows). Filters refine Sel
// instead of materializing survivors, so a chain of selections touches
// only the selection vector; rows are materialized back into tuples
// only at boundaries that need them (row-path operators, the sink).
//
// Inside the engine batches never carry punctuations: a punctuation
// (and therefore a checkpoint barrier) always travels the row path,
// which keeps the engine's flush-on-punct and barrier-alignment
// invariants intact without the columnar path knowing about either. A
// ColSource's batch may carry one, which the engine moves behind it.
//
// Ownership is reference-counted. A producer hands its reference to
// the consumer with the batch; fan-out retains once per extra
// consumer; Release returns the storage to its ColPool when the last
// reference drops. A batch is only mutated (Sel refined in place) by a
// holder of the sole reference — shared batches are refined through
// WithSel views that alias the columns and hold a reference on the
// parent.

// Batch is a column-oriented run of data tuples.
type Batch struct {
	Schema *tuple.Schema
	Cols   [][]tuple.Value // Cols[c][r]: field c of row r
	Ts     []int64         // timestamps, parallel to the column rows
	Sel    []int32         // live row indexes, ascending; nil = all rows
	// Punct is progress that follows the rows, set only by a ColSource
	// on a batch it returns; nil everywhere else.
	Punct *Punctuation

	refs   atomic.Int32
	pool   *ColPool
	parent *Batch  // non-nil for WithSel views: storage owner
	selArr []int32 // pooled selection backing, len 0, cap == pool size
}

// Rows reports the physical row count (ignoring the selection vector).
func (b *Batch) Rows() int { return len(b.Ts) }

// N reports the live row count: len(Sel) when a selection vector is
// present, the physical row count otherwise.
func (b *Batch) N() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return len(b.Ts)
}

// Retain adds a reference. Each reference must be dropped with Release.
func (b *Batch) Retain() { b.refs.Add(1) }

// Release drops one reference; the last drop returns pooled storage to
// its ColPool (zeroed first, so pooled columns do not pin decoded
// strings) and unpins the parent of a view.
func (b *Batch) Release() {
	if b.refs.Add(-1) != 0 {
		return
	}
	if b.parent != nil {
		p := b.parent
		b.parent = nil
		p.Release()
		return
	}
	if b.pool != nil {
		b.pool.put(b)
	}
}

// Exclusive reports whether the caller holds the only reference to a
// batch that owns its storage — the precondition for refining Sel in
// place or reusing SelBuf.
func (b *Batch) Exclusive() bool { return b.parent == nil && b.refs.Load() == 1 }

// SelBuf returns the batch's pooled selection backing (length 0).
// Only the sole owner of the batch may use it (see Exclusive).
func (b *Batch) SelBuf() []int32 {
	if b.selArr == nil {
		b.selArr = make([]int32, 0, len(b.Ts))
	}
	return b.selArr[:0]
}

// WithSel builds a view of b with a different selection vector: the
// view aliases the columns and timestamps, holds a reference on b, and
// owns only its Sel. The caller keeps (and must still Release) its own
// reference on b.
func (b *Batch) WithSel(sel []int32) *Batch {
	b.Retain()
	v := &Batch{Schema: b.Schema, Cols: b.Cols, Ts: b.Ts, Sel: sel, parent: b}
	v.refs.Store(1)
	return v
}

// AppendRow transposes one tuple onto the end of the batch. The tuple's
// values are copied; it is not retained.
func (b *Batch) AppendRow(t *tuple.Tuple) {
	b.Ts = append(b.Ts, t.Ts)
	for i := range b.Cols {
		b.Cols[i] = append(b.Cols[i], t.Vals[i])
	}
}

// GatherRow copies row r (a physical index) into dst, whose Vals must
// already have length len(Cols). The row stays valid independently of
// the batch only as long as dst's backing array does.
func (b *Batch) GatherRow(r int, dst *tuple.Tuple) {
	dst.Ts = b.Ts[r]
	for c := range b.Cols {
		dst.Vals[c] = b.Cols[c][r]
	}
}

// AppendSpan bulk-appends physical rows [lo, hi) of src (the selection
// vector, if any, is ignored — span producers emit dense batches) onto
// the end of b: the reassembly primitive of the columnar sequence-
// restoring merge, which stitches per-replica output spans back into
// batches with one copy per column instead of one per value.
func (b *Batch) AppendSpan(src *Batch, lo, hi int) {
	if hi <= lo {
		return
	}
	b.Ts = append(b.Ts, src.Ts[lo:hi]...)
	for c := range b.Cols {
		b.Cols[c] = append(b.Cols[c], src.Cols[c][lo:hi]...)
	}
}

// AppendRows materializes the live rows as fresh heap-owned tuples
// appended to dst: one backing array for all values and one for all
// tuple headers, so the cost is two allocations per batch regardless
// of row count. The result does not alias the batch.
func (b *Batch) AppendRows(dst []Element) []Element {
	n := b.N()
	if n == 0 {
		return dst
	}
	arity := len(b.Cols)
	vals := make([]tuple.Value, n*arity)
	tups := make([]tuple.Tuple, n)
	emitRow := func(i, r int) {
		tv := vals[i*arity : (i+1)*arity : (i+1)*arity]
		for c := range b.Cols {
			tv[c] = b.Cols[c][r]
		}
		tups[i] = tuple.Tuple{Ts: b.Ts[r], Vals: tv}
		dst = append(dst, Tup(&tups[i]))
	}
	if b.Sel != nil {
		for i, r := range b.Sel {
			emitRow(i, int(r))
		}
	} else {
		for r := 0; r < len(b.Ts); r++ {
			emitRow(r, r)
		}
	}
	return dst
}

// ColPool recycles columnar batches of a common schema and target row
// capacity, the columnar analogue of BatchPool.
type ColPool struct {
	schema *tuple.Schema
	size   int
	pool   sync.Pool
}

// NewColPool builds a pool of batches for the given schema with the
// given target row capacity (minimum 1).
func NewColPool(s *tuple.Schema, size int) *ColPool {
	if size < 1 {
		size = 1
	}
	p := &ColPool{schema: s, size: size}
	arity := s.Arity()
	p.pool.New = func() interface{} {
		b := &Batch{
			Schema: s,
			Cols:   make([][]tuple.Value, arity),
			Ts:     make([]int64, 0, size),
			selArr: make([]int32, 0, size),
		}
		for i := range b.Cols {
			b.Cols[i] = make([]tuple.Value, 0, size)
		}
		return b
	}
	return p
}

// Size reports the target row capacity.
func (p *ColPool) Size() int { return p.size }

// Schema reports the schema every pooled batch carries.
func (p *ColPool) Schema() *tuple.Schema { return p.schema }

// Get returns an empty batch holding one reference.
func (p *ColPool) Get() *Batch {
	b := p.pool.Get().(*Batch)
	b.pool = p
	b.refs.Store(1)
	return b
}

// put zeroes and recycles a batch whose last reference dropped.
func (p *ColPool) put(b *Batch) {
	for c := range b.Cols {
		col := b.Cols[c]
		for i := range col {
			col[i] = tuple.Value{}
		}
		b.Cols[c] = col[:0]
	}
	b.Ts = b.Ts[:0]
	b.Sel = nil
	b.Punct = nil
	p.pool.Put(b)
}

// ColSource is implemented by sources that can deliver columnar batches
// directly — e.g. a transport decoding schema-coded frames — skipping
// the row materialization a BulkSource would force. The caller owns the
// returned batch's reference. A non-nil Punct on the batch follows its
// rows (the batch may hold none). A nil batch with more=true means
// "momentarily idle"; the contract otherwise mirrors BulkSource.
type ColSource interface {
	Source
	NextColBatch(max int) (b *Batch, more bool)
}
