package stream

import (
	"sync"

	"streamdb/internal/tuple"
)

// This file holds the micro-batching support used by the concurrent
// execution engine: pooled element slices that amortize allocation on
// the hot path, and bulk reads for sources that can deliver many
// elements per call.

// BatchPool recycles element slices of a common target capacity through
// a sync.Pool so the batched execution path allocates O(pipeline depth)
// buffers instead of O(elements).
type BatchPool struct {
	size int
	pool sync.Pool
}

// NewBatchPool builds a pool of element slices with the given target
// capacity (minimum 1).
func NewBatchPool(size int) *BatchPool {
	if size < 1 {
		size = 1
	}
	p := &BatchPool{size: size}
	p.pool.New = func() interface{} {
		b := make([]Element, 0, size)
		return &b
	}
	return p
}

// Size reports the target batch capacity.
func (p *BatchPool) Size() int { return p.size }

// Get returns an empty batch with at least the pool's target capacity.
func (p *BatchPool) Get() []Element {
	return (*p.pool.Get().(*[]Element))[:0]
}

// Put recycles a batch. The slice is zeroed first so pooled buffers do
// not pin tuples against the garbage collector.
func (p *BatchPool) Put(b []Element) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = Element{}
	}
	b = b[:0]
	p.pool.Put(&b)
}

// BulkSource is implemented by sources that can deliver many elements in
// one call, amortizing the per-element interface dispatch of Next. The
// batched engine uses it when filling edge batches from a source.
type BulkSource interface {
	Source
	// NextBatch appends up to max elements to dst and returns the
	// extended slice. The second result is false once the source is
	// exhausted (mirroring Next); a short append with true means "more
	// later" for resumable sources.
	NextBatch(dst []Element, max int) ([]Element, bool)
}

// AppendTuples appends one element per tuple to dst: the bridge from
// batch-granular producers (e.g. a network transport decoding whole
// frames) into the element batches the engine moves.
func AppendTuples(dst []Element, tuples []*tuple.Tuple) []Element {
	for _, t := range tuples {
		dst = append(dst, Tup(t))
	}
	return dst
}

// NextBatch implements BulkSource: a slice replay can hand out its
// backing array in whole chunks.
func (s *SliceSource) NextBatch(dst []Element, max int) ([]Element, bool) {
	if s.pos >= len(s.elems) {
		return dst, false
	}
	n := len(s.elems) - s.pos
	if n > max {
		n = max
	}
	dst = append(dst, s.elems[s.pos:s.pos+n]...)
	s.pos += n
	return dst, s.pos < len(s.elems)
}

// FillBatch implements BulkSource.NextBatch for a source whose Next
// never blocks (a generator): it appends up to max elements to dst, and
// reports false once the source ends.
func FillBatch(src Source, dst []Element, max int) ([]Element, bool) {
	for ; max > 0; max-- {
		e, ok := src.Next()
		if !ok {
			return dst, false
		}
		dst = append(dst, e)
	}
	return dst, true
}
