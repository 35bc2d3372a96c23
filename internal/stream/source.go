package stream

import (
	"sort"

	"streamdb/internal/tuple"
)

// Source produces a stream of elements. Next returns the next element and
// true, or a zero element and false when the stream ends. Unbounded
// generators never return false; finite replays do. Sources are the
// pull side of the engine: the execution layer drains them into operator
// queues according to arrival timestamps.
type Source interface {
	Schema() *tuple.Schema
	Next() (Element, bool)
}

// SliceSource replays a fixed slice of elements: the workhorse of tests
// and of trace-driven experiments.
type SliceSource struct {
	schema *tuple.Schema
	elems  []Element
	pos    int
}

// FromElements builds a finite source over the given elements.
func FromElements(s *tuple.Schema, elems ...Element) *SliceSource {
	return &SliceSource{schema: s, elems: elems}
}

// FromTuples builds a finite source over the given tuples.
func FromTuples(s *tuple.Schema, tuples ...*tuple.Tuple) *SliceSource {
	elems := make([]Element, len(tuples))
	for i, t := range tuples {
		elems[i] = Tup(t)
	}
	return &SliceSource{schema: s, elems: elems}
}

// Schema implements Source.
func (s *SliceSource) Schema() *tuple.Schema { return s.schema }

// Next implements Source.
func (s *SliceSource) Next() (Element, bool) {
	if s.pos >= len(s.elems) {
		return Element{}, false
	}
	e := s.elems[s.pos]
	s.pos++
	return e, true
}

// Reset rewinds the source for replay.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of elements.
func (s *SliceSource) Len() int { return len(s.elems) }

// FuncSource adapts a closure to Source, for generators.
type FuncSource struct {
	Sch *tuple.Schema
	Fn  func() (Element, bool)
}

// Schema implements Source.
func (f *FuncSource) Schema() *tuple.Schema { return f.Sch }

// Next implements Source.
func (f *FuncSource) Next() (Element, bool) { return f.Fn() }

// Limit caps a source at n elements. The result is a BulkSource exactly
// when src is one: capping a source must not hide from the engine that
// it can hand over many elements per call.
func Limit(src Source, n int) Source {
	l := &limited{src: src, remaining: n}
	if bulk, ok := src.(BulkSource); ok {
		return &limitedBulk{limited: l, bulk: bulk}
	}
	return l
}

type limited struct {
	src       Source
	remaining int
}

func (l *limited) Schema() *tuple.Schema { return l.src.Schema() }

func (l *limited) Next() (Element, bool) {
	if l.remaining <= 0 {
		return Element{}, false
	}
	l.remaining--
	return l.src.Next()
}

type limitedBulk struct {
	*limited
	bulk BulkSource
}

// NextBatch implements BulkSource; the cap is exact whatever max is.
func (l *limitedBulk) NextBatch(dst []Element, max int) ([]Element, bool) {
	if l.remaining <= 0 {
		return dst, false
	}
	if max > l.remaining {
		max = l.remaining
	}
	before := len(dst)
	dst, more := l.bulk.NextBatch(dst, max)
	l.remaining -= len(dst) - before
	return dst, more && l.remaining > 0
}

// Skip discards the first n elements of src: the recovery-side replay
// primitive. A checkpoint records how many elements each source had
// delivered at the barrier; rebuilding the graph over Skip(src, n)
// resumes the stream exactly after the snapshot's cut.
func Skip(src Source, n int64) Source {
	for ; n > 0; n-- {
		if _, ok := src.Next(); !ok {
			break
		}
	}
	return src
}

// Drain pulls at most limit elements from src (all if limit < 0).
func Drain(src Source, limit int) []Element {
	var out []Element
	for limit < 0 || len(out) < limit {
		e, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}

// DrainTuples pulls every tuple from a finite source, dropping
// punctuations.
func DrainTuples(src Source) []*tuple.Tuple {
	var out []*tuple.Tuple
	for {
		e, ok := src.Next()
		if !ok {
			return out
		}
		if !e.IsPunct() {
			out = append(out, e.Tuple)
		}
	}
}

// Merge produces the timestamp-ordered union of several finite sources
// (slide 13: "merging data streams"). All sources must share a schema;
// each must itself be timestamp-ordered. Ties break by source index, so
// the merge is deterministic.
func Merge(srcs ...Source) Source {
	type head struct {
		e   Element
		src int
	}
	heads := make([]*head, len(srcs))
	primed := false
	prime := func() {
		for i, s := range srcs {
			if e, ok := s.Next(); ok {
				heads[i] = &head{e: e, src: i}
			}
		}
		primed = true
	}
	var sch *tuple.Schema
	if len(srcs) > 0 {
		sch = srcs[0].Schema()
	}
	return &FuncSource{Sch: sch, Fn: func() (Element, bool) {
		if !primed {
			prime()
		}
		best := -1
		for i, h := range heads {
			if h == nil {
				continue
			}
			if best < 0 || h.e.Ts() < heads[best].e.Ts() {
				best = i
			}
		}
		if best < 0 {
			return Element{}, false
		}
		out := heads[best].e
		if e, ok := srcs[best].Next(); ok {
			heads[best] = &head{e: e, src: best}
		} else {
			heads[best] = nil
		}
		return out, true
	}}
}

// SortByTs orders elements by timestamp in place (stable), used when
// generators emit per-entity bursts that must be interleaved.
func SortByTs(elems []Element) {
	sort.SliceStable(elems, func(i, j int) bool { return elems[i].Ts() < elems[j].Ts() })
}

// Stats accumulates simple observation statistics for a stream; the
// rate-based optimizer seeds its model from these (slide 40: "rates can
// be known and/or estimated").
type Stats struct {
	Count   int64
	FirstTs int64
	LastTs  int64
	Bytes   int64
}

// Observe folds one element into the statistics.
func (s *Stats) Observe(e Element) {
	if e.IsPunct() {
		return
	}
	if s.Count == 0 {
		s.FirstTs = e.Ts()
	}
	s.Count++
	s.LastTs = e.Ts()
	s.Bytes += int64(e.Tuple.MemSize())
}

// Rate returns the observed tuple rate in tuples per second of stream
// time (timestamps are virtual nanoseconds).
func (s *Stats) Rate() float64 {
	if s.Count < 2 || s.LastTs <= s.FirstTs {
		return 0
	}
	return float64(s.Count-1) / (float64(s.LastTs-s.FirstTs) / 1e9)
}

// Tap wraps a source, folding every element into stats as it passes.
func Tap(src Source, stats *Stats) Source {
	return &FuncSource{Sch: src.Schema(), Fn: func() (Element, bool) {
		e, ok := src.Next()
		if ok {
			stats.Observe(e)
		}
		return e, ok
	}}
}

// Resumable marks sources that may yield more elements after Next has
// returned false: push-fed queues backing persistent queries.
type Resumable interface {
	Resumable() bool
}

// Queue is a push-fed source: Feed appends elements, Next pops them.
// An empty queue is not end-of-stream — it reports Resumable, so an
// execution graph will poll it again after the next Feed. This is the
// ingestion point for persistent/continuous queries (slide 19).
type Queue struct {
	schema *tuple.Schema
	elems  []Element
	head   int
}

// NewQueue builds an empty push-fed source.
func NewQueue(s *tuple.Schema) *Queue { return &Queue{schema: s} }

// Feed appends one element.
func (q *Queue) Feed(e Element) {
	// Compact the consumed prefix occasionally to bound memory.
	if q.head > 64 && q.head*2 >= len(q.elems) {
		n := copy(q.elems, q.elems[q.head:])
		q.elems = q.elems[:n]
		q.head = 0
	}
	q.elems = append(q.elems, e)
}

// Schema implements Source.
func (q *Queue) Schema() *tuple.Schema { return q.schema }

// Next implements Source.
func (q *Queue) Next() (Element, bool) {
	if q.head >= len(q.elems) {
		return Element{}, false
	}
	e := q.elems[q.head]
	q.elems[q.head] = Element{}
	q.head++
	return e, true
}

// Resumable implements Resumable.
func (q *Queue) Resumable() bool { return true }

// Pending reports queued, unconsumed elements.
func (q *Queue) Pending() int { return len(q.elems) - q.head }
