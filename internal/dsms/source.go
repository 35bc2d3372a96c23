package dsms

import (
	"sync"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// SessionSource adapts a SessionServer into a stream.BulkSource (and
// stream.ColSource): the batch frames the transport decodes feed
// exec.RunWith's batched engine directly, with no per-tuple re-batching
// in between. It runs ServeBatches on a background goroutine and hands
// whole frame batches across a bounded queue; NextBatch/NextColBatch
// block until tuples arrive or every expected stream has completed.
//
// Under SessionConfig.ZeroCopy the queued tuples alias the server's
// pooled decode arenas. feed Retains each arena and pins it against the
// absolute position of its last element, so the server's own Put (which
// now only drops the server's reference) cannot recycle the storage
// while the batch is queued; the pin is Released once the engine has
// drained — and copied — past it.
type SessionSource struct {
	srv *SessionServer
	q   *stream.PushSource // transport -> engine queue: blocking, bound, short reads

	mu       sync.Mutex
	err      error // ServeBatches' result
	fed      int64 // elements ever queued (absolute)
	consumed int64 // elements ever drained (absolute)
	pins     []arenaPin

	// Engine goroutine only.
	scratch []stream.Element // NextColBatch's row read
	colPool *stream.ColPool  // lazily built for NextColBatch
}

// arenaPin holds one retained decode arena until every element decoded
// into it (absolute positions up to end, exclusive) has been drained.
type arenaPin struct {
	arena *tuple.Arena
	end   int64
}

// NewSessionSource starts serving `streams` sessions from srv and
// exposes the delivered tuples (all streams interleaved in arrival
// order) as a bulk source. queueBound caps buffered elements between
// the transport and the engine (0 = default 65536); the transport
// blocks when the engine falls behind, pushing backpressure onto the
// session acks.
func NewSessionSource(srv *SessionServer, streams, queueBound int) *SessionSource {
	if queueBound <= 0 {
		queueBound = 65536
	}
	s := &SessionSource{srv: srv, q: stream.NewPushSource(srv.schema, queueBound)}
	go func() {
		err := srv.ServeBatches(streams, s.feed)
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
		s.q.End()
	}()
	return s
}

// feed is the ServeBatches sink. The transport's slice is reused after
// the call, so the queue keeps element headers of its own; the tuples
// themselves are kept by reference, pinning their decode arena (when
// pooled) until the engine drains them. The pin is registered before
// the tuples are queued, so a drain can never get ahead of it.
func (s *SessionSource) feed(_ string, tuples []*tuple.Tuple, arena *tuple.Arena) {
	s.mu.Lock()
	s.fed += int64(len(tuples))
	if arena != nil && len(tuples) > 0 {
		arena.Retain()
		s.pins = append(s.pins, arenaPin{arena: arena, end: s.fed})
	}
	s.mu.Unlock()
	// The queue only refuses tuples after End, which follows the last
	// feed.
	_ = s.q.PushTuples(tuples)
}

// Schema implements stream.Source.
func (s *SessionSource) Schema() *tuple.Schema { return s.srv.schema }

// Next implements stream.Source.
func (s *SessionSource) Next() (stream.Element, bool) {
	var one [1]stream.Element
	out, _ := s.NextBatch(one[:0], 1)
	if len(out) == 0 {
		return stream.Element{}, false
	}
	return out[0], true
}

// NextBatch implements stream.BulkSource. It blocks until at least one
// element is available (or every stream completed), then drains up to
// max already-queued elements without further blocking. Arena-backed
// tuples are copied into fresh storage on the way out — the pins they
// leave behind are released here, after which the arenas may be zeroed
// and reused at any time.
func (s *SessionSource) NextBatch(dst []stream.Element, max int) ([]stream.Element, bool) {
	from := len(dst)
	dst, more := s.q.NextBatch(dst, max)
	s.drained(dst[from:], true)
	return dst, more
}

// NextColBatch implements stream.ColSource: the drained tuples
// transpose straight into a pooled column batch — value copies, so the
// arena pins release exactly as on the row path, with no row-tuple
// materialization at all.
func (s *SessionSource) NextColBatch(max int) (*stream.Batch, bool) {
	rows, more := s.q.NextBatch(s.scratch[:0], max)
	s.scratch = rows
	if len(rows) == 0 {
		return nil, more
	}
	if s.colPool == nil {
		size := max
		if size < 256 {
			size = 256
		}
		s.colPool = stream.NewColPool(s.srv.schema, size)
	}
	b := s.colPool.Get()
	for _, e := range rows {
		b.AppendRow(e.Tuple)
	}
	s.drained(rows, false)
	clear(rows)
	return b, more
}

// drained records that elems have left the queue and releases every
// arena whose last element is now behind the drain point. keep says the
// caller holds on to the tuples themselves: while any arena is pinned
// some of them may alias one, so the whole range is materialized (one
// []Tuple + one []Value allocation) before the pins go.
func (s *SessionSource) drained(elems []stream.Element, keep bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if keep && len(s.pins) > 0 {
		materialize(elems)
	}
	s.consumed += int64(len(elems))
	k := 0
	for k < len(s.pins) && s.pins[k].end <= s.consumed {
		s.pins[k].arena.Release()
		k++
	}
	if k > 0 {
		m := copy(s.pins, s.pins[k:])
		clear(s.pins[m:])
		s.pins = s.pins[:m]
	}
}

// materialize deep-copies the elements' tuples, in place, into fresh
// backing arrays shared across the batch, detaching them from any decode
// arena. String payloads share their (immutable) bytes.
func materialize(elems []stream.Element) {
	nv := 0
	for _, e := range elems {
		nv += len(e.Tuple.Vals)
	}
	tups := make([]tuple.Tuple, len(elems))
	vals := make([]tuple.Value, nv)
	for i, e := range elems {
		t := e.Tuple
		n := copy(vals, t.Vals)
		tups[i] = tuple.Tuple{Ts: t.Ts, Vals: vals[:n:n]}
		vals = vals[n:]
		elems[i] = stream.Tup(&tups[i])
	}
}

// Err reports the ServeBatches result once every stream has completed
// (nil while still serving).
func (s *SessionSource) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
