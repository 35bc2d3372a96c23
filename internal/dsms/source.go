package dsms

import (
	"sync"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// SessionSource adapts a SessionServer into a stream.ColSource (and
// stream.BulkSource): the transport decodes each BATCH frame straight
// into a pooled column batch, and the batches feed exec.RunWith's
// columnar lane with no per-tuple step in between. It serves on a
// background goroutine and hands whole frames across a bounded channel;
// NextColBatch/NextBatch block until a frame arrives or every expected
// stream has completed.
//
// The channel is all the queue there is. A session source carries only
// data — no flush barrier, no punctuation, no end-of-input marker but
// the channel's close — so stream.PushSource's machinery for those has
// nothing to do here, and a frame is the unit that both ends already
// hold.
type SessionSource struct {
	srv    *SessionServer
	pool   *stream.ColPool    // decode targets, recycled by the engine's Release
	frames chan *stream.Batch // one decoded frame each; closed when serving ends

	mu  sync.Mutex
	err error // the server's result

	// Engine goroutine only: a frame a read split, and how many of its
	// rows have been handed over.
	head    *stream.Batch
	headOff int
}

// defaultFrameBound is the frame queue bound of a SessionSource built
// with queueBound <= 0. At streamd's 64-tuple frames it buffers 16384
// tuples, a few milliseconds of ingest: enough to absorb the engine's
// scheduling jitter, while a transport that outruns the engine blocks
// and pushes backpressure onto the session acks.
const defaultFrameBound = 256

// framePoolRows is the row capacity pooled frame batches start with:
// the engine's column batch size on the wire path, so coalescing frames
// into one read does not regrow the batch it hands over.
const framePoolRows = 256

// NewSessionSource starts serving `streams` sessions from srv and
// exposes the delivered tuples (all streams interleaved in arrival
// order) as a column source. queueBound caps the decoded frames
// buffered between the transport and the engine (<= 0 =
// defaultFrameBound); the transport blocks when the engine falls
// behind.
func NewSessionSource(srv *SessionServer, streams, queueBound int) *SessionSource {
	if queueBound <= 0 {
		queueBound = defaultFrameBound
	}
	s := &SessionSource{
		srv:    srv,
		pool:   stream.NewColPool(srv.schema, framePoolRows),
		frames: make(chan *stream.Batch, queueBound),
	}
	go func() {
		err := srv.serveCols(streams, s.pool, func(b *stream.Batch) { s.frames <- b })
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
		close(s.frames)
	}()
	return s
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

// NextBatch implements stream.BulkSource: NextColBatch's rows,
// materialized as heap-owned tuples.
func (s *SessionSource) NextBatch(dst []stream.Element, max int) ([]stream.Element, bool) {
	b, more := s.NextColBatch(max)
	if b != nil {
		dst = b.AppendRows(dst)
		b.Release()
	}
	return dst, more
}

// NextColBatch implements stream.ColSource. It blocks until a frame is
// queued (or every stream completed), then returns at most max rows
// without further blocking: the head frame as it was decoded when it
// fits, with the frames queued behind it appended up to max, and a
// head larger than max split across reads.
func (s *SessionSource) NextColBatch(max int) (*stream.Batch, bool) {
	if !s.fill(true) {
		return nil, false
	}
	var out *stream.Batch
	if s.headOff == 0 && s.head.Rows() <= max {
		out, s.head = s.head, nil
	} else {
		out = s.pool.Get()
		s.take(out, max)
	}
	for out.Rows() < max && s.fill(false) {
		s.take(out, max)
	}
	return out, true
}

// fill makes sure a frame is at the head, receiving one if need be —
// waiting for it when block is set — and reports whether there is one.
func (s *SessionSource) fill(block bool) bool {
	if s.head != nil {
		return true
	}
	var b *stream.Batch
	if block {
		b = <-s.frames
	} else {
		select {
		case b = <-s.frames:
		default:
		}
	}
	s.head, s.headOff = b, 0
	return b != nil
}

// take appends the head's next rows to out, up to max rows in all, and
// releases the head once every row of it has been taken.
func (s *SessionSource) take(out *stream.Batch, max int) {
	hi := min(s.head.Rows(), s.headOff+max-out.Rows())
	out.AppendSpan(s.head, s.headOff, hi)
	s.headOff = hi
	if hi == s.head.Rows() {
		s.head.Release()
		s.head = nil
	}
}

// Err reports the server's result once every stream has completed (nil
// while still serving).
func (s *SessionSource) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
