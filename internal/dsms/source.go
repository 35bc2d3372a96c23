package dsms

import (
	"maps"
	"math"
	"sync"
	"sync/atomic"

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
// The channel is all the queue there is: a queued frame carries its
// stream and the sequence number of its last row, a stream's completion
// is queued behind its last frame, and the channel's close is the end.
// The wire carries no punctuations, so each read applies a
// stream.Progress over the expected streams and hands its punctuation
// over on the returned batch.
type SessionSource struct {
	srv    *SessionServer
	pool   *stream.ColPool // decode targets, recycled by the engine's Release
	frames chan frame      // closed when serving ends

	mu       sync.Mutex
	err      error             // the server's result
	consumed map[string]uint64 // per stream: sequence number of the last row handed over
	late     atomic.Int64      // rows handed over at or below progress already handed out

	// Engine goroutine only: the frame a read split (or has yet to
	// take), how many of its rows have been handed over, the progress
	// rule, the last progress handed out, and a punctuation NextBatch
	// had no room for.
	head    frame
	headOff int
	prog    *stream.Progress
	mark    int64
	held    *stream.Punctuation
}

// frame is one queued frame: a stream's decoded rows ending at sequence
// number seq, or, with a nil batch, the stream's completion. The zero
// frame (no stream) is an empty head.
type frame struct {
	b   *stream.Batch
	id  string
	seq uint64
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
// behind. Each stream must arrive in timestamp order, as the partial
// records of a low-level node do: a stream's progress is its last
// row's timestamp, so a row at or below progress already handed out is
// not dropped but passed on as it came, and windowed operators
// downstream treat it as late; LateRows counts such rows.
// ConsumedSeqs starts at the server's InitialSeqs.
func NewSessionSource(srv *SessionServer, streams, queueBound int) *SessionSource {
	if queueBound <= 0 {
		queueBound = defaultFrameBound
	}
	s := &SessionSource{
		srv:      srv,
		pool:     stream.NewColPool(srv.schema, framePoolRows),
		frames:   make(chan frame, queueBound),
		consumed: make(map[string]uint64, streams),
		prog:     stream.NewProgress(streams),
		mark:     math.MinInt64,
	}
	maps.Copy(s.consumed, srv.cfg.InitialSeqs)
	go func() {
		err := srv.serveCols(streams, s.pool, func(id string, seq uint64, b *stream.Batch) {
			s.frames <- frame{b: b, id: id, seq: seq}
		})
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
// materialized as heap-owned tuples, then its punctuation. It returns
// at most max elements; a punctuation that does not fit comes first in
// the next call.
func (s *SessionSource) NextBatch(dst []stream.Element, max int) ([]stream.Element, bool) {
	if s.held == nil {
		b, more := s.NextColBatch(max)
		if b == nil {
			return dst, more
		}
		start := len(dst)
		dst = b.AppendRows(dst)
		s.held = b.Punct
		b.Release()
		if s.held == nil || len(dst)-start >= max {
			return dst, true
		}
	}
	dst = append(dst, stream.Punct(s.held))
	s.held = nil
	return dst, true
}

// NextColBatch implements stream.ColSource. It blocks until a frame is
// queued (or every stream completed), then returns at most max rows
// without further blocking: the head frame as it was decoded when it
// fits, with the frames queued behind it appended up to max, and a head
// larger than max split across reads. When the read moves the streams'
// progress, the batch carries the punctuation (and may carry no rows);
// a read that only met completions that move nothing blocks again.
func (s *SessionSource) NextColBatch(max int) (*stream.Batch, bool) {
	var out *stream.Batch
	for out == nil {
		if s.head.id == "" {
			f, ok := <-s.frames
			if !ok {
				return nil, false
			}
			s.head = f
		}
		for s.head.id != "" || s.recv() {
			f := s.head
			if f.b == nil {
				s.prog.End(f.id)
				s.head = frame{}
				continue
			}
			if out == nil && s.headOff == 0 && f.b.Rows() <= max {
				out, s.head = f.b, frame{}
				s.handedOver(f, 0, f.b.Rows())
				continue
			}
			if out == nil {
				out = s.pool.Get()
			}
			if out.Rows() >= max {
				break
			}
			s.take(out, max)
		}
		if pu := s.prog.Punct(); pu != nil {
			if out == nil {
				out = s.pool.Get()
			}
			out.Punct = pu
			s.mark = pu.Ts
		}
	}
	return out, true
}

// recv moves the next queued frame, if one is waiting, to the head.
func (s *SessionSource) recv() bool {
	select {
	case f, ok := <-s.frames:
		s.head = f
		return ok
	default:
		return false
	}
}

// take appends the head's next rows to out, up to max rows in all, and
// releases the head once every row of it has been taken.
func (s *SessionSource) take(out *stream.Batch, max int) {
	f := s.head
	hi := min(f.b.Rows(), s.headOff+max-out.Rows())
	out.AppendSpan(f.b, s.headOff, hi)
	s.handedOver(f, s.headOff, hi)
	s.headOff = hi
	if hi == f.b.Rows() {
		f.b.Release()
		s.head, s.headOff = frame{}, 0
	}
}

// handedOver notes that f's rows [lo, hi) have been handed to the
// engine: its stream's consumed sequence number, its highest timestamp
// (each stream is in timestamp order) and its late rows.
func (s *SessionSource) handedOver(f frame, lo, hi int) {
	late, mark := int64(0), s.mark
	for _, ts := range f.b.Ts[lo:hi] {
		if ts <= mark {
			late++
		}
	}
	s.late.Add(late)
	s.prog.Observe(f.id, f.b.Ts[hi-1])
	s.mu.Lock()
	s.consumed[f.id] = f.seq - uint64(f.b.Rows()-hi)
	s.mu.Unlock()
}

// ConsumedSeqs snapshots, per stream, the sequence number of the last
// row handed to the engine, starting from the server's InitialSeqs, so
// a stream that has not delivered since a restore keeps its floor. Rows
// the transport has applied but the engine has not read are not
// counted, so a checkpoint that records these (read while the engine
// is parked at its barrier) makes the session layer replay every frame
// still queued.
func (s *SessionSource) ConsumedSeqs() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.consumed)
}

// LateRows reports how many rows were handed to the engine with a
// timestamp at or below progress already handed out: rows of a stream
// that broke its timestamp order, which windows downstream see as late.
// It is safe to call from any goroutine.
func (s *SessionSource) LateRows() int64 { return s.late.Load() }

// Err reports the server's result once every stream has completed (nil
// while still serving).
func (s *SessionSource) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
