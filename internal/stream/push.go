package stream

import (
	"errors"
	"sync"

	"streamdb/internal/tuple"
)

// DefaultPushBound is the queue bound of a PushSource built with
// bound <= 0: sixteen of the front door's 256-element bulk reads. The
// bound is a constant because it is what stands between a producer and
// the engine whatever the feed rate: a producer that outruns the engine
// blocks here (backpressure) instead of growing a backlog, and the
// memory between the two is this many element headers and the tuples
// they point to.
const DefaultPushBound = 4096

// ErrEnded is what Push, PushTuples and Flush report once End has been
// called.
var ErrEnded = errors.New("stream: push source has ended")

// PushSource is the push-fed BulkSource: a bounded FIFO that producers
// append tuples and punctuations to and one engine goroutine drains
// through NextBatch. It is what turns a caller-driven arrival sequence
// (a standing query's Feed, a network session's decoded frames) into a
// source the batched engine can run behind for as long as the producer
// lives.
//
// NextBatch blocks while the queue is empty and then hands over
// whatever has accumulated, never waiting for max elements: a short
// read is the engine's signal to flush its open batches, so a lone
// element is processed as soon as it arrives and elements that pile up
// behind a busy engine travel together. Producers block while the
// queue holds bound elements or more.
//
// Queued tuples are held by reference until drained; a producer must
// not modify a tuple after pushing it.
type PushSource struct {
	schema *tuple.Schema
	bound  int

	mu       sync.Mutex
	nonEmpty sync.Cond // the reader waits here
	changed  sync.Cond // producers wait here: room in the queue, a flush acknowledged, the reader gone
	queue    []Element
	head     int
	waiting  int   // producers blocked on a full queue
	ended    bool  // End: drain what is queued, then report end of stream
	stopped  bool  // Stop: the reader is gone, nothing queued will be read
	err      error // the reader's failure, sticky once set
	epoch    int64 // last barrier epoch Flush issued
	acked    int64 // highest epoch FlushDone reported
}

// NewPushSource builds an empty push-fed source over schema s holding
// at most bound queued elements (<= 0 = DefaultPushBound).
func NewPushSource(s *tuple.Schema, bound int) *PushSource {
	if bound <= 0 {
		bound = DefaultPushBound
	}
	p := &PushSource{schema: s, bound: bound}
	p.nonEmpty.L = &p.mu
	p.changed.L = &p.mu
	return p
}

// admit blocks the producer while the queue is at its bound and
// reports why nothing may be appended any more, if so. Called with mu
// held.
func (p *PushSource) admit() error {
	for len(p.queue)-p.head >= p.bound && !p.ended && !p.stopped {
		p.waiting++
		p.changed.Wait()
		p.waiting--
	}
	return p.refused()
}

// refused reports why the source takes nothing more, nil while it does.
// Called with mu held.
func (p *PushSource) refused() error {
	switch {
	case p.err != nil:
		return p.err
	case p.ended || p.stopped:
		return ErrEnded
	}
	return nil
}

// Push appends one element, blocking while the queue is full. It
// returns the reader's failure once one has been reported, ErrEnded
// after End, and nil once the element is queued.
func (p *PushSource) Push(e Element) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.admit(); err != nil {
		return err
	}
	p.queue = append(p.queue, e)
	p.nonEmpty.Signal()
	return nil
}

// PushTuples appends one element per tuple in a single step — a
// decoded frame stays together, so the queue may overshoot its bound by
// one call's worth.
func (p *PushSource) PushTuples(tuples []*tuple.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.admit(); err != nil {
		return err
	}
	p.queue = AppendTuples(p.queue, tuples)
	p.nonEmpty.Signal()
	return nil
}

// Flush is the producer's barrier: it returns once every element pushed
// before it has been processed by the engine and every result that
// follows from them has been delivered to the graph's sink. It appends
// a BarrierPunct — the aligned marker every RunWith lane forwards
// around its operator — and waits for the engine's output consumer to
// report it through FlushDone; no snapshot is taken. It returns the
// reader's failure if one had happened by the time the barrier left the
// graph.
//
// A graph run with checkpointing numbers its own barriers, and
// alignment counts one barrier per source, so Flush is for graphs with
// exactly one source and no RunOptions.Checkpoint.
func (p *PushSource) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.refused(); err != nil {
		return err
	}
	p.epoch++
	epoch := p.epoch
	// A control element: it takes no room from data, so no wait at the
	// bound.
	p.queue = append(p.queue, Punct(BarrierPunct(epoch)))
	p.nonEmpty.Signal()
	for p.acked < epoch && !p.stopped {
		p.changed.Wait()
	}
	return p.err
}

// FlushDone is called by the engine when the barrier of the given epoch
// has crossed the graph output; err is the run's first failure so far.
func (p *PushSource) FlushDone(epoch int64, err error) {
	p.mu.Lock()
	if epoch > p.acked {
		p.acked = epoch
	}
	if p.err == nil {
		p.err = err
	}
	p.changed.Broadcast()
	p.mu.Unlock()
}

// End marks the end of the stream: NextBatch drains what is queued and
// then reports exhaustion. Further pushes fail with ErrEnded.
func (p *PushSource) End() {
	p.mu.Lock()
	p.ended = true
	p.nonEmpty.Signal()
	p.changed.Broadcast()
	p.mu.Unlock()
}

// Stop tells producers the reader is gone — the run that drained the
// source has returned, with err if it failed — so that nobody waits on
// a queue that will never move again.
func (p *PushSource) Stop(err error) {
	p.mu.Lock()
	p.stopped = true
	if p.err == nil {
		p.err = err
	}
	p.nonEmpty.Signal()
	p.changed.Broadcast()
	p.mu.Unlock()
}

// Schema implements Source.
func (p *PushSource) Schema() *tuple.Schema { return p.schema }

// Next implements Source.
func (p *PushSource) Next() (Element, bool) {
	var one [1]Element
	out, _ := p.NextBatch(one[:0], 1)
	if len(out) == 0 {
		return Element{}, false
	}
	return out[0], true
}

// NextBatch implements BulkSource. It blocks until at least one element
// is queued (or the stream has ended), then appends up to max queued
// elements to dst without further blocking.
func (p *PushSource) NextBatch(dst []Element, max int) ([]Element, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == p.head && !p.ended && !p.stopped {
		p.nonEmpty.Wait()
	}
	n := len(p.queue) - p.head
	if n > max {
		n = max
	}
	dst = append(dst, p.queue[p.head:p.head+n]...)
	// A drained slot must not pin its tuple against the collector.
	clear(p.queue[p.head : p.head+n])
	p.head += n
	if p.head == len(p.queue) {
		p.queue, p.head = p.queue[:0], 0
	} else if p.head >= p.bound {
		// The reader is behind and the live part sits past a bound's
		// worth of dead slots: move it down so append reuses the array.
		live := copy(p.queue, p.queue[p.head:])
		clear(p.queue[live:])
		p.queue, p.head = p.queue[:live], 0
	}
	// Blocked producers are woken once half the queue is free rather
	// than after every read: a producer faster than the engine then
	// parks once per half-queue instead of once per batch.
	if p.waiting > 0 && len(p.queue)-p.head <= p.bound/2 {
		p.changed.Broadcast()
	}
	return dst, !p.stopped && (len(p.queue) > p.head || !p.ended)
}

// Len reports the queued, undrained elements.
func (p *PushSource) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue) - p.head
}
