package stream

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"streamdb/internal/tuple"
)

func pushSchema() *tuple.Schema {
	return tuple.NewSchema("S", tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true})
}

func pushTup(ts int64) Element { return Tup(tuple.New(ts, tuple.Time(ts))) }

// NextBatch hands over what has accumulated — a short read, never a wait
// for max — and reports the end only once End was called and the queue
// has drained.
func TestPushSourceShortReadsAndEnd(t *testing.T) {
	p := NewPushSource(pushSchema(), 0)
	for ts := int64(0); ts < 5; ts++ {
		if err := p.Push(pushTup(ts)); err != nil {
			t.Fatal(err)
		}
	}
	out, more := p.NextBatch(nil, 3)
	if len(out) != 3 || !more {
		t.Fatalf("first read: %d elements, more=%v; want 3, true", len(out), more)
	}
	out, more = p.NextBatch(out[:0], 256)
	if len(out) != 2 || !more || out[0].Ts() != 3 {
		t.Fatalf("second read: %d elements from ts %d, more=%v; want the 2 left, true", len(out), out[0].Ts(), more)
	}
	if err := p.PushTuples([]*tuple.Tuple{tuple.New(5, tuple.Time(5)), tuple.New(6, tuple.Time(6))}); err != nil {
		t.Fatal(err)
	}
	p.End()
	if err := p.Push(pushTup(7)); !errors.Is(err, ErrEnded) {
		t.Fatalf("push after End: %v, want ErrEnded", err)
	}
	out, more = p.NextBatch(out[:0], 1)
	if len(out) != 1 || !more {
		t.Fatalf("read after End: %d elements, more=%v; want 1, true (one is still queued)", len(out), more)
	}
	out, more = p.NextBatch(out[:0], 256)
	if len(out) != 1 || more || out[0].Ts() != 6 {
		t.Fatalf("last read: %d elements, more=%v; want 1, false", len(out), more)
	}
	if e, ok := p.Next(); ok {
		t.Fatalf("Next after the end returned %v", e)
	}
}

// A producer blocks once bound elements are queued and resumes when the
// reader has freed half of them; nothing is lost or reordered across
// the stall, and the backing array does not grow with what has passed
// through.
func TestPushSourceBlocksAtBound(t *testing.T) {
	const bound, total = 64, 10000
	p := NewPushSource(pushSchema(), bound)
	var pushed atomic.Int64
	go func() {
		for ts := int64(0); ts < total; ts++ {
			if p.Push(pushTup(ts)) != nil {
				return
			}
			pushed.Add(1)
		}
		p.End()
	}()
	for pushed.Load() < bound {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // the producer's next Push is parked, or about to be
	if n := pushed.Load(); n != bound {
		t.Fatalf("producer got %d elements into a queue bounded at %d with nobody reading", n, bound)
	}
	next := int64(0)
	var buf []Element
	for more := true; more; {
		buf, more = p.NextBatch(buf[:0], 7)
		if n := p.Len(); n > bound {
			t.Fatalf("%d elements queued, bound is %d", n, bound)
		}
		for _, e := range buf {
			if e.Ts() != next {
				t.Fatalf("element %d arrived where %d was due", e.Ts(), next)
			}
			next++
		}
	}
	if next != total {
		t.Fatalf("%d elements delivered, want %d", next, total)
	}
	if c := cap(p.queue); c > 4*bound {
		t.Fatalf("queue backing array grew to %d slots behind a bound of %d", c, bound)
	}
}

// Flush waits for its own barrier to be acknowledged; Stop releases
// every waiter with the reader's failure, which then sticks.
func TestPushSourceFlushAndStop(t *testing.T) {
	p := NewPushSource(pushSchema(), 0)
	if err := p.Push(pushTup(1)); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- p.Flush() }()
	out, _ := p.NextBatch(nil, 256) // blocks until the barrier is queued behind the tuple
	for len(out) < 2 {
		out, _ = p.NextBatch(out, 256)
	}
	if !out[1].IsBarrier() || out[0].IsPunct() {
		t.Fatalf("read %v, want the tuple then a barrier", out)
	}
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned %v before its barrier was acknowledged", err)
	case <-time.After(10 * time.Millisecond):
	}
	p.FlushDone(out[1].Punct.Barrier, nil)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}

	go func() { flushed <- p.Flush() }()
	out, _ = p.NextBatch(out[:0], 256)
	if len(out) != 1 || !out[0].IsBarrier() {
		t.Fatalf("read %v, want the second barrier", out)
	}
	boom := errors.New("reader failed")
	p.Stop(boom)
	if err := <-flushed; !errors.Is(err, boom) {
		t.Fatalf("Flush released by Stop returned %v, want the reader's failure", err)
	}
	if err := p.Push(pushTup(2)); !errors.Is(err, boom) {
		t.Fatalf("Push after Stop returned %v, want the reader's failure", err)
	}
	if err := p.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush after Stop returned %v, want the reader's failure", err)
	}
}
