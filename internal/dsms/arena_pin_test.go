package dsms

// Regression coverage for the ArenaPool/queue interaction (the
// columnar-execution PR's refcount fix): under SessionConfig.ZeroCopy
// the SessionSource queue holds tuples that alias pooled decode arenas.
// Before arenas were reference counted, applyBatch returned each arena
// to the pool as soon as the sink callback returned, so any batch still
// queued — the normal state whenever the engine stalls, e.g. while a
// checkpoint barrier drains in-flight edge batches — was zeroed and
// overwritten by the next frame's decode. These tests pin that down:
// the transport may decode arbitrarily many frames while nothing
// drains, and every queued tuple must still read back byte-identical.

import (
	"bytes"
	"net"
	"testing"
	"time"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// zeroCopySource starts a ZeroCopy session server wrapped in a
// SessionSource with room for every tuple the test sends, so the
// transport never blocks on the drain the test is deliberately
// withholding.
func zeroCopySource(t *testing.T, bound int) (addr string, src *SessionSource) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := NewSessionServer(ln, sch, SessionConfig{ZeroCopy: true})
	return ln.Addr().String(), NewSessionSource(srv, 1, bound)
}

// TestZeroCopyArenaPinnedWhileQueued: send many v3 batch frames into a
// deliberately stalled consumer, forcing the server through many arena
// Get/Put cycles while every decoded batch is still queued, then drain
// and require byte-identity with what was sent.
func TestZeroCopyArenaPinnedWhileQueued(t *testing.T) {
	addr, src := zeroCopySource(t, 10000)
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:      "s1",
		Dial:          func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Schema:        sch,
		WireBatch:     16,
		FlushInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := sendAll(t, w, 2000) // 125 frames, each its own arena cycle

	// Wait for the transport to finish feeding the (undrained) queue.
	deadline := time.Now().Add(10 * time.Second)
	for {
		queued := src.q.Len()
		if queued == len(sent) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transport stalled: %d of %d queued", queued, len(sent))
		}
		time.Sleep(time.Millisecond)
	}
	src.mu.Lock()
	pinned := len(src.pins)
	src.mu.Unlock()
	if pinned == 0 {
		t.Fatal("no arenas pinned while batches are queued — zero-copy lost its refcounts")
	}

	// Only now does the "engine" resume: drain everything and compare.
	var got []*tuple.Tuple
	var out []stream.Element
	for {
		out, _ = src.NextBatch(out[:0], 64)
		if len(out) == 0 {
			break
		}
		for _, e := range out {
			got = append(got, e.Tuple)
		}
	}
	if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatalf("queued tuples corrupted: %d delivered, %d sent", len(got), len(sent))
	}
	src.mu.Lock()
	leaked := len(src.pins)
	src.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d arena pins leaked after full drain", leaked)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroCopyColBatchDrain: the same stall through the columnar lane —
// NextColBatch transposes the queued tuples into column batches (value
// copies), releasing the arena pins exactly as the row path does.
func TestZeroCopyColBatchDrain(t *testing.T) {
	addr, src := zeroCopySource(t, 10000)
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:      "s1",
		Dial:          func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Schema:        sch,
		WireBatch:     16,
		FlushInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := sendAll(t, w, 1000)

	var got []*tuple.Tuple
	for {
		b, more := src.NextColBatch(48)
		if b != nil {
			if len(b.Cols) != sch.Arity() {
				t.Fatalf("batch arity %d, want %d", len(b.Cols), sch.Arity())
			}
			for r := 0; r < b.Rows(); r++ {
				tp := tuple.New(b.Ts[r], b.Cols[0][r], b.Cols[1][r], b.Cols[2][r])
				got = append(got, tp)
			}
			b.Release()
		}
		if !more {
			break
		}
	}
	if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatalf("columnar drain corrupted tuples: %d delivered, %d sent", len(got), len(sent))
	}
	src.mu.Lock()
	leaked := len(src.pins)
	src.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d arena pins leaked after columnar drain", leaked)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
}
