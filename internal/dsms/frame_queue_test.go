package dsms

// Coverage for SessionSource's frame queue: the transport decodes each
// BATCH frame into a pooled column batch and queues the batch whole, the
// engine hands frames over as they are, coalesces the ones queued
// behind them up to its read size and splits the ones larger than it.
// A stalled engine — the normal state whenever a checkpoint barrier
// drains in-flight edge batches — must leave every queued frame intact,
// and the queue's bound must hold the transport back.

import (
	"bufio"
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// frameSource starts a session server for one stream behind a
// SessionSource whose queue holds bound frames.
func frameSource(t *testing.T, bound int) (addr string, srv *SessionServer, src *SessionSource) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv = NewSessionServer(ln, sch, SessionConfig{})
	return ln.Addr().String(), srv, NewSessionSource(srv, 1, bound)
}

// frameWriter is a writer cutting 16-tuple frames.
func frameWriter(t *testing.T, addr string) *ReconnectWriter {
	t.Helper()
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
	return w
}

// stalledSend sends 2000 tuples — 125 frames — into a source nothing
// drains, and returns once the stream has completed, so every frame has
// been decoded and queued, with the stream's completion behind them.
func stalledSend(t *testing.T) (src *SessionSource, sent []*tuple.Tuple) {
	t.Helper()
	addr, srv, src := frameSource(t, 200)
	sent = sendAll(t, frameWriter(t, addr), 2000)
	// The server queues the completion just after acknowledging it.
	eventually(t, "completion queued", func() bool { return srv.Stats().Completed == 1 })
	if st := srv.Stats(); st.Batches != 125 || len(src.frames) != 126 {
		t.Fatalf("%d frames applied, %d queued; want 125 frames and 1 completion", st.Batches, len(src.frames))
	}
	return src, sent
}

// drainCols reads src to the end through NextColBatch(max) and reports
// how many reads came back with fewer than max rows.
func drainCols(t *testing.T, src *SessionSource, max int) (got []*tuple.Tuple, short int) {
	t.Helper()
	var rows []stream.Element
	for {
		b, more := src.NextColBatch(max)
		if b != nil {
			if b.Rows() > max {
				t.Errorf("read of %d returned %d rows", max, b.Rows())
			}
			if b.Rows() < max {
				short++
			}
			rows = b.AppendRows(rows)
			b.Release()
		}
		if !more {
			break
		}
	}
	got = make([]*tuple.Tuple, len(rows))
	for i, e := range rows {
		got[i] = e.Tuple
	}
	return got, short
}

// TestFrameQueueStalledRowDrain: frames queued behind a stalled engine
// read back byte-identical through the row path, with the stream's
// progress punctuations between them.
func TestFrameQueueStalledRowDrain(t *testing.T) {
	src, sent := stalledSend(t)
	var got []*tuple.Tuple
	var out []stream.Element
	puncts := 0
	for {
		var more bool
		out, more = src.NextBatch(out[:0], 64)
		for _, e := range out {
			if e.IsPunct() {
				puncts++
				continue
			}
			got = append(got, e.Tuple)
		}
		if !more {
			break
		}
	}
	if puncts == 0 {
		t.Error("no progress punctuation on the row path")
	}
	if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatalf("queued tuples corrupted: %d delivered, %d sent", len(got), len(sent))
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFrameQueueStalledColDrain: the same stall through the columnar
// lane, at a read size that splits every 16-tuple frame and at one that
// coalesces sixteen of them. With every frame queued, only the last read
// may come back short.
func TestFrameQueueStalledColDrain(t *testing.T) {
	for _, max := range []int{7, 256} {
		src, sent := stalledSend(t)
		got, short := drainCols(t, src, max)
		if short > 1 {
			t.Errorf("max %d: %d reads came back short with frames still queued", max, short)
		}
		if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
			t.Fatalf("max %d: columnar drain corrupted tuples: %d delivered, %d sent", max, len(got), len(sent))
		}
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrameQueueBound: with the queue at its bound the transport stops
// applying frames — one more is decoded and waits to be queued — until
// the engine drains.
func TestFrameQueueBound(t *testing.T) {
	const bound = 2
	addr, srv, src := frameSource(t, bound)
	w := frameWriter(t, addr)
	sent := mkTuples(2000)
	sendErr := make(chan error, 1)
	go func() {
		for _, tp := range sent {
			if err := w.Send(tp); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- w.Close()
	}()
	eventually(t, "queue filled", func() bool { return srv.Stats().Batches == bound+1 })
	// The sender has far more than a queue's worth in flight; give the
	// transport time to run past the bound if it were going to.
	time.Sleep(50 * time.Millisecond)
	if n := srv.Stats().Batches; n != bound+1 {
		t.Fatalf("%d frames applied against a bound of %d with nothing drained", n, bound)
	}
	got, _ := drainCols(t, src, 256)
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatalf("bounded queue delivered %d tuples differing from %d sent", len(got), len(sent))
	}
	if n := srv.Stats().Batches; n != 125 {
		t.Fatalf("%d frames applied after the drain, want 125", n)
	}
}

// TestSessionSourceResumeMidBatchChaos: a hand-driven sender resumes
// with a frame straddling the server's resume point, so the server trims
// the applied prefix off the decoded columns; then, over faulty
// connections, it re-cuts its frames on every reconnect and starts each
// resend up to 8 tuples before the resume point. The engine must see
// every tuple exactly once, in order.
func TestSessionSourceResumeMidBatchChaos(t *testing.T) {
	addr, srv, src := frameSource(t, 0)
	sent := mkTuples(600)
	n := uint64(len(sent))
	got := make(chan []*tuple.Tuple, 1)
	go func() {
		out, _ := drainCols(t, src, 48)
		got <- out
	}()

	// The deterministic straddle: each connection waits for its ack
	// before closing, so nothing else is in flight when the next attaches.
	conn, bw, br, _ := rawSession(t, addr, "s1")
	if acked := sendRawBatch(t, bw, br, 1, sent[0:8]); acked != 8 {
		t.Fatalf("acked %d, want 8", acked)
	}
	conn.Close()
	conn, bw, br, last := rawSession(t, addr, "s1")
	if last != 8 {
		t.Fatalf("resume point %d, want 8", last)
	}
	if acked := sendRawBatch(t, bw, br, 5, sent[4:12]); acked != 12 {
		t.Fatalf("acked %d after the straddling frame, want 12", acked)
	}
	conn.Close()
	if st := srv.Stats(); st.Dupes != 4 || st.Frames != 12 {
		t.Fatalf("after the straddling frame: %+v, want 4 dupes of 12 frames", st)
	}

	rng := rand.New(rand.NewSource(7))
	for dial := int64(1); ; dial++ {
		if dial > 500 {
			t.Fatal("stream did not complete in 500 connections")
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// A small write buffer makes many writes per connection, each
		// a chance for a fault.
		fc := InjectFaults(c, FaultConfig{Seed: dial, DropRate: 0.05, CorruptRate: 0.03})
		bw, br := bufio.NewWriterSize(fc, 512), bufio.NewReader(fc)
		last, err := handshake(fc, bw, br, "s1", time.Second)
		if err != nil {
			fc.Close()
			continue
		}
		seq := last + 1 - uint64(rng.Intn(int(min(last, 8))+1))
		for seq <= n {
			size := min(uint64(1+rng.Intn(16)), n-seq+1)
			payload, err := tuple.AppendEncodeBatch(nil, sch, sent[seq-1:seq-1+size])
			if err != nil {
				t.Fatal(err)
			}
			if writeBatchFrame(bw, seq, size, payload) != nil {
				break
			}
			seq += size
		}
		if writeSeqFrame(bw, frameEOS, n) != nil || bw.Flush() != nil {
			fc.Close()
			continue
		}
		fc.SetReadDeadline(time.Now().Add(2 * time.Second))
		final, err := readSeqFrame(br, frameEOSAck)
		fc.Close()
		if err == nil && final == n {
			break
		}
	}

	var out []*tuple.Tuple
	select {
	case out = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("engine did not see the stream end")
	}
	if !bytes.Equal(encodeAll(out), encodeAll(sent)) {
		t.Fatalf("engine saw %d tuples differing from the %d sent", len(out), len(sent))
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Reconnects < 3 || st.Frames != int64(n) {
		t.Fatalf("server %+v: want the stream applied once over several connections", st)
	}
}
