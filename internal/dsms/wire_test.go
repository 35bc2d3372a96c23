package dsms

// Batch-frame coverage: batch-granular replay under chaos, mid-batch
// resume dedupe, frame bounds, transport counters, and the BulkSource
// path into the batched execution engine.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net"
	"sync"
	"testing"
	"time"

	"streamdb/internal/exec"
	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// sendAll drives a writer through n tuples and Close, returning the
// tuples sent.
func sendAll(t *testing.T, w *ReconnectWriter, n int) []*tuple.Tuple {
	t.Helper()
	sent := mkTuples(n)
	for _, tp := range sent {
		if err := w.Send(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sent
}

func TestWireV3RoundTrip(t *testing.T) {
	addr, srv, wait := testServer(t, 1, SessionConfig{})
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:      "s1",
		Dial:          func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Schema:        sch,
		WireBatch:     16,
		FlushInterval: -1,
		AckEvery:      64,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := sendAll(t, w, 100)
	got := wait()["s1"]
	if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatalf("v3 delivered %d tuples differing from %d sent", len(got), len(sent))
	}
	st := srv.Stats()
	if st.Batches != 7 {
		t.Errorf("server applied %d batch frames, want 7: %+v", st.Batches, st)
	}
	if st.Frames != 100 || st.Dupes != 0 {
		t.Errorf("server stats: %+v", st)
	}
	if ws := w.Stats(); ws.Sent != 100 || ws.Bytes == 0 {
		t.Errorf("client stats: %+v", ws)
	}
}

func TestWireV3SendBatchExplicit(t *testing.T) {
	addr, srv, wait := testServer(t, 1, SessionConfig{})
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID: "s1",
		Dial:     func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Schema:   sch,
		AckEvery: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := mkTuples(100)
	for i := 0; i < len(sent); i += 25 {
		if err := w.SendBatch(sent[i : i+25]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := wait()["s1"]
	if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatal("SendBatch delivery differs")
	}
	if st := srv.Stats(); st.Batches != 4 || st.Frames != 100 {
		t.Errorf("server stats: %+v", st)
	}
}

func TestWireAutoBatchTimerFlush(t *testing.T) {
	// A partially filled auto-batch must reach the wire via the flush
	// timer, not wait for WireBatch tuples that never come.
	addr, srv, wait := testServer(t, 1, SessionConfig{})
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:      "s1",
		Dial:          func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Schema:        sch,
		WireBatch:     64,
		FlushInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := mkTuples(3)
	for _, tp := range sent {
		if err := w.Send(tp); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.Buffered() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w.Buffered() != 3 {
		t.Fatalf("timer did not flush the open batch: %d buffered", w.Buffered())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := wait()["s1"]
	if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatal("timer-flushed delivery differs")
	}
	if st := srv.Stats(); st.Batches != 1 || st.Frames != 3 {
		t.Errorf("server stats: %+v", st)
	}
}

func TestWireBatchChaosExactlyOnce(t *testing.T) {
	// E17-style chaos over batched frames: drops and corruption force
	// reconnects; batch-granular replay must still deliver exactly once
	// in order. Faults start on the second dial, so the run begins on a
	// healthy connection that the test then cuts.
	addr, srv, wait := testServer(t, 1, SessionConfig{})
	var dials int
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID: "s1",
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			dials++
			if dials == 1 {
				return c, nil
			}
			return InjectFaults(c, FaultConfig{Seed: int64(dials), DropRate: 0.05, CorruptRate: 0.02}), nil
		},
		Schema:        sch,
		WireBatch:     8,
		FlushInterval: -1,
		AckEvery:      16,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    5 * time.Millisecond,
		Timeout:       2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := mkTuples(800)
	for i, tp := range sent {
		if err := w.Send(tp); err != nil {
			t.Fatal(err)
		}
		if i == 100 {
			// Cut the healthy first connection to move onto faulty ones.
			w.mu.Lock()
			if w.conn != nil {
				w.conn.Close()
			}
			w.mu.Unlock()
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := wait()["s1"]
	if len(got) != len(sent) {
		t.Fatalf("delivered %d tuples, want %d (exactly-once violated)", len(got), len(sent))
	}
	if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatal("delivered tuples differ from sent (order or content corrupted)")
	}
	ws := w.Stats()
	if ws.Reconnects == 0 {
		t.Error("no reconnects; chaos ineffective")
	}
	st := srv.Stats()
	if st.Batches == 0 {
		t.Error("no batch frames applied")
	}
	t.Logf("client: %+v; server: %+v", ws, st)
}

func TestWireResumeMidBatch(t *testing.T) {
	// Hand-crafted frames: after a resume, a replayed batch overlapping
	// the applied prefix must emit only its unseen suffix.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewSessionServer(ln, sch, SessionConfig{})
	var mu sync.Mutex
	var got []*tuple.Tuple
	done := make(chan error, 1)
	go func() {
		done <- srv.Serve(1, func(_ string, tp *tuple.Tuple) {
			mu.Lock()
			got = append(got, tp)
			mu.Unlock()
		})
	}()
	ts := mkTuples(12)

	conn, bw, br, last := rawSession(t, ln.Addr().String(), "s1")
	if last != 0 {
		t.Fatalf("fresh session resumed at %d", last)
	}
	if acked := sendRawBatch(t, bw, br, 1, ts[0:8]); acked != 8 {
		t.Fatalf("acked %d, want 8", acked)
	}
	conn.Close() // die mid-stream

	conn, bw, br, last = rawSession(t, ln.Addr().String(), "s1")
	if last != 8 {
		t.Fatalf("resume point %d, want 8", last)
	}
	// Replay a batch that starts before the resume point: seqs 5..12,
	// of which 5..8 are already applied.
	if acked := sendRawBatch(t, bw, br, 5, ts[4:12]); acked != 12 {
		t.Fatalf("acked %d, want 12", acked)
	}
	if err := writeSeqFrame(bw, frameEOS, 12); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if final, err := readSeqFrame(br, frameEOSAck); err != nil || final != 12 {
		t.Fatalf("EOSACK %d, err %v", final, err)
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(encodeAll(got), encodeAll(ts)) {
		t.Fatalf("mid-batch overlap broke exactly-once: %d tuples delivered", len(got))
	}
	st := srv.Stats()
	if st.Dupes != 4 {
		t.Errorf("dupes %d, want 4 (the overlapped prefix)", st.Dupes)
	}
	if st.Batches != 2 || st.Frames != 12 {
		t.Errorf("stats: %+v", st)
	}
}

func TestWireBatchGapForcesResume(t *testing.T) {
	// A batch frame ahead of the high-water mark means this connection
	// lost frames: the server must drop it rather than apply out of
	// order.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewSessionServer(ln, sch, SessionConfig{})
	go srv.Serve(1, nil)
	defer ln.Close()

	conn, bw, br, _ := rawSession(t, ln.Addr().String(), "s1")
	ts := mkTuples(4)
	payload, err := tuple.AppendEncodeBatch(nil, sch, ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBatchFrame(bw, 3, 4, payload); err != nil { // gap: expects 1
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	expectDropped(t, conn, br)
	if st := srv.Stats(); st.Corrupt == 0 || st.Frames != 0 {
		t.Errorf("stats after gap: %+v", st)
	}
}

func TestSessionSourceFeedsBatchedEngine(t *testing.T) {
	// The network source must feed exec.RunWith's batch path directly:
	// SessionServer -> SessionSource (BulkSource) -> Select -> sink.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewSessionServer(ln, sch, SessionConfig{})
	src := NewSessionSource(srv, 1, 0)

	var out []*tuple.Tuple
	g := exec.NewGraph(func(e stream.Element) {
		if !e.IsPunct() {
			out = append(out, e.Tuple)
		}
	})
	si := g.AddSource(src)
	pred, err := expr.NewBin(expr.OpGe, expr.MustColumn(sch, "v"), expr.Constant(tuple.Float(0)))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := ops.NewSelect("sel", sch, pred, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	id := g.AddOp(sel)
	if err := g.ConnectSource(si, id, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(id); err != nil {
		t.Fatal(err)
	}
	runDone := make(chan struct{})
	go func() {
		g.RunWith(-1, exec.RunOptions{BatchSize: 32})
		close(runDone)
	}()

	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:      "s1",
		Dial:          func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
		Schema:        sch,
		WireBatch:     16,
		FlushInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := sendAll(t, w, 300)
	select {
	case <-runDone:
	case <-time.After(10 * time.Second):
		t.Fatal("engine did not finish after all streams completed")
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAll(out), encodeAll(sent)) {
		t.Fatalf("engine saw %d tuples differing from %d sent", len(out), len(sent))
	}
}

func TestTransportCountersAndPeerDeath(t *testing.T) {
	// Writer counters and the receiving source's end state, one tuple
	// per frame and batched: a clean Close completes the stream, a
	// writer whose connection dies without EOS leaves it unfinished.
	for _, batch := range []int{1, 16} {
		name := "pertuple"
		if batch > 1 {
			name = "batch"
		}
		t.Run(name+"/clean", func(t *testing.T) {
			ln, srv, src := sourceServer(t)
			w, err := NewReconnectWriter(ReconnectConfig{
				StreamID:      "s1",
				Dial:          func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
				Schema:        sch,
				WireBatch:     batch,
				FlushInterval: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := mkTuples(40)
			if err := w.SendBatch(ts[:30]); err != nil {
				t.Fatal(err)
			}
			for _, tp := range ts[30:] {
				if err := w.Send(tp); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if st := w.Stats(); st.Sent != 40 || st.Bytes == 0 {
				t.Errorf("writer counters: %+v", st)
			}
			got := stream.DrainTuples(src)
			if !bytes.Equal(encodeAll(got), encodeAll(ts)) {
				t.Fatalf("delivered %d tuples differ", len(got))
			}
			if err := src.Err(); err != nil {
				t.Errorf("clean EOS reported error: %v", err)
			}
			if st := srv.Stats(); st.Frames != 40 || st.Completed != 1 {
				t.Errorf("server stats: %+v", st)
			}
		})
		t.Run(name+"/peerdeath", func(t *testing.T) {
			ln, srv, src := sourceServer(t)
			d := &cutDialer{addr: ln.Addr().String()}
			w, err := NewReconnectWriter(ReconnectConfig{
				StreamID:      "s1",
				Dial:          d.dial,
				Schema:        sch,
				WireBatch:     batch,
				FlushInterval: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.SendBatch(mkTuples(5)); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			d.cutLast() // die without the EOS frame
			ln.Close()
			if got := stream.DrainTuples(src); len(got) != 5 {
				t.Fatalf("got %d tuples before death", len(got))
			}
			if err := src.Err(); err == nil {
				t.Error("mid-stream peer death reported as clean EOS")
			}
			if st := srv.Stats(); st.Frames != 5 || st.Completed != 0 {
				t.Errorf("server stats: %+v", st)
			}
		})
	}
}

func TestReaderRejectsOversizedFrame(t *testing.T) {
	// Regression: a corrupt length or count varint must not drive an
	// unbounded allocation, and a peer speaking an older wire must not
	// attach. Each frame drops the connection, counts as corrupt and
	// emits nothing.
	batch := func(count, ln uint64) []byte {
		b := binary.AppendUvarint([]byte{frameBatch}, 1)
		b = binary.AppendUvarint(b, count)
		return binary.AppendUvarint(b, ln)
	}
	longID := string(bytes.Repeat([]byte{'x'}, maxStreamID+1))
	v2Hello := binary.LittleEndian.AppendUint32([]byte{'H', 2, 's', '1'}, crc32.ChecksumIEEE([]byte("s1")))
	for _, tc := range []struct {
		name     string
		attached bool // send a valid HELLO3 first
		frame    []byte
	}{
		{"batch-length", true, batch(1, maxFramePayload+1)},
		{"batch-count-zero", true, batch(0, 1)},
		{"batch-count-over", true, batch(maxBatchTuples+1, 1)},
		{"hello3-long-id", false, hello3Frame(wireV3, longID)},
		{"hello3-old-version", false, hello3Frame(2, "s1")},
		{"hello3-other-version", false, hello3Frame(4, "s1")},
		{"v2-hello", false, v2Hello},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, srv, src := sourceServer(t)
			var conn net.Conn
			var br *bufio.Reader
			if tc.attached {
				conn, _, br, _ = rawSession(t, ln.Addr().String(), "s1")
			} else {
				c, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				conn, br = c, bufio.NewReader(c)
			}
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			expectDropped(t, conn, br)
			ln.Close()
			if got := stream.DrainTuples(src); len(got) != 0 {
				t.Errorf("rejected frame yielded %d tuples", len(got))
			}
			if st := srv.Stats(); st.Corrupt != 1 || st.Frames != 0 {
				t.Errorf("stats: %+v", st)
			}
		})
	}
}

func TestReconnectCountersBothWires(t *testing.T) {
	// Client counters must behave the same for one tuple per frame and
	// for batched frames: Sent counts tuples, Bytes counts wire bytes,
	// and batching must come in well below per-tuple framing for the
	// same tuples.
	run := func(batch int) ReconnectStats {
		addr, _, wait := testServer(t, 1, SessionConfig{})
		w, err := NewReconnectWriter(ReconnectConfig{
			StreamID:      "s1",
			Dial:          func() (net.Conn, error) { return net.Dial("tcp", addr) },
			Schema:        sch,
			WireBatch:     batch,
			AckEvery:      64,
			FlushInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		sent := sendAll(t, w, 256)
		got := wait()["s1"]
		if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
			t.Fatal("delivery differs")
		}
		return w.Stats()
	}
	one := run(1)
	batched := run(64)
	if one.Sent != 256 || batched.Sent != 256 {
		t.Errorf("Sent: batch1=%d batch64=%d, want 256", one.Sent, batched.Sent)
	}
	if one.Bytes == 0 || batched.Bytes == 0 {
		t.Fatalf("Bytes not counted: batch1=%d batch64=%d", one.Bytes, batched.Bytes)
	}
	if float64(batched.Bytes) > 0.7*float64(one.Bytes) {
		t.Errorf("batch-64 wire bytes %d not ≥30%% below batch-1's %d", batched.Bytes, one.Bytes)
	}
	t.Logf("bytes/tuple: batch1=%.1f batch64=%.1f", float64(one.Bytes)/256, float64(batched.Bytes)/256)
}

func TestWireBatchReplayBufferBounded(t *testing.T) {
	// The replay-buffer bound holds at tuple granularity when frames are
	// batched: a window of unanswered heartbeats plus one batch.
	addr, _, wait := testServer(t, 1, SessionConfig{})
	const ackEvery = 32
	const wireBatch = 8
	const bound = ackWindow*ackEvery + wireBatch
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:      "s1",
		Dial:          func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Schema:        sch,
		WireBatch:     wireBatch,
		FlushInterval: -1,
		AckEvery:      ackEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range mkTuples(20 * bound) {
		if err := w.Send(tp); err != nil {
			t.Fatal(err)
		}
		if b := w.Buffered(); b > bound {
			t.Fatalf("replay buffer %d tuples exceeds bound %d", b, bound)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	if mb := w.Stats().MaxBuffered; mb > bound {
		t.Errorf("MaxBuffered %d exceeds bound %d", mb, bound)
	}
}
