package dsms

// Wire protocol v3 coverage: negotiation and byte-level interop with
// v2-only peers, batch-granular replay under chaos, mid-batch resume
// dedupe, transport counters, and the BulkSource path into the batched
// execution engine.

import (
	"bufio"
	"bytes"
	"net"
	"strings"
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
	if v := w.NegotiatedWire(); v != wireV3 {
		t.Errorf("negotiated wire %d, want 3", v)
	}
	st := srv.Stats()
	if st.V3Conns == 0 || st.Batches == 0 {
		t.Errorf("server saw no v3 activity: %+v", st)
	}
	if st.Frames != 100 || st.Dupes != 0 {
		t.Errorf("server stats: %+v", st)
	}
	if ws := w.Stats(); ws.Sent != 100 || ws.Bytes == 0 {
		t.Errorf("client stats: %+v", ws)
	}
}

func TestWireV3ClientAgainstV2OnlyServerDowngrades(t *testing.T) {
	// A server that predates v3 (emulated by MaxWireVersion) drops the
	// HELLO3 connection; the client must fall back to v2 and deliver an
	// identical tuple sequence.
	addr, srv, wait := testServer(t, 1, SessionConfig{MaxWireVersion: 2})
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:      "s1",
		Dial:          func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Schema:        sch,
		WireBatch:     16,
		FlushInterval: -1,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := sendAll(t, w, 100)
	got := wait()["s1"]
	if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatalf("downgraded delivery differs: %d vs %d tuples", len(got), len(sent))
	}
	if v := w.NegotiatedWire(); v != wireV2 {
		t.Errorf("negotiated wire %d, want 2", v)
	}
	st := srv.Stats()
	if st.V3Conns != 0 || st.Batches != 0 {
		t.Errorf("v2-only server recorded v3 activity: %+v", st)
	}
	if st.Frames != 100 {
		t.Errorf("server applied %d tuples, want 100", st.Frames)
	}
}

func TestWireV2ClientAgainstV3Server(t *testing.T) {
	// The reverse direction: a client without a schema speaks plain v2
	// to a v3-capable server.
	addr, srv, wait := testServer(t, 1, SessionConfig{})
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID: "s1",
		Dial:     func() (net.Conn, error) { return net.Dial("tcp", addr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := sendAll(t, w, 100)
	got := wait()["s1"]
	if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatal("v2 client against v3 server: delivery differs")
	}
	if st := srv.Stats(); st.V3Conns != 0 || st.Batches != 0 || st.Frames != 100 {
		t.Errorf("server stats: %+v", st)
	}
}

func TestWireForcedV2StillBatchesSends(t *testing.T) {
	// WireVersion 2 with WireBatch set: the coalescing buffer still
	// amortizes locking but frames degrade to per-tuple v2 DATA.
	addr, srv, wait := testServer(t, 1, SessionConfig{})
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:      "s1",
		Dial:          func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Schema:        sch,
		WireVersion:   2,
		WireBatch:     16,
		FlushInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := sendAll(t, w, 100)
	got := wait()["s1"]
	if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatal("forced-v2 delivery differs")
	}
	if v := w.NegotiatedWire(); v != wireV2 {
		t.Errorf("negotiated wire %d, want 2", v)
	}
	if st := srv.Stats(); st.Batches != 0 || st.Frames != 100 {
		t.Errorf("server stats: %+v", st)
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
	// in order. Faults start on the second dial so the version
	// negotiation itself is clean and the whole run stays on v3.
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
	if v := w.NegotiatedWire(); v != wireV3 {
		t.Errorf("run degraded to wire v%d", v)
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

	dial := func() (net.Conn, *bufio.Writer, *bufio.Reader, uint64) {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		bw, br := bufio.NewWriter(conn), bufio.NewReader(conn)
		granted, last, err := handshake3(conn, bw, br, "s1", time.Second)
		if err != nil || granted != wireV3 {
			t.Fatalf("handshake3: granted %d, err %v", granted, err)
		}
		return conn, bw, br, last
	}
	sendBatch := func(bw *bufio.Writer, br *bufio.Reader, first uint64, batch []*tuple.Tuple) uint64 {
		t.Helper()
		payload, err := tuple.AppendEncodeBatch(nil, sch, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeBatchFrame(bw, first, uint64(len(batch)), payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.WriteByte(frameHeartbeat); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		acked, err := readSeqFrame(br, frameAck)
		if err != nil {
			t.Fatal(err)
		}
		return acked
	}

	conn, bw, br, last := dial()
	if last != 0 {
		t.Fatalf("fresh session resumed at %d", last)
	}
	if acked := sendBatch(bw, br, 1, ts[0:8]); acked != 8 {
		t.Fatalf("acked %d, want 8", acked)
	}
	conn.Close() // die mid-stream

	conn, bw, br, last = dial()
	if last != 8 {
		t.Fatalf("resume point %d, want 8", last)
	}
	// Replay a batch that starts before the resume point: seqs 5..12,
	// of which 5..8 are already applied.
	if acked := sendBatch(bw, br, 5, ts[4:12]); acked != 12 {
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

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	bw, br := bufio.NewWriter(conn), bufio.NewReader(conn)
	if _, _, err := handshake3(conn, bw, br, "s1", time.Second); err != nil {
		t.Fatal(err)
	}
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
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("server kept a gapped connection alive")
	}
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
	// Satellite coverage: Writer.Send/Reader.Next counters and
	// Reader.Close error propagation when the peer dies mid-stream, in
	// both per-tuple and batch modes.
	for _, batch := range []bool{false, true} {
		name := "pertuple"
		if batch {
			name = "batch"
		}
		t.Run(name+"/clean", func(t *testing.T) {
			client, server := pipeConn(t)
			var w *Writer
			var r *Reader
			if batch {
				w, r = NewBatchWriter(client, sch), NewBatchReader(server, sch)
			} else {
				w, r = NewWriter(client), NewReader(server, sch)
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
			if w.Sent != 40 || w.Bytes == 0 {
				t.Errorf("writer counters: Sent=%d Bytes=%d", w.Sent, w.Bytes)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got := stream.DrainTuples(r)
			if !bytes.Equal(encodeAll(got), encodeAll(ts)) {
				t.Fatalf("delivered %d tuples differ", len(got))
			}
			if r.Received != 40 {
				t.Errorf("reader Received=%d, want 40", r.Received)
			}
			if err := r.Close(); err != nil {
				t.Errorf("clean EOS reported error: %v", err)
			}
		})
		t.Run(name+"/peerdeath", func(t *testing.T) {
			client, server := pipeConn(t)
			var w *Writer
			var r *Reader
			if batch {
				w, r = NewBatchWriter(client, sch), NewBatchReader(server, sch)
			} else {
				w, r = NewWriter(client), NewReader(server, sch)
			}
			if err := w.SendBatch(mkTuples(5)); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			client.Close() // die without the EOS frame
			if got := stream.DrainTuples(r); len(got) != 5 {
				t.Fatalf("got %d tuples before death", len(got))
			}
			if err := r.Close(); err == nil {
				t.Error("mid-stream peer death reported as clean EOS")
			}
			if r.Received != 5 {
				t.Errorf("Received=%d, want 5", r.Received)
			}
		})
	}
}

func TestReaderRejectsOversizedFrame(t *testing.T) {
	// Regression: a corrupt length varint must not drive an unbounded
	// allocation; the frame is rejected against maxFramePayload.
	client, server := pipeConn(t)
	var hdr []byte
	hdr = appendUvarintBytes(hdr, maxFramePayload+1)
	if _, err := client.Write(hdr); err != nil {
		t.Fatal(err)
	}
	client.Close()
	r := NewReader(server, sch)
	if _, ok := r.Next(); ok {
		t.Fatal("oversized frame yielded a tuple")
	}
	if r.Err == nil || !strings.Contains(r.Err.Error(), "exceeds limit") {
		t.Errorf("oversized frame error: %v", r.Err)
	}
}

func appendUvarintBytes(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

func TestReconnectCountersBothWires(t *testing.T) {
	// Client counters must behave identically under v2 and v3
	// negotiation: Sent counts tuples, Bytes counts wire bytes, and the
	// v3 encoding must come in strictly smaller for the same tuples.
	run := func(v3 bool) ReconnectStats {
		streams := 1
		addr, _, wait := testServer(t, streams, SessionConfig{})
		cfg := ReconnectConfig{
			StreamID:      "s1",
			Dial:          func() (net.Conn, error) { return net.Dial("tcp", addr) },
			AckEvery:      64,
			FlushInterval: -1,
		}
		if v3 {
			cfg.Schema = sch
			cfg.WireBatch = 64
		}
		w, err := NewReconnectWriter(cfg)
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
	v2 := run(false)
	v3 := run(true)
	if v2.Sent != 256 || v3.Sent != 256 {
		t.Errorf("Sent: v2=%d v3=%d, want 256", v2.Sent, v3.Sent)
	}
	if v2.Bytes == 0 || v3.Bytes == 0 {
		t.Fatalf("Bytes not counted: v2=%d v3=%d", v2.Bytes, v3.Bytes)
	}
	if float64(v3.Bytes) > 0.7*float64(v2.Bytes) {
		t.Errorf("v3 wire bytes %d not ≥30%% below v2's %d", v3.Bytes, v2.Bytes)
	}
	t.Logf("bytes/tuple: v2=%.1f v3=%.1f", float64(v2.Bytes)/256, float64(v3.Bytes)/256)
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
