package dsms

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// testServer starts a SessionServer collecting delivered tuples per
// stream; returns the listener address, a waiter for Serve, and the
// collected map.
func testServer(t *testing.T, streams int, cfg SessionConfig) (addr string, srv *SessionServer, wait func() map[string][]*tuple.Tuple) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = NewSessionServer(ln, sch, cfg)
	var mu sync.Mutex
	got := map[string][]*tuple.Tuple{}
	done := make(chan error, 1)
	go func() {
		done <- srv.Serve(streams, func(id string, tp *tuple.Tuple) {
			mu.Lock()
			got[id] = append(got[id], tp)
			mu.Unlock()
		})
	}()
	return ln.Addr().String(), srv, func() map[string][]*tuple.Tuple {
		if err := <-done; err != nil {
			t.Fatalf("serve: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		return got
	}
}

// sourceServer starts a SessionServer behind a SessionSource, the
// receiving end as a stream.Source; close the listener to end a stream
// that never completes.
func sourceServer(t *testing.T) (ln net.Listener, srv *SessionServer, src *SessionSource) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv = NewSessionServer(ln, sch, SessionConfig{})
	return ln, srv, NewSessionSource(srv, 1, 0)
}

// hello3Frame is the raw HELLO3 frame asking for version ver.
func hello3Frame(ver uint64, id string) []byte {
	b := binary.AppendUvarint([]byte{frameHello3}, ver)
	b = binary.AppendUvarint(b, uint64(len(id)))
	b = append(b, id...)
	return binary.LittleEndian.AppendUint32(b, hello3CRC(ver, []byte(id)))
}

// rawSession attaches stream id over a hand-driven connection and
// returns the server's resume point.
func rawSession(t *testing.T, addr, id string) (conn net.Conn, bw *bufio.Writer, br *bufio.Reader, last uint64) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	bw, br = bufio.NewWriter(conn), bufio.NewReader(conn)
	last, err = handshake(conn, bw, br, id, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return conn, bw, br, last
}

// readSeqFrame reads the expected control frame type and its uvarint.
func readSeqFrame(r *bufio.Reader, want byte) (uint64, error) {
	typ, err := r.ReadByte()
	if err != nil {
		return 0, err
	}
	if typ != want {
		return 0, fmt.Errorf("expected frame %q, got %q", want, typ)
	}
	return binary.ReadUvarint(r)
}

// sendRawBatch writes one BATCH frame plus a heartbeat and returns the
// server's cumulative ack.
func sendRawBatch(t *testing.T, bw *bufio.Writer, br *bufio.Reader, first uint64, batch []*tuple.Tuple) uint64 {
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

// expectDropped waits for the server to close conn.
func expectDropped(t *testing.T, conn net.Conn, br *bufio.Reader) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("server answered instead of dropping the connection")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept the connection open")
	}
}

func mkTuples(n int) []*tuple.Tuple {
	out := make([]*tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.New(int64(i), tuple.Time(int64(i)), tuple.Int(int64(i%7)), tuple.Float(float64(i)))
	}
	return out
}

// encodeAll is the byte-identity fingerprint of a tuple sequence.
func encodeAll(ts []*tuple.Tuple) []byte {
	var buf []byte
	for _, t := range ts {
		buf = tuple.AppendEncode(buf, t)
	}
	return buf
}

func TestSessionBasicRoundTrip(t *testing.T) {
	addr, srv, wait := testServer(t, 1, SessionConfig{})
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID: "s1",
		Schema:   sch,
		Dial:     func() (net.Conn, error) { return net.Dial("tcp", addr) },
		AckEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := mkTuples(100)
	for _, tp := range sent {
		if err := w.Send(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := wait()["s1"]
	if len(got) != 100 {
		t.Fatalf("delivered %d tuples, want 100", len(got))
	}
	if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Error("delivered tuples differ from sent")
	}
	st := srv.Stats()
	if st.Dupes != 0 || st.Reconnects != 0 || st.Completed != 1 {
		t.Errorf("server stats: %+v", st)
	}
	if w.Buffered() != 0 {
		t.Errorf("replay buffer not drained: %d", w.Buffered())
	}
}

func TestSessionResumeAfterDrops(t *testing.T) {
	addr, srv, wait := testServer(t, 1, SessionConfig{})
	var dials int
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID: "s1",
		Schema:   sch,
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			dials++
			return InjectFaults(c, FaultConfig{Seed: int64(dials), DropRate: 0.05}), nil
		},
		AckEvery:    8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := mkTuples(500)
	for _, tp := range sent {
		if err := w.Send(tp); err != nil {
			t.Fatal(err)
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
		t.Error("delivered tuples differ from sent (order or content corrupted)")
	}
	ws := w.Stats()
	if ws.Reconnects == 0 {
		t.Error("no reconnects happened; fault injection ineffective")
	}
	if srv.Stats().Reconnects == 0 {
		t.Error("server saw no resumes")
	}
	t.Logf("client: %+v; server: %+v", ws, srv.Stats())
}

func TestSessionResumeAfterCorruptionAndPartials(t *testing.T) {
	addr, _, wait := testServer(t, 1, SessionConfig{})
	var dials int
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID: "s1",
		Schema:   sch,
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			dials++
			return InjectFaults(c, FaultConfig{
				Seed: int64(100 + dials), CorruptRate: 0.03, PartialRate: 0.02,
			}), nil
		},
		AckEvery:    8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := mkTuples(400)
	for _, tp := range sent {
		if err := w.Send(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := wait()["s1"]
	if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatalf("delivered %d tuples differing from %d sent", len(got), len(sent))
	}
}

func TestSessionMultiStream(t *testing.T) {
	const streams = 3
	addr, _, wait := testServer(t, streams, SessionConfig{})
	var wg sync.WaitGroup
	sent := make([][]*tuple.Tuple, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var dials int
			w, err := NewReconnectWriter(ReconnectConfig{
				StreamID: fmt.Sprintf("s%d", i),
				Schema:   sch,
				Dial: func() (net.Conn, error) {
					c, err := net.Dial("tcp", addr)
					if err != nil {
						return nil, err
					}
					dials++
					return InjectFaults(c, FaultConfig{Seed: int64(i*1000 + dials), DropRate: 0.04}), nil
				},
				AckEvery:    8,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  5 * time.Millisecond,
				Timeout:     2 * time.Second,
				Seed:        int64(i + 1),
			})
			if err != nil {
				t.Error(err)
				return
			}
			sent[i] = mkTuples(200 + 50*i)
			for _, tp := range sent[i] {
				if err := w.Send(tp); err != nil {
					t.Error(err)
					return
				}
			}
			if err := w.Close(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	got := wait()
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("s%d", i)
		if !bytes.Equal(encodeAll(got[id]), encodeAll(sent[i])) {
			t.Errorf("stream %s: delivered %d tuples differ from %d sent", id, len(got[id]), len(sent[i]))
		}
	}
}

func TestSessionReplayBufferBounded(t *testing.T) {
	addr, _, wait := testServer(t, 1, SessionConfig{})
	// The documented bound: a window of unanswered heartbeats, AckEvery
	// tuples apart, plus the frame being sent (one tuple per Send).
	const ackEvery = 8
	const bound = ackWindow*ackEvery + 1
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID: "s1",
		Schema:   sch,
		Dial:     func() (net.Conn, error) { return net.Dial("tcp", addr) },
		AckEvery: ackEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range mkTuples(20 * bound) {
		if err := w.Send(tp); err != nil {
			t.Fatal(err)
		}
		if b := w.Buffered(); b > bound {
			t.Fatalf("replay buffer %d exceeds bound %d", b, bound)
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

func TestSessionIdleTimeoutDetectsDeadPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewSessionServer(ln, sch, SessionConfig{IdleTimeout: 50 * time.Millisecond})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(1, nil) }()

	// A peer that says HELLO3 then goes silent: the server must drop it
	// on the idle timeout rather than hold the session handler forever.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(hello3Frame(wireV3, "s1"))
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("no HELLO3ACK: %v", err)
	}
	// The server should close the connection after the idle timeout.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected connection close on idle timeout")
	}
	if time.Since(start) > time.Second {
		t.Fatal("idle timeout did not fire promptly")
	}

	// The session must still be resumable: finish it properly.
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID: "s1",
		Schema:   sch,
		Dial:     func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Send(mkTuples(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if srv.Stats().Completed != 1 {
		t.Errorf("stats: %+v", srv.Stats())
	}
}

func TestSessionWriterGivesUpWhenServerGone(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:    "s1",
		Schema:      sch,
		Dial:        func() (net.Conn, error) { return net.Dial("tcp", addr) },
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Send(mkTuples(1)[0]); err == nil {
		t.Fatal("Send succeeded with no server")
	}
}

func TestFaultConnDeterministic(t *testing.T) {
	// The same seed must yield the same fault schedule.
	run := func() (writes, drops int64) {
		srvLn, _ := net.Listen("tcp", "127.0.0.1:0")
		defer srvLn.Close()
		go func() {
			for {
				c, err := srvLn.Accept()
				if err != nil {
					return
				}
				go func(c net.Conn) {
					buf := make([]byte, 4096)
					for {
						if _, err := c.Read(buf); err != nil {
							c.Close()
							return
						}
					}
				}(c)
			}
		}()
		conn, _ := net.Dial("tcp", srvLn.Addr().String())
		fc := InjectFaults(conn, FaultConfig{Seed: 42, DropRate: 0.2})
		payload := bytes.Repeat([]byte{7}, 64)
		for i := 0; i < 50; i++ {
			if _, err := fc.Write(payload); err != nil {
				break
			}
		}
		st := fc.Stats()
		return st.Writes, st.Drops
	}
	w1, d1 := run()
	w2, d2 := run()
	if w1 != w2 || d1 != d2 {
		t.Errorf("fault schedule not deterministic: (%d,%d) vs (%d,%d)", w1, d1, w2, d2)
	}
	if d1 == 0 {
		t.Error("no drops injected at 20% rate over 50 writes")
	}
}

func TestReconnectWriterConcurrentSend(t *testing.T) {
	// The session writer must serialize concurrent Sends correctly:
	// every tuple delivered exactly once (in some order). Run with -race.
	addr, _, wait := testServer(t, 1, SessionConfig{})
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID: "s1",
		Dial:     func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Schema:   sch,
		AckEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 4, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := w.Send(tuple.New(int64(i), tuple.Time(int64(i)), tuple.Int(int64(g)), tuple.Float(float64(i)))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := wait()["s1"]; len(got) != goroutines*per {
		t.Errorf("delivered %d, want %d", len(got), goroutines*per)
	}
}

func TestWriterConcurrentSendClose(t *testing.T) {
	// Concurrent Send and Close must be race-free: a Send that loses the
	// race fails with ErrWriterClosed, and every Send that won it is
	// delivered by Close's EOS handshake. Run with -race.
	addr, _, wait := testServer(t, 1, SessionConfig{})
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:      "s1",
		Dial:          func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Schema:        sch,
		WireBatch:     8,
		FlushInterval: -1,
		AckEvery:      16,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				err := w.Send(tuple.New(int64(i), tuple.Time(int64(i)), tuple.Int(int64(g)), tuple.Float(0)))
				if errors.Is(err, ErrWriterClosed) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Close(); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if got, sent := len(wait()["s1"]), w.Stats().Sent; int64(got) != sent {
		t.Errorf("delivered %d tuples, writer accepted %d", got, sent)
	}
}

func TestReaderCleanEOSHasNoError(t *testing.T) {
	// Only an acknowledged EOS completes a stream: the source then ends
	// with no error.
	ln, srv, src := sourceServer(t)
	_, bw, br, _ := rawSession(t, ln.Addr().String(), "s1")
	if acked := sendRawBatch(t, bw, br, 1, mkTuples(1)); acked != 1 {
		t.Fatalf("acked %d, want 1", acked)
	}
	if err := writeSeqFrame(bw, frameEOS, 1); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if final, err := readSeqFrame(br, frameEOSAck); err != nil || final != 1 {
		t.Fatalf("EOSACK %d, err %v", final, err)
	}
	if got := stream.DrainTuples(src); len(got) != 1 {
		t.Fatalf("got %d tuples", len(got))
	}
	if err := src.Err(); err != nil {
		t.Errorf("clean EOS reported error: %v", err)
	}
	if st := srv.Stats(); st.Completed != 1 || st.Corrupt != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestReaderBareEOFIsTruncation(t *testing.T) {
	// A peer that dies without EOS leaves its session open for a resume;
	// a server shut down before the resume reports the stream as
	// unfinished, never as clean completion.
	ln, srv, src := sourceServer(t)
	conn, bw, br, _ := rawSession(t, ln.Addr().String(), "s1")
	if acked := sendRawBatch(t, bw, br, 1, mkTuples(1)); acked != 1 {
		t.Fatalf("acked %d, want 1", acked)
	}
	conn.Close() // die without the EOS frame
	ln.Close()
	if got := stream.DrainTuples(src); len(got) != 1 {
		t.Fatalf("got %d tuples", len(got))
	}
	if err := src.Err(); err == nil {
		t.Error("mid-stream connection loss reported as clean EOS")
	}
	if st := srv.Stats(); st.Completed != 0 || st.Frames != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestReaderTruncatedFrameBody(t *testing.T) {
	// A BATCH whose header promises 100 payload bytes but delivers 3
	// before the connection is cut must not emit anything.
	ln, srv, src := sourceServer(t)
	conn, _, _, _ := rawSession(t, ln.Addr().String(), "s1")
	conn.Write([]byte{frameBatch, 1, 1, 100, 1, 2, 3})
	conn.Close()
	eventually(t, "the truncated frame counted as corrupt", func() bool { return srv.Stats().Corrupt == 1 })
	ln.Close()
	if got := stream.DrainTuples(src); len(got) != 0 {
		t.Fatalf("truncated frame yielded %d tuples", len(got))
	}
	if src.Err() == nil {
		t.Error("truncated frame body reported as clean EOS")
	}
}

func TestReaderCorruptVarintHeader(t *testing.T) {
	// An over-long uvarint (11 continuation bytes) is invalid: the server
	// counts the frame corrupt and drops the connection.
	ln, srv, _ := sourceServer(t)
	conn, _, br, _ := rawSession(t, ln.Addr().String(), "s1")
	conn.Write([]byte{frameBatch, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})
	expectDropped(t, conn, br)
	if st := srv.Stats(); st.Corrupt != 1 || st.Frames != 0 {
		t.Errorf("stats after corrupt header: %+v", st)
	}
}

func TestReaderSchemaMismatchSurfacesThroughClose(t *testing.T) {
	// A batch coded against another schema passes its CRC but fails the
	// server's decode: nothing is emitted, the frame counts as corrupt,
	// and the source reports the unfinished stream once serving stops.
	ln, srv, src := sourceServer(t)
	conn, bw, br, _ := rawSession(t, ln.Addr().String(), "s1")
	other := tuple.NewSchema("O", tuple.Field{Name: "a", Kind: tuple.KindInt})
	payload, err := tuple.AppendEncodeBatch(nil, other, []*tuple.Tuple{tuple.New(1, tuple.Int(1))})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBatchFrame(bw, 1, 1, payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	expectDropped(t, conn, br)
	ln.Close()
	if got := stream.DrainTuples(src); len(got) != 0 {
		t.Fatalf("mismatched batch yielded %d tuples", len(got))
	}
	if src.Err() == nil {
		t.Error("schema mismatch not surfaced via Err")
	}
	if st := srv.Stats(); st.Corrupt != 1 {
		t.Errorf("stats: %+v", st)
	}
}
