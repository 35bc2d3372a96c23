package dsms

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"testing"
	"time"

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
	// tuples apart, plus the frame being sent (one tuple on v2).
	const ackEvery = 8
	const bound = ackWindow*ackEvery + 1
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID: "s1",
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

	// A peer that says HELLO then goes silent: the server must drop it
	// on the idle timeout rather than hold the session handler forever.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hello := []byte{frameHello, 2, 's', '1'}
	hello = binary.LittleEndian.AppendUint32(hello, crc32.ChecksumIEEE([]byte("s1")))
	conn.Write(hello)
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("no HELLOACK: %v", err)
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
