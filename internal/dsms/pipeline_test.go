package dsms

// Pipelined-ack coverage: the sender no longer waits for each heartbeat's
// answer, so these tests pin what the window, the per-connection reader
// and the timeout must still guarantee. Run with -race.

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamdb/internal/tuple"
)

// cutDialer dials addr, remembers the connections it handed out so a
// test can cut the live one, and counts reads in progress on them.
type cutDialer struct {
	addr string

	mu      sync.Mutex
	conns   []net.Conn
	refuse  bool
	reading atomic.Int32
}

type countedConn struct {
	net.Conn
	reading *atomic.Int32
}

func (c *countedConn) Read(b []byte) (int, error) {
	c.reading.Add(1)
	defer c.reading.Add(-1)
	return c.Conn.Read(b)
}

func (d *cutDialer) dial() (net.Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.refuse {
		return nil, net.ErrClosed
	}
	c, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	cc := &countedConn{Conn: c, reading: &d.reading}
	d.conns = append(d.conns, cc)
	return cc, nil
}

func (d *cutDialer) dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

func (d *cutDialer) cutLast() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.conns[len(d.conns)-1].Close()
}

func (d *cutDialer) setRefuse(v bool) {
	d.mu.Lock()
	d.refuse = v
	d.mu.Unlock()
}

// gatedServer is testServer with an emit that blocks while the gate is
// shut: a server that has stopped reading, and therefore answering.
func gatedServer(t *testing.T, cfg SessionConfig) (addr string, srv *SessionServer, open func(), wait func() []*tuple.Tuple) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = NewSessionServer(ln, sch, cfg)
	gate := make(chan struct{})
	var mu sync.Mutex
	var got []*tuple.Tuple
	done := make(chan error, 1)
	go func() {
		done <- srv.Serve(1, func(_ string, tp *tuple.Tuple) {
			<-gate
			mu.Lock()
			got = append(got, tp)
			mu.Unlock()
		})
	}()
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)
	return ln.Addr().String(), srv, open, func() []*tuple.Tuple {
		if err := <-done; err != nil {
			t.Fatalf("serve: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		return got
	}
}

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPipelineCutWithFullWindowInFlight(t *testing.T) {
	// The server stops reading, the sender runs on until the whole ack
	// window is unanswered, and then the connection is cut: the replay
	// must deliver every tuple exactly once and resend no more than the
	// window held.
	addr, _, open, wait := gatedServer(t, SessionConfig{})
	d := &cutDialer{addr: addr}
	const ackEvery = 8
	const window = ackWindow * ackEvery
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:    "s1",
		Dial:        d.dial,
		AckEvery:    ackEvery,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := mkTuples(3 * window)
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
	// The sender blocks behind the heartbeat that fills the window.
	eventually(t, "a full window in flight", func() bool { return w.Buffered() == window })
	time.Sleep(10 * time.Millisecond)
	if b := w.Buffered(); b != window {
		t.Fatalf("sender ran past the window: %d tuples unacked, want %d", b, window)
	}
	d.cutLast()
	open()
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if got := wait(); !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatalf("delivered %d tuples differ from %d sent (loss, duplicate or reorder)", len(got), len(sent))
	}
	st := w.Stats()
	if st.Reconnects == 0 {
		t.Error("the cut was not exercised: no reconnect")
	}
	if st.Resent > window+1 {
		t.Errorf("resent %d tuples, more than the window of %d", st.Resent, window)
	}
	if st.MaxBuffered > window+1 {
		t.Errorf("MaxBuffered %d exceeds the window bound %d", st.MaxBuffered, window+1)
	}
}

func TestPipelineStickyDowngradeWithFramesInFlight(t *testing.T) {
	// Batch frames pile up in the replay buffer while the link is down;
	// the server that finally answers predates v3. The buffered frames
	// are re-framed for v2, and after a later cut the writer redials
	// with the v2 HELLO straight away (the downgrade is sticky).
	addr, srv, wait := testServer(t, 1, SessionConfig{MaxWireVersion: 2})
	d := &cutDialer{addr: addr}
	d.setRefuse(true)
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:      "s1",
		Dial:          d.dial,
		Schema:        sch,
		WireBatch:     8,
		FlushInterval: -1,
		AckEvery:      8,
		MaxAttempts:   3, // two HELLO3 rejections, then the v2 HELLO
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := mkTuples(400)
	for i := 0; i < 3; i++ {
		if err := w.SendBatch(sent[i*8 : i*8+8]); err == nil {
			t.Fatal("SendBatch succeeded with the link down")
		}
	}
	if b := w.Buffered(); b != 24 {
		t.Fatalf("%d tuples buffered behind the dead link, want 24", b)
	}
	d.setRefuse(false)
	for _, tp := range sent[24:200] {
		if err := w.Send(tp); err != nil {
			t.Fatal(err)
		}
	}
	if v := w.NegotiatedWire(); v != wireV2 {
		t.Fatalf("negotiated wire %d, want 2", v)
	}
	rejected := srv.Stats().Corrupt // the HELLO3s the old server dropped
	d.cutLast()
	for _, tp := range sent[200:] {
		if err := w.Send(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := wait()["s1"]; !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatalf("downgraded delivery differs: %d vs %d tuples", len(got), len(sent))
	}
	st := srv.Stats()
	if st.V3Conns != 0 || st.Batches != 0 {
		t.Errorf("v2-only server recorded v3 activity: %+v", st)
	}
	if st.Corrupt != rejected {
		t.Errorf("writer tried HELLO3 again after the downgrade: %d rejections, was %d", st.Corrupt, rejected)
	}
	if w.Stats().Reconnects == 0 {
		t.Error("the cut was not exercised: no reconnect")
	}
}

func TestPipelineDurableFloorDoesNotStallSender(t *testing.T) {
	// A server acking only up to a checkpoint floor still answers every
	// heartbeat, so the window — which counts heartbeats, not tuples —
	// stays open however long the floor stands still; the buffer trims
	// when the floor next moves.
	var floor atomic.Uint64
	addr, _, wait := testServer(t, 1, SessionConfig{
		DurableSeq: func(string) uint64 { return floor.Load() },
	})
	const ackEvery = 8
	const n = 4 * ackWindow * ackEvery // four windows' worth of cadences
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID: "s1",
		Dial:     func() (net.Conn, error) { return net.Dial("tcp", addr) },
		AckEvery: ackEvery,
		Timeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := mkTuples(n)
	for _, tp := range sent {
		if err := w.Send(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if b := w.Buffered(); b != n {
		t.Fatalf("%d tuples buffered above a floor of 0, want all %d", b, n)
	}
	if st := w.Stats(); st.Reconnects != 0 || st.Syncs < n/ackEvery {
		t.Errorf("held floor cost reconnects or heartbeats went unanswered: %+v", st)
	}
	floor.Store(n / 2)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if b := w.Buffered(); b != n/2 {
		t.Errorf("%d tuples buffered after the floor moved to %d, want %d", b, n/2, n/2)
	}
	floor.Store(n)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := wait()["s1"]; !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatalf("delivered %d tuples differ from %d sent", len(got), len(sent))
	}
}

func TestPipelineFlushWaitsForLastAck(t *testing.T) {
	// Flush returns with everything acknowledged, not merely written:
	// right after it the replay buffer is empty, every time.
	addr, _, wait := testServer(t, 1, SessionConfig{})
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:      "s1",
		Dial:          func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Schema:        sch,
		WireBatch:     4,
		FlushInterval: -1,
		AckEvery:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := mkTuples(50 * 21)
	for round := 0; round < 50; round++ {
		for _, tp := range sent[round*21 : round*21+21] {
			if err := w.Send(tp); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if b := w.Buffered(); b != 0 {
			t.Fatalf("round %d: Flush returned with %d tuples unacknowledged", round, b)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := wait()["s1"]; !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatalf("delivered %d tuples differ from %d sent", len(got), len(sent))
	}
}

func TestPipelineCloseStopsReader(t *testing.T) {
	// Close with acks still on their way: the EOS handshake completes
	// through the reader, and no reader outlives Close.
	for round := 0; round < 20; round++ {
		addr, _, wait := testServer(t, 1, SessionConfig{})
		d := &cutDialer{addr: addr}
		w, err := NewReconnectWriter(ReconnectConfig{
			StreamID: "s1",
			Dial:     d.dial,
			AckEvery: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		sent := mkTuples(37 + round)
		for _, tp := range sent {
			if err := w.Send(tp); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if r := d.reading.Load(); r != 0 {
			t.Fatalf("round %d: %d reads still in progress after Close", round, r)
		}
		if b := w.Buffered(); b != 0 {
			t.Fatalf("round %d: %d tuples unacknowledged after Close", round, b)
		}
		if err := w.Close(); err != ErrWriterClosed {
			t.Fatalf("second Close = %v, want ErrWriterClosed", err)
		}
		if got := wait()["s1"]; !bytes.Equal(encodeAll(got), encodeAll(sent)) {
			t.Fatalf("round %d: delivered %d tuples differ from %d sent", round, len(got), len(sent))
		}
	}
}

func TestPipelineTimeoutReconnects(t *testing.T) {
	// A server that stops answering must cost a reconnect after Timeout,
	// not a sender parked behind a full window for ever.
	addr, _, open, wait := gatedServer(t, SessionConfig{})
	d := &cutDialer{addr: addr}
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:    "s1",
		Dial:        d.dial,
		AckEvery:    4,
		Timeout:     50 * time.Millisecond,
		MaxAttempts: 1000, // the stuck server also holds up the redial's handshake
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := mkTuples(4 * ackWindow * 4)
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
	eventually(t, "a redial after the ack timeout", func() bool { return d.dials() >= 2 })
	open()
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if got := wait(); !bytes.Equal(encodeAll(got), encodeAll(sent)) {
		t.Fatalf("delivered %d tuples differ from %d sent", len(got), len(sent))
	}
	if w.Stats().Reconnects == 0 {
		t.Error("no reconnect recorded")
	}
}
