package dsms

// Golden bytes of the session wire. A writer and server built from any
// revision must keep producing and accepting exactly these frames, so a
// deployed peer interoperates with a rebuilt one.

import (
	"bytes"
	"encoding/hex"
	"net"
	"sync"
	"testing"
	"time"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// goldenTraffic is five fixed Traffic tuples: nulls aside, every kind
// the netmon schema carries.
func goldenTraffic() []*tuple.Tuple {
	out := make([]*tuple.Tuple, 5)
	for i := range out {
		ts := int64(1_000_000_000 + i*250_000)
		proto := uint64(6)
		if i%3 == 2 {
			proto = 17
		}
		out[i] = tuple.New(ts, tuple.Time(ts), tuple.IP(0x0a000001+uint32(i%2)),
			tuple.IP(0xc0a80100+uint32(i*7)), tuple.Uint(proto), tuple.Uint(uint64(40+i*365)))
	}
	return out
}

// recordConn keeps a copy of every byte the client writes.
type recordConn struct {
	net.Conn
	mu  sync.Mutex
	out bytes.Buffer
}

func (c *recordConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(b)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *recordConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.out.Bytes()...)
}

// Client bytes for goldenTraffic, one frame a line: HELLO3 "g1", the
// BATCH frames, one heartbeat (from Flush), EOS 5.
const (
	goldenHello3 = "5703026731119a6586"
	goldenTail   = "42" + "4505"

	// WireBatch 0: one BATCH frame per Send.
	goldenWireBatch0 = goldenHello3 +
		"500101130180a8d6b9070000818080508082a0850c06285eb08c4f" +
		"5002011401a0eaf4b9070000828080508782a0850c0695034108fbf3" +
		"5003011401c0ac93ba070000818080508e82a0850c118206864eb2cd" +
		"5004011401e0eeb1ba070000828080509582a0850c06ef088175dabf" +
		"500501140180b1d0ba070000818080509c82a0850c06dc0b2f852dd8" +
		goldenTail
	// WireBatch 4: a four-tuple BATCH, then Flush frames the fifth.
	goldenWireBatch4 = goldenHello3 +
		"500104460480a8d6b9070000818080508082a0850c0628a0c21e" +
		"0000828080508782a0850c069503a0c21e0000818080508e82a0850c118206a0c21e" +
		"0000828080509582a0850c06ef087ddb33e8" +
		"500501140180b1d0ba070000818080509c82a0850c06dc0b2f852dd8" +
		goldenTail
)

func TestWireGoldenBytes(t *testing.T) {
	sch := stream.TrafficSchema("Traffic")
	for _, tc := range []struct {
		batch int
		want  string
	}{{0, goldenWireBatch0}, {4, goldenWireBatch4}} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewSessionServer(ln, sch, SessionConfig{})
		var got []*tuple.Tuple
		done := make(chan error, 1)
		go func() {
			done <- srv.Serve(1, func(_ string, tp *tuple.Tuple) { got = append(got, tp) })
		}()
		var rec *recordConn
		w, err := NewReconnectWriter(ReconnectConfig{
			StreamID: "g1",
			Dial: func() (net.Conn, error) {
				c, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					return nil, err
				}
				rec = &recordConn{Conn: c}
				return rec, nil
			},
			Schema:        sch,
			WireBatch:     tc.batch,
			FlushInterval: -1,
			Timeout:       5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		sent := goldenTraffic()
		for _, tp := range sent {
			if err := w.Send(tp); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeAll(got), encodeAll(sent)) {
			t.Errorf("batch %d: server delivered %d tuples differing from the 5 sent", tc.batch, len(got))
		}
		if h := hex.EncodeToString(rec.bytes()); h != tc.want {
			t.Errorf("batch %d: wire bytes changed\n got %s\nwant %s", tc.batch, h, tc.want)
		}
	}
}
