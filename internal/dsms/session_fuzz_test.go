package dsms

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"streamdb/internal/tuple"
)

// byteConn is a net.Conn that hands the server its input one byte per
// Read, so the bytes it has pulled are exactly the bytes the frame
// parser consumed (bufio never reads ahead), and discards the answers.
type byteConn struct {
	in  []byte
	pos int
}

func (c *byteConn) Read(b []byte) (int, error) {
	if c.pos >= len(c.in) {
		return 0, io.EOF
	}
	if len(b) == 0 {
		return 0, nil
	}
	b[0] = c.in[c.pos]
	c.pos++
	return 1, nil
}

func (c *byteConn) Write(b []byte) (int, error)      { return len(b), nil }
func (c *byteConn) Close() error                     { return nil }
func (c *byteConn) LocalAddr() net.Addr              { return nil }
func (c *byteConn) RemoteAddr() net.Addr             { return nil }
func (c *byteConn) SetDeadline(time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(time.Time) error { return nil }

// endsWithEOS reports whether the consumed input ends with an EOS frame:
// the one way besides a rejection for the server to stop reading early.
func endsWithEOS(consumed []byte) bool {
	for k := 1; k <= binary.MaxVarintLen64 && k < len(consumed); k++ {
		if consumed[len(consumed)-k-1] != frameEOS {
			continue
		}
		if _, n := binary.Uvarint(consumed[len(consumed)-k:]); n == k {
			return true
		}
	}
	return false
}

// FuzzSessionFrames attaches a stream with a valid HELLO3 and feeds the
// session server arbitrary bytes after it. The server must not panic,
// must not allocate past what the frame bounds allow, must emit tuples
// only in contiguous sequence from 1, and must count in Corrupt every
// frame it stops on other than an EOS.
func FuzzSessionFrames(f *testing.F) {
	payload := func(ts []*tuple.Tuple) []byte {
		p, err := tuple.AppendEncodeBatch(nil, sch, ts)
		if err != nil {
			f.Fatal(err)
		}
		return p
	}
	frame := func(first uint64, ts []*tuple.Tuple) []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeBatchFrame(bw, first, uint64(len(ts)), payload(ts)); err != nil {
			f.Fatal(err)
		}
		bw.Flush()
		return buf.Bytes()
	}
	ts := mkTuples(6)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add(cat(frame(1, ts[:3]), []byte{frameHeartbeat}, frame(4, ts[3:]), []byte{frameEOS, 6}))
	f.Add(cat(frame(1, ts[:4]), frame(2, ts[1:6]), []byte{frameEOS, 6}))   // mid-batch overlap
	f.Add(cat(frame(1, ts[:2]), frame(1, ts[:2]), []byte{frameHeartbeat})) // full replay
	f.Add(cat(frame(1, ts[:2]), frame(4, ts[3:])))                         // gap
	f.Add(frame(1, ts)[:20])                                               // truncated
	f.Add([]byte{frameBatch, 1, 0, 0})
	f.Add(hello3Frame(wireV3, "other"))

	hello := hello3Frame(wireV3, "f")
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewSessionServer(nil, sch, SessionConfig{IdleTimeout: -1})
		emitted := map[string]uint64{}
		srv.emit = func(id string, tuples []*tuple.Tuple, _ *tuple.Arena) {
			if len(tuples) == 0 {
				t.Error("empty emit")
			}
			emitted[id] += uint64(len(tuples))
		}
		conn := &byteConn{in: append(append([]byte(nil), hello...), data...)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.handle(conn)
		runtime.ReadMemStats(&after)

		if grown := after.TotalAlloc - before.TotalAlloc; grown > maxFramePayload+256*uint64(len(conn.in))+1<<20 {
			t.Errorf("allocated %d bytes for %d input bytes", grown, len(conn.in))
		}
		// Sequences start at 1 and every applied tuple is emitted once,
		// so a stream's emitted count is its last applied sequence.
		st := srv.Stats()
		var total uint64
		for id, seq := range srv.SessionSeqs() {
			if emitted[id] != seq {
				t.Errorf("stream %q: emitted %d tuples, applied up to seq %d", id, emitted[id], seq)
			}
			total += emitted[id]
		}
		if total != uint64(st.Frames) {
			t.Errorf("emitted %d tuples, Frames %d", total, st.Frames)
		}
		if conn.pos < len(conn.in) && st.Corrupt == 0 && !endsWithEOS(conn.in[:conn.pos]) {
			t.Errorf("server stopped at byte %d of %d without counting a corrupt frame", conn.pos, len(conn.in))
		}
	})
}
