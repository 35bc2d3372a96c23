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

	"streamdb/internal/stream"
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
// only in contiguous sequence from 1, must emit an empty batch only as a
// completed stream's last call, and must count in Corrupt every frame it
// stops on other than an EOS. The column sink a SessionSource uses must
// deliver the same tuples from the same input.
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
		ended := map[string]bool{} // streams that got their empty end call
		var rows []*tuple.Tuple
		srv.emit = func(id string, tuples []*tuple.Tuple, _ *tuple.Arena) {
			if ended[id] {
				t.Errorf("stream %q: emit after its end call", id)
			}
			ended[id] = len(tuples) == 0
			emitted[id] += uint64(len(tuples))
			rows = append(rows, tuples...)
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
		for id, sess := range srv.sessions {
			if emitted[id] != sess.lastSeq {
				t.Errorf("stream %q: emitted %d tuples, applied up to seq %d", id, emitted[id], sess.lastSeq)
			}
			total += emitted[id]
		}
		if total != uint64(st.Frames) {
			t.Errorf("emitted %d tuples, Frames %d", total, st.Frames)
		}
		// An empty emit is a stream's completion and nothing else.
		var ends int64
		for _, e := range ended {
			if e {
				ends++
			}
		}
		if ends != st.Completed {
			t.Errorf("%d end calls, %d streams completed", ends, st.Completed)
		}
		if conn.pos < len(conn.in) && st.Corrupt == 0 && !endsWithEOS(conn.in[:conn.pos]) {
			t.Errorf("server stopped at byte %d of %d without counting a corrupt frame", conn.pos, len(conn.in))
		}

		colSrv := NewSessionServer(nil, sch, SessionConfig{IdleTimeout: -1})
		colSrv.cols = stream.NewColPool(sch, 4)
		var colRows []stream.Element
		var colEnds int64
		colSrv.emitCols = func(_ string, _ uint64, b *stream.Batch) {
			if b == nil {
				colEnds++
				return
			}
			colRows = b.AppendRows(colRows)
			b.Release()
		}
		colSrv.handle(&byteConn{in: conn.in})
		got := make([]*tuple.Tuple, len(colRows))
		for i, e := range colRows {
			got[i] = e.Tuple
		}
		if !bytes.Equal(encodeAll(got), encodeAll(rows)) {
			t.Errorf("column sink delivered %d tuples, row sink %d, or their contents differ", len(got), len(rows))
		}
		if cst := colSrv.Stats(); cst != st {
			t.Errorf("column sink stats %+v, row sink %+v", cst, st)
		}
		if colEnds != st.Completed {
			t.Errorf("%d column end calls, %d streams completed", colEnds, st.Completed)
		}
	})
}
