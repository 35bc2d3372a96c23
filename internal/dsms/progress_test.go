package dsms

// Coverage for SessionSource's progress: the wire carries no
// punctuations, so the source applies stream.Progress over the expected
// streams once per read and attaches the punctuation to the batch the
// read returns. The tests queue frames from two streams in a fixed order
// — every send waits until the server has queued its frames — and read
// while nothing more is in flight.

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// twoStreams starts a session source expecting streams "a" and "b".
// send ships the tuples with timestamps [from, to) on one stream and
// returns once the server has queued them; end completes a stream and
// returns once its completion is queued.
func twoStreams(t *testing.T) (src *SessionSource, send func(id string, from, to int64), end func(id string)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := NewSessionServer(ln, sch, SessionConfig{})
	src = NewSessionSource(srv, 2, 0)
	writers := map[string]*ReconnectWriter{}
	for _, id := range []string{"a", "b"} {
		w, err := NewReconnectWriter(ReconnectConfig{
			StreamID:      id,
			Dial:          func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
			Schema:        sch,
			WireBatch:     4,
			FlushInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		writers[id] = w
	}
	send = func(id string, from, to int64) {
		w := writers[id]
		for ts := from; ts < to; ts++ {
			if err := w.Send(tuple.New(ts, tuple.Time(ts), tuple.Int(0), tuple.Float(0))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ended := int64(0)
	end = func(id string) {
		if err := writers[id].Close(); err != nil {
			t.Fatal(err)
		}
		// The server queues the completion just after acknowledging it.
		ended++
		eventually(t, "completion queued", func() bool { return srv.Stats().Completed == ended })
	}
	return src, send, end
}

// readCols takes one column read and returns its row count and
// punctuation (-1 when none).
func readCols(t *testing.T, src *SessionSource, max int) (rows int, punct int64) {
	t.Helper()
	b, more := src.NextColBatch(max)
	if !more || b == nil {
		t.Fatalf("read returned %v, more=%v", b, more)
	}
	defer b.Release()
	if b.Punct == nil {
		return b.Rows(), -1
	}
	return b.Rows(), b.Punct.Ts
}

// TestSourceProgressWaitsForEveryStream: one stream's rows alone move
// nothing; once the other has delivered, progress is the smaller of the
// two streams' highest timestamps, minus 1.
func TestSourceProgressWaitsForEveryStream(t *testing.T) {
	src, send, _ := twoStreams(t)
	send("a", 0, 40)
	if rows, pu := readCols(t, src, 1000); rows != 40 || pu != -1 {
		t.Fatalf("read %d rows with progress %d; want 40 rows and none before b delivers", rows, pu)
	}
	send("b", 0, 8)
	if rows, pu := readCols(t, src, 1000); rows != 8 || pu != 6 {
		t.Fatalf("read %d rows with progress %d; want 8 rows and progress 6", rows, pu)
	}
	send("b", 8, 100)
	if rows, pu := readCols(t, src, 1000); rows != 92 || pu != 38 {
		t.Fatalf("read %d rows with progress %d; want 92 rows and progress 38, held back by a", rows, pu)
	}
}

// TestSourceCountsLateRows: a row at or below the progress already
// handed out is counted, and still reaches the engine as it was sent.
func TestSourceCountsLateRows(t *testing.T) {
	src, send, _ := twoStreams(t)
	send("a", 0, 40)
	send("b", 0, 8)
	if rows, pu := readCols(t, src, 1000); rows != 48 || pu != 6 {
		t.Fatalf("read %d rows with progress %d; want 48 rows and progress 6", rows, pu)
	}
	if n := src.LateRows(); n != 0 {
		t.Fatalf("%d late rows before any stream broke its order", n)
	}
	send("b", 2, 3) // below progress 6
	send("b", 6, 8) // at progress 6, then above it
	var ts []int64
	for len(ts) < 3 {
		b, more := src.NextColBatch(1000)
		if !more {
			t.Fatal("source ended early")
		}
		for r := 0; r < b.Rows(); r++ {
			if v := b.Cols[0][r]; !v.Equal(tuple.Time(b.Ts[r])) {
				t.Fatalf("row %d: time field %v, timestamp %d", r, v, b.Ts[r])
			}
		}
		ts = append(ts, b.Ts...)
		b.Release()
	}
	if len(ts) != 3 || ts[0] != 2 || ts[1] != 6 || ts[2] != 7 {
		t.Fatalf("rows at %v, want [2 6 7]", ts)
	}
	if n := src.LateRows(); n != 2 {
		t.Fatalf("%d late rows, want 2 (at 2 and 6)", n)
	}
}

// TestNewHighNodeRejectsNoStreams: a node that expects no stream would
// serve forever, so building one is an error.
func TestNewHighNodeRejectsNoStreams(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	pass, err := ops.NewSelect("pass", sch, expr.Constant(tuple.Bool(true)), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, streams := range []int{0, -1} {
		if h, err := NewHighNode(ln, sch, pass, func(stream.Element) {}, HighConfig{Streams: streams}); err == nil {
			t.Errorf("Streams %d: built a node (%v), want an error", streams, h)
		}
	}
}

// TestHighNodeReportsLateRows: HighNode.LateRows reports the source's
// count: one row sent behind progress the engine has already read is
// one late row, and it still reaches the sink.
func TestHighNodeReportsLateRows(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	pass, err := ops.NewSelect("pass", sch, expr.Constant(tuple.Bool(true)), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rows atomic.Int64
	h, err := NewHighNode(ln, sch, pass, func(e stream.Element) {
		if !e.IsPunct() {
			rows.Add(1)
		}
	}, HighConfig{Streams: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- h.Run(-1) }()
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID:      "a",
		Dial:          func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
		Schema:        sch,
		FlushInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	send := func(ts int64) {
		if err := w.Send(tuple.New(ts, tuple.Time(ts), tuple.Int(0), tuple.Float(0))); err != nil {
			t.Fatal(err)
		}
	}
	for ts := int64(0); ts < 10; ts++ {
		send(ts)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// The engine has read the first ten rows, and so progress 9, once
	// their sequence numbers count as consumed.
	for deadline := time.Now().Add(10 * time.Second); h.src.ConsumedSeqs()["a"] < 10; {
		if time.Now().After(deadline) {
			t.Fatal("the engine never read the first frame")
		}
		time.Sleep(time.Millisecond)
	}
	send(3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := h.LateRows(); n != 1 {
		t.Fatalf("%d late rows, want 1", n)
	}
	if n := rows.Load(); n != 11 {
		t.Fatalf("%d rows reached the sink, want 11", n)
	}
}

// TestSourceProgressCompletionReleases: a completed stream leaves the
// minimum, and the read that meets its completion carries the progress
// it releases, rows or none.
func TestSourceProgressCompletionReleases(t *testing.T) {
	src, send, end := twoStreams(t)
	send("b", 0, 8)
	send("a", 0, 40)
	if rows, pu := readCols(t, src, 1000); rows != 48 || pu != 6 {
		t.Fatalf("read %d rows with progress %d; want 48 rows and progress 6", rows, pu)
	}
	end("b")
	if rows, pu := readCols(t, src, 1000); rows != 0 || pu != 38 {
		t.Fatalf("read %d rows with progress %d; want b's completion to release progress 38", rows, pu)
	}
	send("a", 40, 60)
	if rows, pu := readCols(t, src, 1000); rows != 20 || pu != 58 {
		t.Fatalf("read %d rows with progress %d; want 20 rows and progress 58, b no longer holding it", rows, pu)
	}
	// Every stream completed: no progress, the consumer's final flush
	// closes the rest, and the read meeting the last completion is the
	// end.
	end("a")
	if b, more := src.NextColBatch(1000); b != nil || more {
		t.Fatalf("read meeting the last completion returned %v, more=%v; want the end", b, more)
	}
}

// interleaved queues a script of both streams, ending them, in a fixed
// order.
func interleaved(send func(string, int64, int64), end func(string)) {
	for ts := int64(0); ts < 120; ts += 12 {
		send("a", ts, ts+12)
		send("b", ts/2, ts/2+6)
	}
	end("a")
	send("b", 60, 130)
	end("b")
}

// drainRows reads src to the end through NextBatch(max), failing any
// read that returns more than max elements.
func drainRows(t *testing.T, src *SessionSource, max int) []stream.Element {
	t.Helper()
	var all []stream.Element
	for {
		out, more := src.NextBatch(nil, max)
		if len(out) > max {
			t.Fatalf("NextBatch(%d) returned %d elements", max, len(out))
		}
		all = append(all, out...)
		if !more {
			return all
		}
	}
}

// TestSourceProgressFollowsRows: no row after a punctuation is one it
// covers, and every row arrives exactly once.
func TestSourceProgressFollowsRows(t *testing.T) {
	src, send, end := twoStreams(t)
	interleaved(send, end)
	mark, rows, puncts := int64(-1), 0, 0
	for _, e := range drainRows(t, src, 16) {
		if e.IsPunct() {
			if e.Punct.Ts <= mark {
				t.Fatalf("progress %d after %d", e.Punct.Ts, mark)
			}
			mark = e.Punct.Ts
			puncts++
			continue
		}
		if e.Tuple.Ts <= mark {
			t.Fatalf("row at %d after progress %d", e.Tuple.Ts, mark)
		}
		rows++
	}
	if rows != 120+60+70 || puncts < 5 {
		t.Fatalf("%d rows and %d punctuations; want 250 rows and several punctuations", rows, puncts)
	}
}

// TestSourceProgressReadBounds: NextBatch and Next return at most max
// elements, and a punctuation a full read has no room for comes first in
// the next one: the row path hands over exactly the column path's rows
// with each read's punctuation behind them.
func TestSourceProgressReadBounds(t *testing.T) {
	for _, max := range []int{1, 5} {
		colSrc, send, end := twoStreams(t)
		interleaved(send, end)
		var want []stream.Element
		full := 0 // reads with max rows and a punctuation
		for {
			b, more := colSrc.NextColBatch(max)
			if b != nil {
				if b.Rows() > max {
					t.Fatalf("NextColBatch(%d) returned %d rows", max, b.Rows())
				}
				want = b.AppendRows(want)
				if b.Punct != nil {
					want = append(want, stream.Punct(b.Punct))
					if b.Rows() == max {
						full++
					}
				}
				b.Release()
			}
			if !more {
				break
			}
		}

		if full == 0 {
			t.Fatalf("max %d: no full read carried a punctuation", max)
		}

		rowSrc, send, end := twoStreams(t)
		interleaved(send, end)
		var got []stream.Element
		if max == 1 {
			for {
				e, ok := rowSrc.Next()
				if !ok {
					break
				}
				got = append(got, e)
			}
		} else {
			got = drainRows(t, rowSrc, max)
		}

		if len(got) != len(want) {
			t.Fatalf("max %d: row path %d elements, column path %d", max, len(got), len(want))
		}
		for i := range want {
			switch {
			case want[i].IsPunct() != got[i].IsPunct():
				t.Fatalf("max %d: element %d punctuation %v, want %v", max, i, got[i].IsPunct(), want[i].IsPunct())
			case want[i].IsPunct() && got[i].Punct.Ts != want[i].Punct.Ts:
				t.Fatalf("max %d: element %d progress %d, want %d", max, i, got[i].Punct.Ts, want[i].Punct.Ts)
			case !want[i].IsPunct() && !bytes.Equal(tuple.AppendEncode(nil, got[i].Tuple), tuple.AppendEncode(nil, want[i].Tuple)):
				t.Fatalf("max %d: element %d = %v, want %v", max, i, got[i].Tuple.Vals, want[i].Tuple.Vals)
			}
		}
	}
}
