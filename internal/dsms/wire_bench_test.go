package dsms

// Wire benchmarks on the netmon Traffic schema: session-protocol
// throughput and bytes/tuple at increasing batch sizes, and the
// steady-state batch decode path (which must not allocate per tuple).

import (
	"net"
	"testing"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// benchTuples materializes n Traffic tuples once per process.
func benchTuples(n int) []*tuple.Tuple {
	ts := make([]*tuple.Tuple, 0, n)
	src := stream.Limit(stream.NewTrafficStream(11, 100000, 2000), n)
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if !e.IsPunct() {
			ts = append(ts, e.Tuple)
		}
	}
	return ts
}

// BenchmarkTransportWire measures the wire the distributed tier
// actually runs: the full session protocol (HELLO3, sequencing, CRCs,
// acks every 4096 tuples) end to end over loopback TCP, one tuple per
// frame vs batched frames.
func BenchmarkTransportWire(b *testing.B) {
	run := func(b *testing.B, batch int) {
		ts := benchTuples(4096)
		addr, _, wait := benchServer(b)
		w, err := NewReconnectWriter(ReconnectConfig{
			StreamID:      "s1",
			Dial:          func() (net.Conn, error) { return net.Dial("tcp", addr) },
			Schema:        stream.TrafficSchema("Traffic"),
			WireBatch:     batch,
			FlushInterval: -1,
			AckEvery:      4096,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := w.Send(ts[i%len(ts)]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		got := wait()
		b.StopTimer()
		if got != int64(b.N) {
			b.Fatalf("server applied %d tuples, want %d", got, b.N)
		}
		b.ReportMetric(float64(w.Stats().Bytes)/float64(b.N), "bytes/tuple")
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
	}
	b.Run("batch1", func(b *testing.B) { run(b, 1) })
	b.Run("batch16", func(b *testing.B) { run(b, 16) })
	b.Run("batch64", func(b *testing.B) { run(b, 64) })
	b.Run("batch256", func(b *testing.B) { run(b, 256) })
}

// benchServer starts a counting session server; wait blocks for stream
// completion and returns the tuples applied.
func benchServer(b *testing.B) (addr string, srv *SessionServer, wait func() int64) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	srv = NewSessionServer(ln, stream.TrafficSchema("Traffic"), SessionConfig{})
	var count int64
	done := make(chan error, 1)
	go func() {
		done <- srv.ServeBatches(1, func(_ string, tuples []*tuple.Tuple, _ *tuple.Arena) {
			count += int64(len(tuples))
		})
	}()
	return ln.Addr().String(), srv, func() int64 {
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		return count
	}
}

// BenchmarkDecodeBatch isolates the pooled zero-copy decode: steady
// state must allocate nothing per tuple (ReportAllocs shows 0
// allocs/op once the arena is warm).
func BenchmarkDecodeBatch(b *testing.B) {
	sch := stream.TrafficSchema("Traffic")
	ts := benchTuples(64)
	buf, err := tuple.AppendEncodeBatch(nil, sch, ts)
	if err != nil {
		b.Fatal(err)
	}
	a := &tuple.Arena{}
	if _, _, err := tuple.DecodeBatchInto(buf, sch, a); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Reset()
		out, _, err := tuple.DecodeBatchInto(buf, sch, a)
		if err != nil || len(out) != len(ts) {
			b.Fatal("decode failed")
		}
	}
	b.ReportMetric(float64(len(ts)), "tuples/op")
}
