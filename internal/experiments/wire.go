package experiments

import (
	"fmt"
	"net"
	"sync"
	"time"

	"streamdb/internal/dsms"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// E21TransportWire is the wire ablation for the distributed tier: the
// same netmon tuple stream shipped low->high over loopback in
// schema-coded batch frames of increasing size. The claim under test is
// the Gigascope/GS-tool transfer argument: once both ends share the
// schema, the wire does not need to re-describe every value, and
// batching amortizes framing, locking, and checksums — so bytes/tuple
// and CPU/tuple both drop while the delivered tuple sequence stays
// byte-identical. The self-describing per-tuple encoding
// (tuple.AppendEncode) of the same tuples is the reference.
func E21TransportWire(scale Scale) *Table {
	t := &Table{
		ID:    "E21",
		Title: "wire ablation: schema-coded batch frames vs the self-describing encoding",
		Header: []string{"batch", "tuples", "bytes/tuple", "payload/tuple", "selfdesc/tuple",
			"ktuples/s", "speedup", "exact"},
	}

	n := scale.N(100000)
	sent := make([]*tuple.Tuple, 0, n)
	src := stream.Limit(stream.NewTrafficStream(7, 100000, 2000), n)
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if !e.IsPunct() {
			sent = append(sent, e.Tuple)
		}
	}
	baseline := fingerprintTuples(sent)
	perTuple := func(bytes int) float64 { return float64(bytes) / float64(len(sent)) }
	selfDesc := perTuple(len(baseline))

	sch := stream.TrafficSchema("Traffic")
	var batch1 float64
	for _, batch := range []int{1, 16, 64, 256} {
		payload := 0
		for i := 0; i < len(sent); i += batch {
			p, err := tuple.AppendEncodeBatch(nil, sch, sent[i:min(i+batch, len(sent))])
			if err != nil {
				panic(err)
			}
			payload += len(p)
		}
		elapsed, bytes, got := runWireSession(sch, sent, batch)
		secs := elapsed.Seconds() / float64(len(sent))
		if batch == 1 {
			batch1 = secs
		}
		t.AddRow(batch, len(sent), perTuple(int(bytes)), perTuple(payload), selfDesc,
			float64(len(sent))/elapsed.Seconds()/1e3,
			fmt.Sprintf("%.1fx", batch1/secs),
			string(fingerprintTuples(got)) == string(baseline))
	}
	t.Notes = append(t.Notes,
		"same loopback session protocol for every row (acks, CRCs, exactly-once); only the batch size differs",
		"bytes/tuple counts whole frames; payload/tuple the schema-coded batches alone; selfdesc/tuple the self-describing per-tuple encoding of the same tuples",
		"speedup is against batch 1; server decodes batches into pooled arenas: steady-state decode allocates nothing per tuple")
	return t
}

// runWireSession ships the tuples over one loopback session and returns
// the wall-clock send time, wire bytes written, and the delivered
// tuples.
func runWireSession(sch *tuple.Schema, sent []*tuple.Tuple, batch int) (elapsed time.Duration, bytes int64, got []*tuple.Tuple) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer ln.Close()
	srv := dsms.NewSessionServer(ln, sch, dsms.SessionConfig{
		IdleTimeout: 10 * time.Second,
	})
	var mu sync.Mutex
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- srv.Serve(1, func(_ string, tp *tuple.Tuple) {
			mu.Lock()
			got = append(got, tp)
			mu.Unlock()
		})
	}()

	w, err := dsms.NewReconnectWriter(dsms.ReconnectConfig{
		StreamID:      "e21",
		Dial:          func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
		AckEvery:      4096,
		Timeout:       10 * time.Second,
		Schema:        sch,
		WireBatch:     batch,
		FlushInterval: -1,
	})
	if err != nil {
		panic(err)
	}
	start := time.Now()
	for _, tp := range sent {
		if err := w.Send(tp); err != nil {
			panic(err)
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	elapsed = time.Since(start)
	if err := <-serveDone; err != nil {
		panic(err)
	}
	return elapsed, w.Stats().Bytes, got
}

// fingerprintTuples encodes tuples in order into one byte string.
func fingerprintTuples(ts []*tuple.Tuple) []byte {
	var fp []byte
	for _, tp := range ts {
		fp = tuple.AppendEncode(fp, tp)
	}
	return fp
}
