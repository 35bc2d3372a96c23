package dsms

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"

	"streamdb/internal/agg"
	"streamdb/internal/expr"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

var sch = tuple.NewSchema("S",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "g", Kind: tuple.KindInt},
	tuple.Field{Name: "v", Kind: tuple.KindFloat},
)

func row(ts, g int64, v float64) stream.Element {
	return stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(g), tuple.Float(v)))
}

func TestTransportRoundTrip(t *testing.T) {
	// The receiving end as a stream.Source: a SessionSource drains every
	// tuple the writer sent, and a clean EOS leaves no error behind.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	src := NewSessionSource(NewSessionServer(ln, sch, SessionConfig{}), 1, 0)
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID: "s1",
		Dial:     func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
		Schema:   sch,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := w.Send(tuple.New(i, tuple.Time(i), tuple.Int(i%5), tuple.Float(float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := stream.DrainTuples(src)
	if err := src.Err(); err != nil {
		t.Errorf("source error: %v", err)
	}
	if len(got) != 100 {
		t.Fatalf("received %d tuples", len(got))
	}
	if st := w.Stats(); st.Sent != 100 || st.Bytes == 0 {
		t.Errorf("writer stats: %+v", st)
	}
	if v, _ := got[99].Vals[2].AsFloat(); v != 99 {
		t.Errorf("payload corrupted: %v", got[99])
	}
}

func TestTransportSchemaMismatch(t *testing.T) {
	// The writer encodes against its schema, so a tuple that does not
	// fit it fails Send before anything reaches the wire.
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID: "s1",
		Dial:     func() (net.Conn, error) { return nil, net.ErrClosed },
		Schema:   sch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Send(tuple.New(1, tuple.Int(1))); err == nil { // wrong arity
		t.Error("arity mismatch not detected")
	}
	if err := w.Send(tuple.New(1, tuple.Time(1), tuple.Float(1), tuple.Float(1))); err == nil {
		t.Error("kind mismatch not detected")
	}
	if b := w.Buffered(); b != 0 {
		t.Errorf("%d mismatched tuples buffered for replay", b)
	}
}

func mkDecomposition(t *testing.T) *Decomposition {
	t.Helper()
	cnt, _ := agg.Lookup("count", false)
	sum, _ := agg.Lookup("sum", false)
	filter, _ := expr.NewBin(expr.OpGe, expr.MustColumn(sch, "v"), expr.Constant(tuple.Int(0)))
	d, err := NewDecomposition(sch, filter,
		[]expr.Expr{expr.MustColumn(sch, "g")}, []string{"g"},
		[]agg.Spec{
			{Fn: cnt, Name: "cnt"},
			{Fn: sum, Arg: expr.MustColumn(sch, "v"), Name: "total"},
		}, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDecompositionEndToEnd(t *testing.T) {
	// 3 low-level nodes partially aggregate disjoint slices; the high
	// level merges. The result must equal a direct global aggregation.
	d := mkDecomposition(t)
	high, err := d.NewHighLevel("hfta")
	if err != nil {
		t.Fatal(err)
	}
	var finals []*tuple.Tuple
	emitFinal := func(e stream.Element) { finals = append(finals, e.Tuple) }

	rng := rand.New(rand.NewSource(21))
	truth := map[int64]map[int64]float64{} // bucket -> group -> sum
	counts := map[int64]map[int64]int64{}
	var lows []*LowLevel
	for n := 0; n < 3; n++ {
		ll, err := d.NewLowLevel("lfta")
		if err != nil {
			t.Fatal(err)
		}
		lows = append(lows, ll)
	}
	for i := 0; i < 3000; i++ {
		ts := int64(i)
		g := rng.Int63n(30)
		v := rng.Float64() * 10
		node := lows[i%3]
		node.Push(row(ts, g, v), func(e stream.Element) { high.Push(0, e, emitFinal) })
		b := (ts / 1000) * 1000
		if truth[b] == nil {
			truth[b] = map[int64]float64{}
			counts[b] = map[int64]int64{}
		}
		truth[b][g] += v
		counts[b][g]++
	}
	for _, ll := range lows {
		ll.Flush(func(e stream.Element) { high.Push(0, e, emitFinal) })
		if ll.ReductionFactor() <= 1 {
			t.Errorf("no data reduction: %v", ll.ReductionFactor())
		}
	}
	high.Flush(emitFinal)

	want := 0
	for _, groups := range truth {
		want += len(groups)
	}
	if len(finals) != want {
		t.Fatalf("final rows = %d, want %d", len(finals), want)
	}
	for _, f := range finals {
		b, _ := f.Vals[0].AsTime()
		g, _ := f.Vals[1].AsInt()
		c, _ := f.Vals[2].AsInt()
		s, _ := f.Vals[3].AsFloat()
		if c != counts[b][g] || math.Abs(s-truth[b][g]) > 1e-6 {
			t.Fatalf("group %d@%d: got (%d, %v), want (%d, %v)", g, b, c, s, counts[b][g], truth[b][g])
		}
	}
}

func TestDecompositionOverTCP(t *testing.T) {
	// Full slide-55 shape: 2 low-level nodes ship partials over TCP to
	// a high-level session server.
	d := mkDecomposition(t)
	high, _ := d.NewHighLevel("hfta")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const nodes = 2
	srv := NewSessionServer(ln, d.PartialSchema(), SessionConfig{})
	var mu sync.Mutex
	var finals []*tuple.Tuple
	emitFinal := func(out stream.Element) { finals = append(finals, out.Tuple) }
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- srv.Serve(nodes, func(_ string, tp *tuple.Tuple) {
			mu.Lock()
			high.Push(0, stream.Tup(tp), emitFinal)
			mu.Unlock()
		})
	}()

	var sendWg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		sendWg.Add(1)
		go func(n int) {
			defer sendWg.Done()
			w, err := NewReconnectWriter(ReconnectConfig{
				StreamID: fmt.Sprintf("low-%d", n),
				Dial:     func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
				Schema:   d.PartialSchema(),
			})
			if err != nil {
				t.Error(err)
				return
			}
			ll, _ := d.NewLowLevel("lfta")
			var sendErr error
			emit := func(e stream.Element) {
				if sendErr == nil {
					sendErr = w.Send(e.Tuple)
				}
			}
			for i := 0; i < 500; i++ {
				ll.Push(row(int64(i), int64(i%7), 1), emit)
			}
			ll.Flush(emit)
			if sendErr == nil {
				sendErr = w.Close()
			}
			if sendErr != nil {
				t.Error(sendErr)
			}
		}(n)
	}
	sendWg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	high.Flush(emitFinal)

	// Sum of counts across finals must equal total raw tuples.
	var sum int64
	for _, f := range finals {
		c, _ := f.Vals[2].AsInt()
		sum += c
	}
	if sum != nodes*500 {
		t.Errorf("distributed count = %d, want %d", sum, nodes*500)
	}
}

func TestDecompositionValidation(t *testing.T) {
	med, _ := agg.Lookup("median", false)
	if _, err := NewDecomposition(sch, nil, nil, nil,
		[]agg.Spec{{Fn: med, Arg: expr.MustColumn(sch, "v"), Name: "m"}}, 8, 0); err == nil {
		t.Error("holistic aggregate accepted for decomposition")
	}
	if _, err := NewDecomposition(sch, expr.MustColumn(sch, "v"), nil, nil, nil, 8, 0); err == nil {
		t.Error("non-boolean filter accepted")
	}
}

func TestAdaptiveFiltersPrecisionBound(t *testing.T) {
	const sites = 5
	c, err := NewCoordinator(sites, 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	vals := make([]float64, sites)
	for step := 0; step < 10000; step++ {
		i := rng.Intn(sites)
		vals[i] += rng.NormFloat64()
		c.Update(i, vals[i])
		if step%500 == 0 {
			c.Reallocate()
		}
		// The protocol invariant: estimate within precision of truth.
		if c.Error() > c.Precision+1e-9 {
			t.Fatalf("error %v exceeds precision %v at step %d", c.Error(), c.Precision, step)
		}
	}
	if c.Messages() >= c.TotalUpdates() {
		t.Errorf("no communication saving: %d msgs for %d updates", c.Messages(), c.TotalUpdates())
	}
}

func TestAdaptiveFiltersPrecisionSweep(t *testing.T) {
	// Looser precision must send fewer messages.
	run := func(precision float64) int64 {
		c, _ := NewCoordinator(4, precision)
		rng := rand.New(rand.NewSource(7))
		vals := make([]float64, 4)
		for step := 0; step < 5000; step++ {
			i := rng.Intn(4)
			vals[i] += rng.NormFloat64()
			c.Update(i, vals[i])
			if step%250 == 0 {
				c.Reallocate()
			}
		}
		return c.Messages()
	}
	tight := run(1)
	loose := run(100)
	if loose >= tight {
		t.Errorf("loose precision sent %d >= tight %d", loose, tight)
	}
	exact := run(0)
	if exact != 5000 {
		t.Errorf("precision 0 sent %d, want every update", exact)
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(0, 1); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := NewCoordinator(2, -1); err == nil {
		t.Error("negative precision accepted")
	}
}

func TestReallocateShiftsBudget(t *testing.T) {
	c, _ := NewCoordinator(2, 10)
	// Site 0 churns; site 1 is quiet.
	v := 0.0
	for i := 0; i < 200; i++ {
		v += 3
		c.Update(0, v)
	}
	c.Update(1, 1)
	for i := 0; i < 5; i++ {
		c.Reallocate()
	}
	b := c.Bounds()
	if b[0] <= b[1] {
		t.Errorf("budget did not shift to the busy site: %v", b)
	}
	// Total budget conserved.
	if math.Abs(b[0]+b[1]-10) > 1e-9 {
		t.Errorf("budget not conserved: %v", b)
	}
}
