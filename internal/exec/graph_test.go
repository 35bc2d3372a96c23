package exec

import (
	"sort"
	"sync/atomic"
	"testing"

	"streamdb/internal/agg"
	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

var sch = tuple.NewSchema("S",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "v", Kind: tuple.KindInt},
)

func el(ts, v int64) stream.Element {
	return stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(v)))
}

func mustSelect(t *testing.T, threshold int64) *ops.Select {
	t.Helper()
	pred, err := expr.NewBin(expr.OpGt, expr.MustColumn(sch, "v"), expr.Constant(tuple.Int(threshold)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ops.NewSelect("sel", sch, pred, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunSingleChain(t *testing.T) {
	var got []int64
	g := NewGraph(func(e stream.Element) {
		v, _ := e.Tuple.Vals[1].AsInt()
		got = append(got, v)
	})
	src := g.AddSource(stream.FromElements(sch, el(1, 5), el(2, 15), el(3, 25)))
	n := g.AddOp(mustSelect(t, 10))
	if err := g.ConnectSource(src, n, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(n); err != nil {
		t.Fatal(err)
	}
	if consumed := g.Run(-1); consumed != 3 {
		t.Errorf("consumed = %d", consumed)
	}
	if len(got) != 2 || got[0] != 15 || got[1] != 25 {
		t.Errorf("got = %v", got)
	}
	st := g.Stats(n)
	if st.In != 3 || st.Out != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRunMergesSourcesByTimestamp(t *testing.T) {
	var order []int64
	g := NewGraph(func(e stream.Element) { order = append(order, e.Ts()) })
	a := g.AddSource(stream.FromElements(sch, el(1, 1), el(5, 1), el(9, 1)))
	b := g.AddSource(stream.FromElements(sch, el(2, 1), el(3, 1), el(10, 1)))
	u := g.AddOp(ops.NewUnion("u", sch))
	if err := g.ConnectSource(a, u, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectSource(b, u, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(u); err != nil {
		t.Fatal(err)
	}
	g.Run(-1)
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Errorf("virtual-time order violated: %v", order)
	}
	if len(order) != 6 {
		t.Errorf("len = %d", len(order))
	}
}

func TestRunMaxElements(t *testing.T) {
	g := NewGraph(nil)
	src := g.AddSource(stream.Limit(stream.NewTrafficStream(1, 1000, 10), 1000))
	n := g.AddOp(ops.NewDupElim("d", stream.TrafficSchema("Traffic"), []int{1}, 0))
	if err := g.ConnectSource(src, n, 0); err != nil {
		t.Fatal(err)
	}
	if consumed := g.Run(100); consumed != 100 {
		t.Errorf("consumed = %d", consumed)
	}
}

func TestRunTwoInputJoin(t *testing.T) {
	a := tuple.NewSchema("A",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindInt},
	)
	b := tuple.NewSchema("B",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindInt},
	)
	mk := func(s *tuple.Schema, ts, k int64) stream.Element {
		return stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(k)))
	}
	j, err := ops.NewWindowJoin("j", a, b,
		ops.JoinConfig{Window: window.Tumbling(100), Method: ops.JoinHash, Key: []int{1}},
		ops.JoinConfig{Window: window.Tumbling(100), Method: ops.JoinHash, Key: []int{1}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	g := NewGraph(func(stream.Element) { count++ })
	sa := g.AddSource(stream.FromElements(a, mk(a, 1, 7), mk(a, 4, 8)))
	sb := g.AddSource(stream.FromElements(b, mk(b, 2, 7), mk(b, 3, 8), mk(b, 5, 9)))
	nj := g.AddOp(j)
	if err := g.ConnectSource(sa, nj, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectSource(sb, nj, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(nj); err != nil {
		t.Fatal(err)
	}
	g.Run(-1)
	if count != 2 {
		t.Errorf("join results = %d, want 2", count)
	}
}

func TestFlushPropagatesThroughPipeline(t *testing.T) {
	// Unbounded aggregate only emits at flush; its output must still
	// traverse a downstream operator.
	cnt, _ := agg.Lookup("count", false)
	gb, err := agg.NewGroupBy("g", sch, nil, nil,
		[]agg.Spec{{Fn: cnt, Name: "c"}}, window.Spec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	outSch := gb.OutSchema()
	pred, _ := expr.NewBin(expr.OpGt, expr.MustColumn(outSch, "c"), expr.Constant(tuple.Int(0)))
	after, _ := ops.NewSelect("after", outSch, pred, -1, 1)

	var got []stream.Element
	g := NewGraph(func(e stream.Element) { got = append(got, e) })
	src := g.AddSource(stream.FromElements(sch, el(1, 1), el(2, 2)))
	n1 := g.AddOp(gb)
	n2 := g.AddOp(after)
	if err := g.ConnectSource(src, n1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(n1, n2, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(n2); err != nil {
		t.Fatal(err)
	}
	g.Run(-1)
	if len(got) != 1 {
		t.Fatalf("got = %v", got)
	}
	if c, _ := got[0].Tuple.Vals[1].AsInt(); c != 2 {
		t.Errorf("count = %d", c)
	}
}

func TestWorkCapDropsUnderOverload(t *testing.T) {
	// A fan-out that amplifies one arrival into many pending items hits
	// the work cap.
	var got int64
	g := NewGraph(func(stream.Element) { got++ })
	src := g.AddSource(stream.FromElements(sch, el(1, 1), el(2, 2), el(3, 3)))
	n := g.AddOp(ops.NewUnion("u", sch))
	if err := g.ConnectSource(src, n, 0); err != nil {
		t.Fatal(err)
	}
	// Fan the union's output to itself-like chains: 8 parallel edges to sink.
	for i := 0; i < 8; i++ {
		if err := g.ConnectOut(n); err != nil {
			t.Fatal(err)
		}
	}
	g.SetWorkCap(4)
	g.Run(-1)
	if g.Dropped() == 0 {
		t.Error("no drops under overload")
	}
	if got+g.Dropped() != 3*8 {
		t.Errorf("got %d + dropped %d != 24", got, g.Dropped())
	}
}

func TestConnectValidation(t *testing.T) {
	g := NewGraph(nil)
	n := g.AddOp(mustSelect(t, 0))
	if err := g.ConnectSource(9, n, 0); err == nil {
		t.Error("bad source accepted")
	}
	if err := g.ConnectSource(0, n, 0); err == nil {
		t.Error("nonexistent source accepted")
	}
	src := g.AddSource(stream.FromElements(sch))
	if err := g.ConnectSource(src, NodeID(9), 0); err == nil {
		t.Error("bad node accepted")
	}
	if err := g.ConnectSource(src, n, 5); err == nil {
		t.Error("bad port accepted")
	}
	if err := g.Connect(NodeID(9), n, 0); err == nil {
		t.Error("bad from node accepted")
	}
	if err := g.ConnectOut(NodeID(9)); err == nil {
		t.Error("bad out node accepted")
	}
}

func TestRunConcurrentMatchesSequentialCounts(t *testing.T) {
	mkGraph := func(sink Sink) *Graph {
		g := NewGraph(sink)
		src := g.AddSource(stream.Limit(stream.NewTrafficStream(3, 5000, 50), 2000))
		tr := stream.TrafficSchema("Traffic")
		pred, _ := expr.NewBin(expr.OpGt, expr.MustColumn(tr, "length"), expr.Constant(tuple.Int(512)))
		sel, _ := ops.NewSelect("sel", tr, pred, -1, 1)
		n := g.AddOp(sel)
		if err := g.ConnectSource(src, n, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.ConnectOut(n); err != nil {
			t.Fatal(err)
		}
		return g
	}
	var seq int64
	mkGraph(func(stream.Element) { seq++ }).Run(-1)
	var conc int64
	mkGraph(func(stream.Element) { atomic.AddInt64(&conc, 1) }).RunConcurrent(-1, 16)
	if seq == 0 || seq != conc {
		t.Errorf("sequential %d != concurrent %d", seq, conc)
	}
}

func TestRunConcurrentJoinCompleteness(t *testing.T) {
	// Symmetric hash join over unbounded windows: result count is
	// order-insensitive, so concurrent mode must match the reference.
	a := tuple.NewSchema("A",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindInt},
	)
	b := tuple.NewSchema("B",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindInt},
	)
	var as, bs []stream.Element
	for i := int64(0); i < 200; i++ {
		as = append(as, stream.Tup(tuple.New(i, tuple.Time(i), tuple.Int(i%10))))
		bs = append(bs, stream.Tup(tuple.New(i, tuple.Time(i), tuple.Int(i%10))))
	}
	j, _ := ops.NewSymmetricHashJoin("shj", a, b, []int{1}, []int{1})
	var n int64
	g := NewGraph(func(stream.Element) { atomic.AddInt64(&n, 1) })
	sa := g.AddSource(stream.FromElements(a, as...))
	sb := g.AddSource(stream.FromElements(b, bs...))
	nj := g.AddOp(j)
	if err := g.ConnectSource(sa, nj, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectSource(sb, nj, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(nj); err != nil {
		t.Fatal(err)
	}
	g.RunConcurrent(-1, 8)
	// 200 tuples each side, 10 keys, 20 per key: 10 * 20 * 20 = 4000.
	if n != 4000 {
		t.Errorf("join results = %d, want 4000", n)
	}
}

// sizedOp forwards its input and reports a fixed MemSize, counting how
// often the engine asks.
type sizedOp struct {
	size  int
	polls int
}

func (s *sizedOp) Name() string                                { return "sized" }
func (s *sizedOp) OutSchema() *tuple.Schema                    { return sch }
func (s *sizedOp) NumInputs() int                              { return 1 }
func (s *sizedOp) MemSize() int                                { s.polls++; return s.size }
func (s *sizedOp) Push(_ int, e stream.Element, emit ops.Emit) { emit(e) }
func (s *sizedOp) Flush(ops.Emit)                              {}

func serialChain(t *testing.T, op ops.Operator, src stream.Source, sink Sink) *Graph {
	t.Helper()
	g := NewGraph(sink)
	n := g.AddOp(op)
	if err := g.ConnectSource(g.AddSource(src), n, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(n); err != nil {
		t.Fatal(err)
	}
	return g
}

// The serial loop's MemSize poll must cost O(1) per input however large
// the state: the stride grows with the size last reported, and the
// high-water mark is still recorded (exactly, after Flush).
func TestSerialLoopMemPollAmortised(t *testing.T) {
	const n = 100000
	small, big := &sizedOp{size: 100}, &sizedOp{size: 64 << 20}
	for _, op := range []*sizedOp{small, big} {
		g := serialChain(t, op, stream.FromElements(sch, elems(n)...), nil)
		g.Run(-1)
		if got := g.Stats(0).MaxMemory; got != op.size {
			t.Errorf("size %d: MaxMemory = %d", op.size, got)
		}
	}
	if small.polls < n/128 {
		t.Errorf("small state polled %d times over %d inputs: the high-water mark is undersampled", small.polls, n)
	}
	if big.polls > 3 {
		t.Errorf("64 MiB state polled %d times over %d inputs, want the first input and the post-flush sample only", big.polls, n)
	}
}

// A steady serial run allocates nothing per arrival: the peeked element
// is held by value, each node's emit is built once, and the work queue
// is reused.
func TestSerialLoopNoAllocPerArrival(t *testing.T) {
	const n = 4096
	in := elems(n)
	src := stream.FromElements(sch, in...)
	var out int
	g := serialChain(t, mustSelect(t, -1), src, func(stream.Element) { out++ })
	g.Pump(-1) // grow the queue once
	allocs := testing.AllocsPerRun(5, func() {
		src.Reset()
		g.sources[0].done = false
		g.Pump(-1)
	})
	if out != 7*n {
		t.Fatalf("sink saw %d elements, want %d", out, 7*n)
	}
	if allocs > 8 {
		t.Errorf("%v allocations per %d-element pump, want none per arrival", allocs, n)
	}
}
