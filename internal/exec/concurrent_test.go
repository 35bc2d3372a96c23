package exec

// Tests for the batched concurrent engine: batching must be
// semantically invisible (exact output equality with the
// element-at-a-time run), punctuation must never overtake or lag data
// across batch-flush boundaries, panic isolation must survive batching
// and replication, and the sink contract (serialized by default,
// sharded on request) must hold under the race detector.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"streamdb/internal/agg"
	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// pipelineOutputs runs a Select -> Project chain over the given elements
// with the given options and returns the rendered output sequence.
func pipelineOutputs(t *testing.T, elems []stream.Element, opts RunOptions) []string {
	t.Helper()
	var got []string
	g := NewGraph(func(e stream.Element) { got = append(got, e.String()) })
	src := g.AddSource(stream.FromElements(sch, elems...))
	sel := g.AddOp(mustSelect(t, 10))
	outSch := tuple.NewSchema("P",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "v2", Kind: tuple.KindInt},
	)
	dbl, err := expr.NewBin(expr.OpMul, expr.MustColumn(sch, "v"), expr.Constant(tuple.Int(2)))
	if err != nil {
		t.Fatal(err)
	}
	proj, err := ops.NewProject("proj", outSch, []expr.Expr{expr.MustColumn(sch, "time"), dbl})
	if err != nil {
		t.Fatal(err)
	}
	pr := g.AddOp(proj)
	if err := g.ConnectSource(src, sel, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(sel, pr, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(pr); err != nil {
		t.Fatal(err)
	}
	g.RunWith(-1, opts)
	return got
}

func TestBatchedMatchesUnbatchedExactOrder(t *testing.T) {
	var elems []stream.Element
	for i := int64(0); i < 1000; i++ {
		elems = append(elems, el(i, i%40))
		if i%100 == 99 {
			elems = append(elems, stream.Punct(stream.ProgressPunct(i, 0, tuple.Time(i))))
		}
	}
	base := pipelineOutputs(t, elems, RunOptions{BatchSize: 1})
	if len(base) == 0 {
		t.Fatal("baseline produced nothing")
	}
	for _, cfg := range []RunOptions{
		{BatchSize: 7},
		{BatchSize: 64},
		{BatchSize: 256},
		{BatchSize: 64, Parallelism: 4, ForceParallelism: true},
		{BatchSize: 1, Parallelism: 2, ForceParallelism: true},
	} {
		got := pipelineOutputs(t, elems, cfg)
		if len(got) != len(base) {
			t.Fatalf("%+v: %d outputs, want %d", cfg, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("%+v: output %d = %s, want %s (order not restored)", cfg, i, got[i], base[i])
			}
		}
	}
}

// punctCheckOp verifies the batching invariant from the punctuation
// side: when a punctuation arrives, every tuple it covers that the
// source emitted before it must already have been seen — i.e. no data
// is held back in an upstream batch buffer while its covering
// punctuation advances.
type punctCheckOp struct {
	expectAt map[int64]int64 // punct ts -> tuples with Ts <= ts preceding it
	seen     int64
	errs     []string
}

func (p *punctCheckOp) Name() string             { return "punctcheck" }
func (p *punctCheckOp) OutSchema() *tuple.Schema { return sch }
func (p *punctCheckOp) NumInputs() int           { return 1 }
func (p *punctCheckOp) MemSize() int             { return 0 }
func (p *punctCheckOp) Flush(ops.Emit)           {}
func (p *punctCheckOp) Push(_ int, e stream.Element, emit ops.Emit) {
	if e.IsPunct() {
		want, ok := p.expectAt[e.Punct.Ts]
		if ok && p.seen < want {
			p.errs = append(p.errs, fmt.Sprintf(
				"punct@%d observed only %d of %d covered tuples", e.Punct.Ts, p.seen, want))
		}
		emit(e)
		return
	}
	p.seen++
	emit(e)
}

func TestPunctuationNeverOvertakesBatchedData(t *testing.T) {
	var elems []stream.Element
	expect := map[int64]int64{}
	var count int64
	for i := int64(0); i < 500; i++ {
		elems = append(elems, el(i, i))
		count++
		if i%37 == 36 { // punctuation lands mid-batch for every tested size
			elems = append(elems, stream.Punct(stream.ProgressPunct(i, 0, tuple.Time(i))))
			expect[i] = count
		}
	}
	for _, bs := range []int{1, 4, 64, 1000} {
		check := &punctCheckOp{expectAt: expect}
		g := NewGraph(nil)
		src := g.AddSource(stream.FromElements(sch, elems...))
		pass := g.AddOp(mustSelect(t, -1)) // upstream stage so batches cross an edge
		chk := g.AddOp(check)
		if err := g.ConnectSource(src, pass, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(pass, chk, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.ConnectOut(chk); err != nil {
			t.Fatal(err)
		}
		g.RunWith(-1, RunOptions{BatchSize: bs})
		for _, e := range check.errs {
			t.Errorf("batch=%d: %s", bs, e)
		}
		if check.seen != count {
			t.Errorf("batch=%d: saw %d tuples, want %d (EOS must flush open batches)", bs, check.seen, count)
		}
	}
}

// TestBatchedWindowAggMatchesDeterministic drives a windowed aggregate
// through batch-flush boundaries: per-window counts must match the
// deterministic engine whatever the batch size, proving a window flush
// never loses elements parked in an upstream buffer.
func TestBatchedWindowAggMatchesDeterministic(t *testing.T) {
	mk := func() (*Graph, *map[string]int) {
		got := map[string]int{}
		cnt, _ := agg.Lookup("count", false)
		gb, err := agg.NewGroupBy("g", sch, nil, nil,
			[]agg.Spec{{Fn: cnt, Name: "c"}}, window.Tumbling(100), nil)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGraph(func(e stream.Element) { got[e.String()]++ })
		var elems []stream.Element
		for i := int64(0); i < 950; i++ {
			elems = append(elems, el(i, i%5))
		}
		src := g.AddSource(stream.WithProgressPunctuation(stream.FromElements(sch, elems...), 100))
		n := g.AddOp(gb)
		if err := g.ConnectSource(src, n, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.ConnectOut(n); err != nil {
			t.Fatal(err)
		}
		return g, &got
	}
	gRef, ref := mk()
	gRef.Run(-1)
	if len(*ref) == 0 {
		t.Fatal("reference produced nothing")
	}
	for _, bs := range []int{1, 8, 64, 512} {
		g, got := mk()
		g.RunWith(-1, RunOptions{BatchSize: bs})
		if len(*got) != len(*ref) {
			t.Fatalf("batch=%d: %d distinct rows, want %d", bs, len(*got), len(*ref))
		}
		for k, v := range *ref {
			if (*got)[k] != v {
				t.Errorf("batch=%d: row %q count %d, want %d", bs, k, (*got)[k], v)
			}
		}
	}
}

// TestJoinPartitionsUnderParallelism: a two-input key-partitionable
// join is no longer skipped by the parallel lanes — it runs behind the
// hash-split router, and results stay the multiset of the unreplicated
// run (partjoin_test.go pins the stronger byte-identical property).
func TestJoinPartitionsUnderParallelism(t *testing.T) {
	a := tuple.NewSchema("A",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindInt},
	)
	b := tuple.NewSchema("B",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindInt},
	)
	run := func(opts RunOptions) int64 {
		var as, bs []stream.Element
		for i := int64(0); i < 300; i++ {
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
		g.RunWith(-1, opts)
		if opts.Parallelism > 1 {
			st := g.Stats(nj)
			if st.Replicas != opts.Parallelism {
				t.Errorf("Replicas = %d, want %d", st.Replicas, opts.Parallelism)
			}
			var routed int64
			for _, c := range st.Routed {
				routed += c
			}
			if len(st.Routed) != opts.Parallelism || routed != 600 {
				t.Errorf("Routed = %v (sum %d), want %d replicas summing 600",
					st.Routed, routed, opts.Parallelism)
			}
		}
		return n
	}
	base := run(RunOptions{BatchSize: 1})
	repl := run(RunOptions{BatchSize: 64, Parallelism: 4, ForceParallelism: true})
	if base == 0 || base != repl {
		t.Errorf("join results: unbatched %d, batched+partitioned %d", base, repl)
	}
}

func TestConcurrentStatsSampled(t *testing.T) {
	var n int64
	g := NewGraph(func(stream.Element) { atomic.AddInt64(&n, 1) })
	var elems []stream.Element
	for i := int64(0); i < 5000; i++ {
		elems = append(elems, el(i, i))
	}
	src := g.AddSource(stream.FromElements(sch, elems...))
	d := g.AddOp(ops.NewDupElim("d", sch, []int{1}, 0))
	if err := g.ConnectSource(src, d, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(d); err != nil {
		t.Fatal(err)
	}
	g.RunWith(-1, RunOptions{BatchSize: 64})
	st := g.Stats(d)
	if st.MaxQueue <= 0 {
		t.Errorf("MaxQueue = %d, want > 0 (concurrent path must sample queue depth)", st.MaxQueue)
	}
	if st.MaxMemory <= 0 {
		t.Errorf("MaxMemory = %d, want > 0 (concurrent path must sample operator memory)", st.MaxMemory)
	}
	if st.In != 5000 {
		t.Errorf("In = %d, want 5000", st.In)
	}
}

func TestReplicatedStatsCounted(t *testing.T) {
	var elems []stream.Element
	for i := int64(0); i < 2000; i++ {
		elems = append(elems, el(i, i%100))
	}
	g := NewGraph(nil)
	src := g.AddSource(stream.FromElements(sch, elems...))
	sel := g.AddOp(mustSelect(t, 49)) // passes v in 50..99: half the input
	if err := g.ConnectSource(src, sel, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(sel); err != nil {
		t.Fatal(err)
	}
	g.RunWith(-1, RunOptions{BatchSize: 32, Parallelism: 4, ForceParallelism: true})
	st := g.Stats(sel)
	if st.In != 2000 {
		t.Errorf("In = %d, want 2000", st.In)
	}
	if st.Out != 1000 {
		t.Errorf("Out = %d, want 1000", st.Out)
	}
}

// TestSinkSerializedByDefault locks in the documented contract: in
// concurrent mode the graph sink is invoked from a single merger
// goroutine, so an unsynchronized sink closure is safe. The race
// detector enforces this when two branches write output concurrently.
func TestSinkSerializedByDefault(t *testing.T) {
	var got []int64 // deliberately unsynchronized
	g := NewGraph(func(e stream.Element) {
		v, _ := e.Tuple.Vals[1].AsInt()
		got = append(got, v)
	})
	var elems []stream.Element
	for i := int64(0); i < 3000; i++ {
		elems = append(elems, el(i, i))
	}
	src := g.AddSource(stream.FromElements(sch, elems...))
	b1 := g.AddOp(mustSelect(t, -1))
	b2 := g.AddOp(mustSelect(t, -1))
	for _, id := range []NodeID{b1, b2} {
		if err := g.ConnectSource(src, id, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.ConnectOut(id); err != nil {
			t.Fatal(err)
		}
	}
	g.RunWith(-1, RunOptions{BatchSize: 16})
	if len(got) != 6000 {
		t.Errorf("sink received %d, want 6000", len(got))
	}
}

func TestBatchedDegradeIsolatesPanic(t *testing.T) {
	for _, par := range []int{1, 4} {
		var out int64
		g := NewGraph(func(stream.Element) { atomic.AddInt64(&out, 1) })
		g.SetFailurePolicy(Degrade)
		const n = 3000
		src := g.AddSource(stream.FromElements(sch, elems(n)...))
		bad := g.AddOp(&panicOp{name: "bad", after: 7})
		good := g.AddOp(mustSelect(t, -1))
		for _, id := range []NodeID{bad, good} {
			if err := g.ConnectSource(src, id, 0); err != nil {
				t.Fatal(err)
			}
			if err := g.ConnectOut(id); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		go func() {
			g.RunWith(-1, RunOptions{BatchSize: 64, Parallelism: par, ForceParallelism: true})
			close(done)
		}()
		select {
		case <-done:
		case <-timeoutC(t):
			t.Fatalf("par=%d: batched Degrade run deadlocked", par)
		}
		if g.Err() == nil {
			t.Fatalf("par=%d: failure not reported", par)
		}
		if st := g.Stats(good); st.Out != n {
			t.Errorf("par=%d: healthy branch delivered %d, want %d", par, st.Out, n)
		}
		if st := g.Stats(bad); st.Panics == 0 {
			t.Errorf("par=%d: no panic recorded", par)
		}
	}
}

func TestBatchedFailFastStopsSources(t *testing.T) {
	var out int64
	g := NewGraph(func(stream.Element) { atomic.AddInt64(&out, 1) })
	src := g.AddSource(stream.FromElements(sch, elems(50000)...))
	mid := g.AddOp(&panicOp{name: "mid", after: 10})
	down := g.AddOp(mustSelect(t, -1))
	if err := g.ConnectSource(src, mid, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(mid, down, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(down); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		g.RunWith(-1, RunOptions{BatchSize: 64})
		close(done)
	}()
	select {
	case <-done:
	case <-timeoutC(t):
		t.Fatal("batched FailFast run deadlocked")
	}
	if g.Err() == nil {
		t.Fatal("panic not reported")
	}
}

// TestReplicatedDegradePanic: a panic inside a replica worker must be
// recorded, must not deadlock the splitter/merger machinery, and the
// run must terminate.
func TestReplicatedDegradePanic(t *testing.T) {
	var out int64
	g := NewGraph(func(stream.Element) { atomic.AddInt64(&out, 1) })
	g.SetFailurePolicy(Degrade)
	src := g.AddSource(stream.FromElements(sch, elems(4000)...))
	bad := g.AddOp(&panicSelect{after: 100})
	if err := g.ConnectSource(src, bad, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(bad); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		g.RunWith(-1, RunOptions{BatchSize: 16, Parallelism: 4, ForceParallelism: true})
		close(done)
	}()
	select {
	case <-done:
	case <-timeoutC(t):
		t.Fatal("replicated Degrade run deadlocked after panic")
	}
	if g.Err() == nil {
		t.Fatal("replica panic not reported")
	}
	if st := g.Stats(bad); st.Panics == 0 {
		t.Error("no panic recorded on replicated node")
	}
}

// panicSelect is a Replicable operator whose clones panic after a
// number of pushes, exercising panic isolation inside replica workers.
type panicSelect struct {
	after int64
	seen  int64
}

func (p *panicSelect) Name() string             { return "panicsel" }
func (p *panicSelect) OutSchema() *tuple.Schema { return sch }
func (p *panicSelect) NumInputs() int           { return 1 }
func (p *panicSelect) MemSize() int             { return 0 }
func (p *panicSelect) Flush(ops.Emit)           {}
func (p *panicSelect) Clone() ops.Operator      { c := *p; c.seen = 0; return &c }
func (p *panicSelect) Push(_ int, e stream.Element, emit ops.Emit) {
	if atomic.AddInt64(&p.seen, 1) > p.after {
		panic("replica bug")
	}
	emit(e)
}

// timeoutC returns a channel closed after a deadline far beyond any
// healthy run of these graphs; selecting on it catches deadlocks.
func timeoutC(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(10 * time.Second)
}
