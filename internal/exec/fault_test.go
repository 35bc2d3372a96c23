package exec

// Panic isolation: an operator crash must become a reported node
// failure, never a process crash or (in concurrent mode) a deadlock.

import (
	"sync/atomic"
	"testing"
	"time"

	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// panicOp forwards elements until it has seen `after` of them, then
// panics on every subsequent push (and on Flush if panicOnFlush).
type panicOp struct {
	name         string
	after        int64
	seen         int64
	panicOnFlush bool
}

func (p *panicOp) Name() string             { return p.name }
func (p *panicOp) OutSchema() *tuple.Schema { return sch }
func (p *panicOp) NumInputs() int           { return 1 }
func (p *panicOp) MemSize() int             { return 0 }
func (p *panicOp) Push(_ int, e stream.Element, emit ops.Emit) {
	if atomic.AddInt64(&p.seen, 1) > p.after {
		panic("operator bug: invariant violated")
	}
	emit(e)
}
func (p *panicOp) Flush(ops.Emit) {
	if p.panicOnFlush {
		panic("flush bug")
	}
}

func elems(n int) []stream.Element {
	out := make([]stream.Element, n)
	for i := range out {
		out[i] = el(int64(i), int64(i))
	}
	return out
}

func TestRunFailFastOnPanic(t *testing.T) {
	var got int64
	g := NewGraph(func(stream.Element) { got++ })
	src := g.AddSource(stream.FromElements(sch, elems(10)...))
	n := g.AddOp(&panicOp{name: "bad", after: 3})
	if err := g.ConnectSource(src, n, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(n); err != nil {
		t.Fatal(err)
	}
	g.Run(-1)
	if err := g.Err(); err == nil {
		t.Fatal("panic not reported as node failure")
	}
	if got != 3 {
		t.Errorf("outputs after fail-fast = %d, want 3", got)
	}
	if st := g.Stats(n); st.Panics != 1 {
		t.Errorf("Panics = %d, want 1", st.Panics)
	}
	fs := g.Failures()
	if len(fs) != 1 || fs[0].Op != "bad" || fs[0].Stack == "" {
		t.Errorf("failures = %+v", fs)
	}
}

func TestRunDegradeKeepsHealthyBranch(t *testing.T) {
	// Two parallel branches off one source; one panics. Under Degrade
	// the healthy branch must deliver everything.
	var healthy, total int64
	g := NewGraph(func(e stream.Element) {
		total++
		if v, _ := e.Tuple.Vals[1].AsInt(); v >= 0 {
			healthy++
		}
	})
	g.SetFailurePolicy(Degrade)
	src := g.AddSource(stream.FromElements(sch, elems(20)...))
	bad := g.AddOp(&panicOp{name: "bad", after: 5})
	good := g.AddOp(mustSelect(t, -1)) // passes everything
	for _, n := range []NodeID{bad, good} {
		if err := g.ConnectSource(src, n, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.ConnectOut(n); err != nil {
			t.Fatal(err)
		}
	}
	consumed := g.Run(-1)
	if consumed != 20 {
		t.Errorf("consumed = %d, want 20 (degrade must not stop the run)", consumed)
	}
	if err := g.Err(); err == nil {
		t.Fatal("failure not reported under Degrade")
	}
	// bad emitted 5 before crashing; good emitted all 20.
	if total != 25 {
		t.Errorf("outputs = %d, want 25", total)
	}
	if st := g.Stats(bad); st.Panics != 1 {
		t.Errorf("Panics = %d", st.Panics)
	}
}

func TestRunDegradeFlushPanic(t *testing.T) {
	g := NewGraph(nil)
	g.SetFailurePolicy(Degrade)
	src := g.AddSource(stream.FromElements(sch, elems(3)...))
	n := g.AddOp(&panicOp{name: "bad", after: 100, panicOnFlush: true})
	if err := g.ConnectSource(src, n, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(n); err != nil {
		t.Fatal(err)
	}
	g.Run(-1)
	if err := g.Err(); err == nil {
		t.Fatal("flush panic not reported")
	}
	if st := g.Stats(n); st.Panics != 1 {
		t.Errorf("Panics = %d", st.Panics)
	}
}

// fanOp emits k copies of every input: an amplifier to overload the
// pending-work deque.
type fanOp struct{ k int }

func (f *fanOp) Name() string             { return "fan" }
func (f *fanOp) OutSchema() *tuple.Schema { return sch }
func (f *fanOp) NumInputs() int           { return 1 }
func (f *fanOp) MemSize() int             { return 0 }
func (f *fanOp) Flush(ops.Emit)           {}
func (f *fanOp) Push(_ int, e stream.Element, emit ops.Emit) {
	for i := 0; i < f.k; i++ {
		emit(e)
	}
}

func TestWorkCapTailDropWithPanickingOperator(t *testing.T) {
	// Overload (SetWorkCap tail-drop) interacting with a panicking
	// operator under Degrade: the run must complete, drops must be
	// counted, and emitted elements must either reach the sink or be
	// accounted as dropped — nothing vanishes silently.
	var out int64
	g := NewGraph(func(stream.Element) { out++ })
	g.SetFailurePolicy(Degrade)
	g.SetWorkCap(4)
	const n = 50
	src := g.AddSource(stream.FromElements(sch, elems(n)...))
	fan := g.AddOp(&fanOp{k: 8})
	bad := g.AddOp(&panicOp{name: "bad", after: 20})
	good := g.AddOp(mustSelect(t, -1))
	if err := g.ConnectSource(src, fan, 0); err != nil {
		t.Fatal(err)
	}
	for _, id := range []NodeID{bad, good} {
		if err := g.Connect(fan, id, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.ConnectOut(id); err != nil {
			t.Fatal(err)
		}
	}
	consumed := g.Run(-1)
	if consumed != n {
		t.Errorf("consumed = %d, want %d (degrade must not stop the run)", consumed, n)
	}
	if g.Dropped() == 0 {
		t.Error("work cap never tripped; overload not exercised")
	}
	if g.Err() == nil {
		t.Fatal("panic not recorded")
	}
	if st := g.Stats(bad); st.Panics != 1 {
		t.Errorf("bad.Panics = %d", st.Panics)
	}
	stGood, stBad := g.Stats(good), g.Stats(bad)
	// Every element emitted by the two branches either reached the
	// sink or was tail-dropped (Dropped also covers op-bound drops, so
	// this is an inequality).
	if out+g.Dropped() < stGood.Out+stBad.Out {
		t.Errorf("sink %d + dropped %d < emitted %d: elements vanished",
			out, g.Dropped(), stGood.Out+stBad.Out)
	}
	if stGood.Out == 0 {
		t.Error("healthy branch produced nothing")
	}
}

// runConcurrentWithTimeout fails the test if the run deadlocks.
func runConcurrentWithTimeout(t *testing.T, g *Graph, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		g.RunWith(-1, RunOptions{ChanCap: 8})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("concurrent run deadlocked after operator panic")
	}
}

func TestRunConcurrentPanicNoDeadlock(t *testing.T) {
	// A crashed middle operator used to leave its input channel
	// unconsumed: upstream writers blocked forever and wg.Wait hung.
	var out int64
	g := NewGraph(func(stream.Element) { atomic.AddInt64(&out, 1) })
	src := g.AddSource(stream.FromElements(sch, elems(5000)...))
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
	runConcurrentWithTimeout(t, g, 10*time.Second)
	if err := g.Err(); err == nil {
		t.Fatal("panic not reported as node failure")
	}
	if st := g.Stats(mid); st.Panics != 1 {
		t.Errorf("Panics = %d, want 1", st.Panics)
	}
}

func TestRunConcurrentDegradeCompletesHealthyBranch(t *testing.T) {
	var out int64
	g := NewGraph(func(stream.Element) { atomic.AddInt64(&out, 1) })
	g.SetFailurePolicy(Degrade)
	const n = 2000
	src := g.AddSource(stream.FromElements(sch, elems(n)...))
	bad := g.AddOp(&panicOp{name: "bad", after: 4})
	good := g.AddOp(mustSelect(t, -1))
	for _, id := range []NodeID{bad, good} {
		if err := g.ConnectSource(src, id, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.ConnectOut(id); err != nil {
			t.Fatal(err)
		}
	}
	runConcurrentWithTimeout(t, g, 10*time.Second)
	if g.Err() == nil {
		t.Fatal("failure not reported")
	}
	// Healthy branch sees every element despite the sibling crash.
	if st := g.Stats(good); st.Out != n {
		t.Errorf("healthy branch delivered %d, want %d", st.Out, n)
	}
}

// A source that panics — here by handing the columnar transpose a tuple
// shorter than its schema — is a run failure like an operator panic:
// Err reports it, the run returns, the process survives.
func TestRunWithSourcePanicIsFailure(t *testing.T) {
	in := elems(100)
	in[40] = stream.Tup(tuple.New(40, tuple.Time(40))) // arity 1, schema says 2
	var got int64
	g := NewGraph(func(stream.Element) { got++ })
	src := g.AddSource(stream.FromElements(sch, in...))
	n := g.AddOp(&panicOp{name: "pass", after: 1 << 30})
	if err := g.ConnectSource(src, n, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(n); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.RunWith(-1, RunOptions{Columnar: true, BatchSize: 16})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return")
	}
	if g.Err() == nil {
		t.Error("short tuple transposed without a failure")
	}
	if got != 32 {
		t.Errorf("sink saw %d elements, want the 32 of the two batches before the ragged one", got)
	}
}
