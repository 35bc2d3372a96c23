package exec

// Flush-on-idle regression: a lane whose input has run dry must not sit
// on a partly filled output batch. Before the rule a window's rows
// waited in the last merger's buffer for a full batch, a punctuation or
// the end of the stream — in practice for the next window's close.

import (
	"sync"
	"testing"
	"time"

	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// pacedSource is a live source fed a chunk at a time by the test: each
// NextBatch hands over exactly one chunk (a short read, as a transport
// delivers), blocking until there is one.
type pacedSource struct {
	schema *tuple.Schema
	chunks chan []stream.Element
}

func (p *pacedSource) Schema() *tuple.Schema { return p.schema }

func (p *pacedSource) Next() (stream.Element, bool) {
	panic("pacedSource is read in bulk")
}

func (p *pacedSource) NextBatch(dst []stream.Element, _ int) ([]stream.Element, bool) {
	chunk, ok := <-p.chunks
	return append(dst, chunk...), ok
}

func TestIdleLanesFlushClosedWindow(t *testing.T) {
	const (
		windows = 6
		groups  = 5
		span    = 100 // tumbling window length
	)
	var mu sync.Mutex
	var got []int64 // window end of each result row, in arrival order
	arrived := make(chan struct{}, 1)
	g := NewGraph(func(e stream.Element) {
		if e.IsPunct() {
			return
		}
		mu.Lock()
		got = append(got, e.Tuple.Ts)
		mu.Unlock()
		select {
		case arrived <- struct{}{}:
		default:
		}
	})
	src := &pacedSource{schema: paneSch, chunks: make(chan []stream.Element)}
	si := g.AddSource(src)
	pred, err := expr.NewBin(expr.OpGe, expr.MustColumn(paneSch, "v"), expr.Constant(tuple.Float(1)))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := ops.NewSelect("keep", paneSch, pred, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	ns := g.AddOp(sel)
	ng := g.AddOp(paneGroupBy(t, window.Tumbling(span), []string{"sum", "count"}, true))
	if err := g.ConnectSource(si, ns, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(ns, ng, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(ng); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.RunWith(-1, RunOptions{BatchSize: 256, Parallelism: 2, ForceParallelism: true, Columnar: true})
	}()

	// window w's tuples, split in two chunks so that both partial
	// replicas see the window (chunks are dealt round-robin).
	chunk := func(w, half int) []stream.Element {
		var out []stream.Element
		for i := 0; i < 2*groups; i++ {
			ts := int64(w*span + half*span/2 + i)
			out = append(out, paneRow(ts, int64(i%groups), 2))
			out = append(out, paneRow(ts, int64(i%groups), 0.5)) // filtered out
		}
		return out
	}
	rowsBy := func(deadline time.Duration, want int) int {
		timeout := time.After(deadline)
		for {
			mu.Lock()
			n := len(got)
			mu.Unlock()
			if n >= want {
				return n
			}
			select {
			case <-arrived:
			case <-timeout:
				return n
			}
		}
	}
	src.chunks <- chunk(0, 0)
	src.chunks <- chunk(0, 1)
	for w := 1; w < windows; w++ {
		// Window w's tuples close window w-1 in both replicas. Its rows
		// must come out now, with nothing of window w+1 fed yet.
		src.chunks <- chunk(w, 0)
		src.chunks <- chunk(w, 1)
		if n := rowsBy(5*time.Second, w*groups); n != w*groups {
			t.Fatalf("window %d closed but %d of its %d rows are still parked in a lane (%d rows out in all)",
				w-1, w*groups-n, groups, n)
		}
	}
	close(src.chunks)
	<-done
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != windows*groups {
		t.Fatalf("%d rows out, want %d", len(got), windows*groups)
	}
	for i, ts := range got {
		if want := int64((i/groups + 1) * span); ts != want {
			t.Fatalf("row %d closes at %d, want %d", i, ts, want)
		}
	}
}
