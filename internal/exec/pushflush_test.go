package exec

// A barrier the source injects itself (stream.PushSource.Flush) crosses
// every lane the way a checkpoint barrier does and, with no checkpoint
// controller, is reported back from the output consumer: once Flush
// returns, every result of what was pushed before it is at the sink —
// at any width, row or columnar.

import (
	"fmt"
	"testing"

	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

func TestPushSourceFlushCrossesEveryLane(t *testing.T) {
	const (
		windows = 8
		groups  = 5
		span    = 100
	)
	for _, opts := range []RunOptions{
		{BatchSize: 256},
		{BatchSize: 256, Columnar: true},
		{BatchSize: 7, Parallelism: 2, ForceParallelism: true},
		{BatchSize: 256, Parallelism: 3, ForceParallelism: true, Columnar: true},
	} {
		name := fmt.Sprintf("p%d columnar=%v batch=%d", opts.Parallelism, opts.Columnar, opts.BatchSize)
		var got []int64 // window end per result row; written by the sink, read after Flush
		g := NewGraph(func(e stream.Element) {
			if !e.IsPunct() {
				got = append(got, e.Tuple.Ts)
			}
		})
		src := stream.NewPushSource(paneSch, 0)
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
			g.RunWith(-1, opts)
			src.Stop(g.Err())
		}()
		for w := 0; w < windows; w++ {
			for i := 0; i < 4*groups; i++ {
				ts := int64(w*span + i)
				if err := src.Push(paneRow(ts, int64(i%groups), 2)); err != nil {
					t.Fatal(err)
				}
				if err := src.Push(paneRow(ts, int64(i%groups), 0.5)); err != nil { // filtered out
					t.Fatal(err)
				}
			}
			// A punctuation inside window w closes window w-1 in every
			// replica (a tuple only moves the watermark of the replica it
			// was dealt to); the rows may be anywhere in the pipeline until
			// the barrier has crossed it.
			mark := int64(w*span + 4*groups)
			if err := src.Push(stream.Punct(stream.ProgressPunct(mark, 0, tuple.Time(mark)))); err != nil {
				t.Fatal(err)
			}
			if err := src.Flush(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != w*groups {
				t.Fatalf("%s: %d rows at the sink after Flush %d, want %d", name, len(got), w, w*groups)
			}
		}
		src.End()
		<-done
		if err := g.Err(); err != nil {
			t.Fatal(err)
		}
		if len(got) != windows*groups {
			t.Fatalf("%s: %d rows out, want %d", name, len(got), windows*groups)
		}
		for i, ts := range got {
			if want := int64((i/groups + 1) * span); ts != want {
				t.Fatalf("%s: row %d closes at %d, want %d", name, i, ts, want)
			}
		}
	}
}
