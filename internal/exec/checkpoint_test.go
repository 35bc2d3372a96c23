package exec

// Checkpoint/recovery tests for both engines. The contract under test:
// a checkpoint taken at an aligned cut, played back into a freshly
// built graph of the same shape, resumes the run so that (prefix of
// the original run up to the checkpoint's OutSeq) + (restored run's
// output) is byte-identical to an uninterrupted run — across the plain
// node lane, the replicated lane, the partial-aggregation lane, and
// the key-partitioned join lane.

import (
	"fmt"
	"testing"

	"streamdb/internal/ckpt"
	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

func ckptStore(t *testing.T) *ckpt.Store {
	t.Helper()
	s, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ckptPaneGraph builds source -> Select (Replicable) -> GroupBy
// (PartialAggregable) -> sink, exercising the stateless-replica lane
// and the partial-aggregation lane in one chain when Parallelism > 1.
func ckptPaneGraph(t *testing.T, elems []stream.Element, sink func(stream.Element)) *Graph {
	t.Helper()
	g := NewGraph(sink)
	src := g.AddSource(stream.FromElements(paneSch, elems...))
	pred, err := expr.NewBin(expr.OpGe,
		expr.MustColumn(paneSch, "v"), expr.Constant(tuple.Float(5)))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := ops.NewSelect("keep", paneSch, pred, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	ns := g.AddOp(sel)
	gb := paneGroupBy(t, window.Time(80, 20), []string{"sum", "count"}, true)
	ng := g.AddOp(gb)
	if err := g.ConnectSource(src, ns, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(ns, ng, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(ng); err != nil {
		t.Fatal(err)
	}
	return g
}

func fmtElem(e stream.Element) string {
	if e.IsPunct() {
		return fmt.Sprintf("punct@%d", e.Punct.Ts)
	}
	return fmt.Sprintf("%d|%s", e.Tuple.Ts, e.Tuple.String())
}

// TestSerialCheckpointRestore drives the quiescent-graph path: pump
// half the input, commit a checkpoint, abandon the graph, rebuild,
// restore, and run to completion. The stitched output must be
// byte-identical to an uninterrupted run.
func TestSerialCheckpointRestore(t *testing.T) {
	elems := paneStream(3000, false)

	var base []string
	gb := ckptPaneGraph(t, elems, func(e stream.Element) { base = append(base, fmtElem(e)) })
	gb.Run(-1)
	if len(base) == 0 {
		t.Fatal("baseline produced nothing")
	}

	store := ckptStore(t)
	var first []string
	g1 := ckptPaneGraph(t, elems, func(e stream.Element) { first = append(first, fmtElem(e)) })
	g1.Pump(1700)
	if err := g1.Checkpoint(store, 1, int64(len(first)), map[string]uint64{"extra": 42}); err != nil {
		t.Fatal(err)
	}
	// g1 is abandoned here: the crash. Nothing after the Pump was flushed.

	c, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if c == nil || c.Epoch != 1 {
		t.Fatalf("Latest = %+v, want epoch 1", c)
	}
	if c.Meta["extra"] != 42 {
		t.Fatalf("extra meta = %d, want 42", c.Meta["extra"])
	}
	if c.OutSeq != int64(len(first)) {
		t.Fatalf("OutSeq = %d, want %d", c.OutSeq, len(first))
	}

	var second []string
	g2 := ckptPaneGraph(t, elems, func(e stream.Element) { second = append(second, fmtElem(e)) })
	if err := g2.RestoreFrom(c); err != nil {
		t.Fatal(err)
	}
	g2.Run(-1)

	got := append(append([]string{}, first...), second...)
	sameSeq(t, "serial stitched", got, base)
}

// TestSerialRestoreRejectsConcurrent: a checkpoint stamped by the
// concurrent engine must not restore into the serial engine.
func TestSerialRestoreRejectsConcurrent(t *testing.T) {
	elems := paneStream(200, false)
	g := ckptPaneGraph(t, elems, func(stream.Element) {})
	c := &ckpt.Checkpoint{Epoch: 1, Meta: map[string]uint64{"par": 2}}
	if err := g.RestoreFrom(c); err == nil {
		t.Fatal("RestoreFrom accepted a concurrent-engine checkpoint")
	}
}

// runWithCkpt runs a fresh pane graph with checkpointing enabled,
// returning the delivered output and the number of committed epochs.
func runWithCkpt(t *testing.T, elems []stream.Element, maxElements int64, opts RunOptions,
	store *ckpt.Store, every int64, restore *ckpt.Checkpoint) ([]string, int) {
	t.Helper()
	var got []string
	commits := 0
	opts.Checkpoint = &CheckpointConfig{
		Store: store,
		Every: every,
		OnCommit: func(epoch int64, err error) {
			if err == nil {
				commits++
			}
		},
	}
	opts.Restore = restore
	g := ckptPaneGraph(t, elems, func(e stream.Element) { got = append(got, fmtElem(e)) })
	g.RunWith(maxElements, opts)
	if err := g.Err(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return got, commits
}

// TestConcurrentCheckpointTransparent: enabling checkpoints must not
// change a single output byte, in any lane configuration.
func TestConcurrentCheckpointTransparent(t *testing.T) {
	elems := paneStream(3000, false)
	var base []string
	g := ckptPaneGraph(t, elems, func(e stream.Element) { base = append(base, fmtElem(e)) })
	g.Run(-1)

	for _, tc := range []struct {
		label string
		opts  RunOptions
	}{
		{"plain", RunOptions{BatchSize: 7}},
		{"batched", RunOptions{BatchSize: 64}},
		{"parallel", RunOptions{BatchSize: 32, Parallelism: 3, ForceParallelism: true}},
	} {
		got, commits := runWithCkpt(t, elems, -1, tc.opts, ckptStore(t), 271, nil)
		sameSeq(t, tc.label, got, base)
		if commits == 0 {
			t.Errorf("%s: no epochs committed", tc.label)
		}
	}
}

// TestConcurrentCheckpointResume is the crash drill for the concurrent
// engine: run with a low element cap (the "crash"), restore the last
// committed checkpoint into a fresh graph over the full input, and
// require prefix + resumed output == uninterrupted baseline.
func TestConcurrentCheckpointResume(t *testing.T) {
	elems := paneStream(3000, false)
	var base []string
	g := ckptPaneGraph(t, elems, func(e stream.Element) { base = append(base, fmtElem(e)) })
	g.Run(-1)
	if len(base) == 0 {
		t.Fatal("baseline produced nothing")
	}

	for _, tc := range []struct {
		label string
		opts  RunOptions
	}{
		{"plain", RunOptions{BatchSize: 7}},
		{"parallel", RunOptions{BatchSize: 32, Parallelism: 3, ForceParallelism: true}},
	} {
		store := ckptStore(t)
		first, commits := runWithCkpt(t, elems, 1100, tc.opts, store, 149, nil)
		if commits == 0 {
			t.Fatalf("%s: crash run committed no epochs", tc.label)
		}
		c, err := store.Latest()
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			t.Fatalf("%s: no checkpoint recovered", tc.label)
		}
		if int(c.OutSeq) > len(first) {
			t.Fatalf("%s: OutSeq %d beyond delivered %d", tc.label, c.OutSeq, len(first))
		}
		second, _ := runWithCkpt(t, elems, -1, tc.opts, store, 149, c)
		got := append(append([]string{}, first[:c.OutSeq]...), second...)
		sameSeq(t, tc.label+" stitched", got, base)

		// Crash the restored run too: its checkpoints count outputs from
		// the job's start, so the second restore stitches the same way.
		store = ckptStore(t)
		if err := store.Commit(c); err != nil {
			t.Fatal(err)
		}
		second, commits = runWithCkpt(t, elems, 1000, tc.opts, store, 149, c)
		c2, err := store.Latest()
		if err != nil || c2 == nil || commits == 0 {
			t.Fatalf("%s: restored crash run committed no epochs (%v)", tc.label, err)
		}
		if c2.OutSeq < c.OutSeq || c2.OutSeq > c.OutSeq+int64(len(second)) {
			t.Fatalf("%s: restored run's checkpoint OutSeq %d, want in [%d, %d]",
				tc.label, c2.OutSeq, c.OutSeq, c.OutSeq+int64(len(second)))
		}
		third, _ := runWithCkpt(t, elems, -1, tc.opts, store, 149, c2)
		got = append(append(append([]string{}, first[:c.OutSeq]...), second[:c2.OutSeq-c.OutSeq]...), third...)
		sameSeq(t, tc.label+" stitched twice", got, base)
	}
}

// TestConcurrentRestoreRejectsMismatch: a checkpoint taken at one
// parallelism must not restore into a run with another — the section
// layout differs.
func TestConcurrentRestoreRejectsMismatch(t *testing.T) {
	elems := paneStream(2000, false)
	store := ckptStore(t)
	opts := RunOptions{BatchSize: 32, Parallelism: 3, ForceParallelism: true}
	_, commits := runWithCkpt(t, elems, 1000, opts, store, 149, nil)
	if commits == 0 {
		t.Fatal("no epochs committed")
	}
	c, err := store.Latest()
	if err != nil || c == nil {
		t.Fatalf("Latest: %v, %v", c, err)
	}
	g := ckptPaneGraph(t, elems, func(stream.Element) {})
	g.RunWith(-1, RunOptions{BatchSize: 32, Parallelism: 2, ForceParallelism: true, Restore: c})
	failed := g.Failures()
	if len(failed) != 1 || failed[0].Op != "checkpoint-restore" {
		t.Fatalf("failures = %+v, want one checkpoint-restore rejection", failed)
	}
}

// TestPartitionedJoinCheckpointResume runs the crash drill through the
// key-partitioned join lane: two sources, hash-split replicas, the
// splitter's port-merge queues in the cut.
func TestPartitionedJoinCheckpointResume(t *testing.T) {
	left := pjStream(2400, 0, 6, 11)
	right := pjStream(2400, 1, 6, 22)

	runJoin := func(maxElements int64, opts RunOptions, store *ckpt.Store, restore *ckpt.Checkpoint) ([]string, int) {
		var got []string
		commits := 0
		if store != nil {
			opts.Checkpoint = &CheckpointConfig{
				Store: store,
				Every: 307,
				OnCommit: func(epoch int64, err error) {
					if err == nil {
						commits++
					}
				},
			}
		}
		opts.Restore = restore
		j := pjJoin(t, ops.JoinHash, ops.JoinHash, false)
		g := NewGraph(func(e stream.Element) { got = append(got, fmtElem(e)) })
		sl := g.AddSource(stream.FromElements(pjLeft, left...))
		sr := g.AddSource(stream.FromElements(pjRight, right...))
		n := g.AddOp(j)
		if err := g.ConnectSource(sl, n, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.ConnectSource(sr, n, 1); err != nil {
			t.Fatal(err)
		}
		if err := g.ConnectOut(n); err != nil {
			t.Fatal(err)
		}
		g.RunWith(maxElements, opts)
		if err := g.Err(); err != nil {
			t.Fatalf("join run failed: %v", err)
		}
		return got, commits
	}

	opts := RunOptions{BatchSize: 16, Parallelism: 2, ForceParallelism: true, PartitionJoins: true}
	base, _ := runJoin(-1, opts, nil, nil)
	if len(base) == 0 {
		t.Fatal("baseline join produced nothing")
	}

	store := ckptStore(t)
	first, commits := runJoin(900, opts, store, nil)
	if commits == 0 {
		t.Fatal("crash run committed no epochs")
	}
	c, err := store.Latest()
	if err != nil || c == nil {
		t.Fatalf("Latest: %v, %v", c, err)
	}
	if int(c.OutSeq) > len(first) {
		t.Fatalf("OutSeq %d beyond delivered %d", c.OutSeq, len(first))
	}
	second, _ := runJoin(-1, opts, store, c)
	got := append(append([]string{}, first[:c.OutSeq]...), second...)
	sameSeq(t, "partitioned join stitched", got, base)
}
