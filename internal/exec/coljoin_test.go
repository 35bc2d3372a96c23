package exec

// Byte-equivalence matrix for the columnar join lane: a window join
// running columnar — batch-hashed splitter, ProcessColSpan replicas,
// span-reassembling merge — must reproduce the serial deterministic
// Run byte-for-byte across join methods, residuals, batch sizes and
// partition widths, with the same late tuples and punctuation-driven
// expiry the row-lane matrix uses. Checkpoints cut mid-stream through
// the columnar lane must restore exactly, in either mode: row-mode
// checkpoints restore into columnar runs and vice versa, because the
// splitter snapshot materializes queued batch rows into the row
// section format.

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

func TestColumnarJoinEquivalenceMatrix(t *testing.T) {
	methods := []struct {
		label  string
		lm, rm ops.JoinMethod
	}{
		{"hash", ops.JoinHash, ops.JoinHash},
		{"inl", ops.JoinNestedLoop, ops.JoinNestedLoop},
		{"asym", ops.JoinHash, ops.JoinNestedLoop},
	}
	matrix := []RunOptions{
		{BatchSize: 7, Parallelism: 1, ForceParallelism: true, PartitionJoins: true, Columnar: true},
		{BatchSize: 64, Parallelism: 2, ForceParallelism: true, PartitionJoins: true, Columnar: true},
		{BatchSize: 7, Parallelism: 4, ForceParallelism: true, PartitionJoins: true, Columnar: true},
		{BatchSize: 64, Parallelism: 4, ForceParallelism: true, PartitionJoins: true, Columnar: true},
	}
	left := pjStream(1200, 0, 6, 42)
	right := pjStream(1200, 1, 6, 99)
	for _, m := range methods {
		for _, residual := range []bool{false, true} {
			label := m.label
			if residual {
				label += "+residual"
			}
			_, base := runPartJoin(t, pjJoin(t, m.lm, m.rm, residual), left, right, nil)
			if len(base) == 0 {
				t.Fatalf("%s: serial baseline produced nothing", label)
			}
			for _, o := range matrix {
				o := o
				st, got := runPartJoin(t, pjJoin(t, m.lm, m.rm, residual), left, right, &o)
				sameSeq(t, fmt.Sprintf("%s/col/%+v", label, o), got, base)
				if st.Replicas != o.Parallelism {
					t.Errorf("%s/%+v: Replicas = %d, want %d", label, o, st.Replicas, o.Parallelism)
				}
				if st.Batches == 0 {
					t.Errorf("%s/%+v: Batches = 0, splitter never saw a column batch", label, o)
				}
				// INT keys are inside the fast envelope: no span may
				// have collapsed to the row path.
				if st.RowFallbacks != 0 {
					t.Errorf("%s/%+v: RowFallbacks = %d, want 0", label, o, st.RowFallbacks)
				}
			}
		}
	}
}

// Float keys hash by content, not payload (integral floats must collide
// with their integer value), so they take the generic column hash on
// the splitter and in the replicas' vectorized core.
var fkLeft = tuple.NewSchema("FL",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "k", Kind: tuple.KindFloat},
	tuple.Field{Name: "lv", Kind: tuple.KindInt},
)

var fkRight = tuple.NewSchema("FR",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "k", Kind: tuple.KindFloat},
	tuple.Field{Name: "rv", Kind: tuple.KindInt},
)

func fkRemap(elems []stream.Element) []stream.Element {
	out := make([]stream.Element, len(elems))
	for i, e := range elems {
		if e.IsPunct() {
			out[i] = e
			continue
		}
		tp := e.Tuple
		k, _ := tp.Vals[1].AsInt()
		out[i] = stream.Tup(tuple.New(tp.Ts, tp.Vals[0], tuple.Float(float64(k)), tp.Vals[2]))
	}
	return out
}

// TestColumnarJoinRowFallbackLane pins that no span of a partitioned
// columnar join runs the row path. Generic (Float) keys do not: the
// replicas hash them with the generic column walk and stay vectorized.
// Cold probes — a large window where nearly every probe misses — do
// not either: the vectorized path is no slower there, so nothing
// demotes it, and its spans must keep the serial bytes.
func TestColumnarJoinRowFallbackLane(t *testing.T) {
	mkJoin := func(rng int64, residual bool) *ops.WindowJoin {
		var res expr.Expr
		if residual {
			out := fkLeft.Concat(fkRight)
			r, err := expr.NewBin(expr.OpGt,
				expr.MustColumn(out, "lv"), expr.MustColumn(out, "rv"))
			if err != nil {
				t.Fatal(err)
			}
			res = r
		}
		j, err := ops.NewWindowJoin("fj", fkLeft, fkRight,
			ops.JoinConfig{Window: window.Time(rng, rng), Method: ops.JoinHash, Key: []int{1}},
			ops.JoinConfig{Window: window.Time(rng/2, rng/2), Method: ops.JoinHash, Key: []int{1}},
			res)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	run := func(j *ops.WindowJoin, left, right []stream.Element, opts *RunOptions) (NodeStats, []string) {
		var got []string
		g := NewGraph(func(e stream.Element) { got = append(got, fmtElem(e)) })
		sl := g.AddSource(stream.FromElements(fkLeft, left...))
		sr := g.AddSource(stream.FromElements(fkRight, right...))
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
		if opts == nil {
			g.Run(-1)
		} else {
			g.RunWith(-1, *opts)
		}
		return g.Stats(n), got
	}
	opts := RunOptions{BatchSize: 32, Parallelism: 3, ForceParallelism: true, PartitionJoins: true, Columnar: true}

	// Generic keys: vectorized, no fallback.
	left := fkRemap(pjStream(800, 0, 5, 7))
	right := fkRemap(pjStream(800, 1, 5, 8))
	_, base := run(mkJoin(64, true), left, right, nil)
	if len(base) == 0 {
		t.Fatal("serial baseline produced nothing")
	}
	st, got := run(mkJoin(64, true), left, right, &opts)
	sameSeq(t, "float-key vectorized", got, base)
	if st.Batches == 0 {
		t.Error("Batches = 0: columnar lane not exercised")
	}
	if st.RowFallbacks != 0 {
		t.Errorf("RowFallbacks = %d: generic-key spans should stay vectorized", st.RowFallbacks)
	}

	// Cold probes: unique keys over a window that never expires, one
	// right row in 97 matching a recent left key.
	const n = 6000
	left, right = left[:0:0], right[:0:0]
	for i := 0; i < n; i++ {
		ts := int64(2 * i)
		left = append(left, stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Float(float64(i)), tuple.Int(int64(i)))))
		k := float64(1e6 + i)
		if i%97 == 0 {
			k = float64(i)
		}
		right = append(right, stream.Tup(tuple.New(ts+1, tuple.Time(ts+1), tuple.Float(k), tuple.Int(int64(i)))))
	}
	_, base = run(mkJoin(1<<40, false), left, right, nil)
	if len(base) == 0 {
		t.Fatal("cold serial baseline produced nothing")
	}
	st, got = run(mkJoin(1<<40, false), left, right, &opts)
	sameSeq(t, "cold probes", got, base)
	if st.RowFallbacks != 0 {
		t.Errorf("RowFallbacks = %d: cold-probe spans should stay vectorized", st.RowFallbacks)
	}
}

// TestColumnarJoinCheckpointResume cuts checkpoints mid-stream through
// the columnar join lane (E22-style), then restores — same mode and
// cross-mode in both directions. The splitter snapshot encodes queued
// batch rows as elements, whatever the mode, so the four cells must
// all stitch byte-identically to the uninterrupted baseline.
func TestColumnarJoinCheckpointResume(t *testing.T) {
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
		j := pjJoin(t, ops.JoinHash, ops.JoinNestedLoop, true)
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

	row := RunOptions{BatchSize: 16, Parallelism: 2, ForceParallelism: true, PartitionJoins: true}
	col := row
	col.Columnar = true

	base, _ := runJoin(-1, col, nil, nil)
	if len(base) == 0 {
		t.Fatal("baseline join produced nothing")
	}

	for _, tc := range []struct {
		label         string
		crash, resume RunOptions
	}{
		{"col_to_col", col, col},
		{"col_to_row", col, row},
		{"row_to_col", row, col},
	} {
		store := ckptStore(t)
		first, commits := runJoin(900, tc.crash, store, nil)
		if commits == 0 {
			t.Fatalf("%s: crash run committed no epochs", tc.label)
		}
		c, err := store.Latest()
		if err != nil || c == nil {
			t.Fatalf("%s: Latest: %v, %v", tc.label, c, err)
		}
		if int(c.OutSeq) > len(first) {
			t.Fatalf("%s: OutSeq %d beyond delivered %d", tc.label, c.OutSeq, len(first))
		}
		second, _ := runJoin(-1, tc.resume, store, c)
		got := append(append([]string{}, first[:c.OutSeq]...), second...)
		sameSeq(t, tc.label+" stitched", got, base)
	}
}

// TestColumnarXJoinMultisetEquivalence: XJoin under the columnar
// partition lane (multi-column generic hash, vectorized probe) keeps
// the serial run's multiset guarantee, spills included.
func TestColumnarXJoinMultisetEquivalence(t *testing.T) {
	left := pjStream(800, 0, 5, 3)
	right := pjStream(800, 1, 5, 4)
	run := func(opts *RunOptions) map[string]int {
		x, err := ops.NewXJoin("px", pjLeft, pjRight, []int{1}, []int{1}, 4, 64, nil, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		g := NewGraph(func(e stream.Element) {
			if !e.IsPunct() {
				got[e.Tuple.String()]++
			}
		})
		sl := g.AddSource(stream.FromElements(pjLeft, left...))
		sr := g.AddSource(stream.FromElements(pjRight, right...))
		n := g.AddOp(x)
		if err := g.ConnectSource(sl, n, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.ConnectSource(sr, n, 1); err != nil {
			t.Fatal(err)
		}
		if err := g.ConnectOut(n); err != nil {
			t.Fatal(err)
		}
		if opts == nil {
			g.Run(-1)
		} else {
			g.RunWith(-1, *opts)
		}
		return got
	}
	base := run(nil)
	if len(base) == 0 {
		t.Fatal("serial XJoin produced nothing")
	}
	opts := RunOptions{BatchSize: 32, Parallelism: 4, ForceParallelism: true, PartitionJoins: true, Columnar: true}
	got := run(&opts)
	if len(got) != len(base) {
		t.Fatalf("columnar XJoin produced %d distinct rows, serial %d", len(got), len(base))
	}
	for k, c := range base {
		if got[k] != c {
			t.Fatalf("row %q: columnar count %d, serial %d", k, got[k], c)
		}
	}
}
