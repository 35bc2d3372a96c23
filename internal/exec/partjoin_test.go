package exec

// Byte-equivalence tests for the key-partitioned join lane: a window
// join running as P hash-split replicas behind the router must
// reproduce the serial deterministic Run byte-for-byte — same tuples,
// same order — across join methods, residual predicates, batch sizes,
// and partition widths, including late tuples and punctuation-driven
// expiry. The splitter's timestamp-aware port merge re-derives the
// serial interleave and the sequence-restoring output merge puts the
// replicas' results back in that order.

import (
	"fmt"
	"math/rand"
	"testing"

	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

var pjLeft = tuple.NewSchema("L",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "k", Kind: tuple.KindInt},
	tuple.Field{Name: "lv", Kind: tuple.KindInt},
)

var pjRight = tuple.NewSchema("R",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "k", Kind: tuple.KindInt},
	tuple.Field{Name: "rv", Kind: tuple.KindInt},
)

// pjStream builds one port's input: mostly ordered, with occasional
// late tuples up to 28 ticks behind, duplicate keys drawn from a small
// domain, and periodic progress punctuations held 40 ticks behind the
// local maximum so stragglers never violate them. Port 0 uses even
// timestamps and port 1 odd, so the serial interleave has no cross-port
// ties and the merge order is forced by timestamps alone.
func pjStream(n int, port int64, keys int64, seed int64) []stream.Element {
	rng := rand.New(rand.NewSource(seed))
	var elems []stream.Element
	maxTs := int64(0)
	for i := 0; i < n; i++ {
		ts := maxTs + 2*rng.Int63n(4)
		if maxTs > 60 && rng.Int63n(16) == 0 {
			ts = maxTs - 2*rng.Int63n(15) // straggler, ≤28 behind
		}
		if ts > maxTs {
			maxTs = ts
		}
		elems = append(elems, stream.Tup(tuple.New(ts+port,
			tuple.Time(ts+port), tuple.Int(rng.Int63n(keys)), tuple.Int(int64(i)))))
		if i%61 == 60 && maxTs > 40 {
			p := maxTs + port - 40
			elems = append(elems, stream.Punct(stream.ProgressPunct(p, 0, tuple.Time(p))))
		}
	}
	return elems
}

func pjJoin(t *testing.T, lm, rm ops.JoinMethod, residual bool) *ops.WindowJoin {
	t.Helper()
	var res expr.Expr
	if residual {
		out := pjLeft.Concat(pjRight)
		r, err := expr.NewBin(expr.OpGt,
			expr.MustColumn(out, "lv"), expr.MustColumn(out, "rv"))
		if err != nil {
			t.Fatal(err)
		}
		res = r
	}
	j, err := ops.NewWindowJoin("pj", pjLeft, pjRight,
		ops.JoinConfig{Window: window.Time(64, 64), Method: lm, Key: []int{1}},
		ops.JoinConfig{Window: window.Time(32, 32), Method: rm, Key: []int{1}},
		res)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// runPartJoin drives (source 0, source 1) -> join -> sink; opts == nil
// uses the serial deterministic Run.
func runPartJoin(t *testing.T, j *ops.WindowJoin, left, right []stream.Element, opts *RunOptions) (NodeStats, []string) {
	t.Helper()
	st, _, got := runPartJoinDown(t, j, nil, left, right, opts)
	return st, got
}

// runPartJoinDown is runPartJoin with an optional single-input operator
// between the join and the sink (down == nil: none). The join's stats
// are returned first, then the downstream operator's (zero without one).
func runPartJoinDown(t *testing.T, j *ops.WindowJoin, down ops.Operator, left, right []stream.Element, opts *RunOptions) (NodeStats, NodeStats, []string) {
	t.Helper()
	var got []string
	g := NewGraph(func(e stream.Element) {
		if e.IsPunct() {
			got = append(got, fmt.Sprintf("punct@%d", e.Punct.Ts))
			return
		}
		got = append(got, fmt.Sprintf("%d|%s", e.Tuple.Ts, e.Tuple.String()))
	})
	sl := g.AddSource(stream.FromElements(pjLeft, left...))
	sr := g.AddSource(stream.FromElements(pjRight, right...))
	n := g.AddOp(j)
	if err := g.ConnectSource(sl, n, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectSource(sr, n, 1); err != nil {
		t.Fatal(err)
	}
	last := n
	if down != nil {
		last = g.AddOp(down)
		if err := g.Connect(n, last, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.ConnectOut(last); err != nil {
		t.Fatal(err)
	}
	if opts == nil {
		g.Run(-1)
	} else {
		g.RunWith(-1, *opts)
	}
	var downSt NodeStats
	if down != nil {
		downSt = g.Stats(last)
	}
	return g.Stats(n), downSt, got
}

// pjDown builds the downstream shapes the partitioned-join matrix puts
// after the join: none, a Select (an ops.BatchOperator, fed the
// router's column batches natively) and a row-only pass-through (which
// materializes them).
func pjDown(t *testing.T, shape string) ops.Operator {
	t.Helper()
	switch shape {
	case "select":
		out := pjLeft.Concat(pjRight)
		pred, err := expr.NewBin(expr.OpGt, expr.MustColumn(out, "lv"), expr.Constant(tuple.Int(400)))
		if err != nil {
			t.Fatal(err)
		}
		s, err := ops.NewSelect("down", out, pred, -1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	case "rowonly":
		return &fanOp{k: 1}
	}
	return nil
}

func pjData(elems []stream.Element) int64 {
	var n int64
	for _, e := range elems {
		if !e.IsPunct() {
			n++
		}
	}
	return n
}

// TestPartitionedJoinEquivalenceMatrix: every (method pair × residual ×
// downstream shape × Columnar × RunOptions) cell must be byte-identical
// to the serial run of the same graph. The asymmetric cell pairs a hash
// index with a nested-loop scan, the configuration [KNV03] motivates
// for rate-asymmetric inputs. The router emits column batches whatever
// Columnar says, so the row-mode cells also cover column batches
// flowing downstream of the join into a batch-native and a row-only
// operator.
func TestPartitionedJoinEquivalenceMatrix(t *testing.T) {
	methods := []struct {
		label  string
		lm, rm ops.JoinMethod
	}{
		{"hash", ops.JoinHash, ops.JoinHash},
		{"inl", ops.JoinNestedLoop, ops.JoinNestedLoop},
		{"asym", ops.JoinHash, ops.JoinNestedLoop},
	}
	matrix := []RunOptions{
		{BatchSize: 7, Parallelism: 1, ForceParallelism: true, PartitionJoins: true},
		{BatchSize: 64, Parallelism: 2, ForceParallelism: true, PartitionJoins: true},
		{BatchSize: 7, Parallelism: 4, ForceParallelism: true, PartitionJoins: true},
		{BatchSize: 64, Parallelism: 4, ForceParallelism: true, PartitionJoins: true},
		// Note: the plain concurrent path without the router ({BatchSize:
		// 64} alone) is absent deliberately — it consumes the two input
		// edges in arbitrary interleave, and a TIME-windowed join's output
		// depends on cross-port arrival order. The router's timestamp-
		// aware port merge is precisely what restores determinism.
	}
	left := pjStream(1200, 0, 6, 42)
	right := pjStream(1200, 1, 6, 99)
	data := pjData(left) + pjData(right)
	for _, m := range methods {
		for _, residual := range []bool{false, true} {
			for _, shape := range []string{"none", "select", "rowonly"} {
				label := m.label
				if residual {
					label += "+residual"
				}
				label += "/" + shape
				_, _, base := runPartJoinDown(t, pjJoin(t, m.lm, m.rm, residual), pjDown(t, shape), left, right, nil)
				if len(base) == 0 {
					t.Fatalf("%s: serial baseline produced nothing", label)
				}
				for _, o := range matrix {
					for _, columnar := range []bool{false, true} {
						o := o
						o.Columnar = columnar
						st, downSt, got := runPartJoinDown(t, pjJoin(t, m.lm, m.rm, residual), pjDown(t, shape), left, right, &o)
						sameSeq(t, fmt.Sprintf("%s/%+v", label, o), got, base)
						// The join's column batches reach the next node in
						// either mode: natively, or through the row fallback.
						if shape == "select" && downSt.Batches == 0 {
							t.Errorf("%s/%+v: Select saw no column batches", label, o)
						}
						if shape == "rowonly" && downSt.RowFallbacks == 0 {
							t.Errorf("%s/%+v: row-only operator saw no column batches", label, o)
						}
						if st.Replicas != o.Parallelism {
							t.Errorf("%s/%+v: Replicas = %d, want %d", label, o, st.Replicas, o.Parallelism)
						}
						var routed int64
						for _, c := range st.Routed {
							routed += c
						}
						if len(st.Routed) != o.Parallelism || routed != data {
							t.Errorf("%s/%+v: Routed = %v (sum %d), want %d replicas summing %d",
								label, o, st.Routed, routed, o.Parallelism, data)
						}
					}
				}
			}
		}
	}
}

// TestPartitionedJoinFoldsStats: after a partitioned run the original
// operator's counters must cover the whole run (replicas fold at
// Flush), so introspection keeps working.
func TestPartitionedJoinFoldsStats(t *testing.T) {
	left := pjStream(600, 0, 4, 7)
	right := pjStream(600, 1, 4, 8)
	serial := pjJoin(t, ops.JoinHash, ops.JoinHash, false)
	_, base := runPartJoin(t, serial, left, right, nil)
	part := pjJoin(t, ops.JoinHash, ops.JoinHash, false)
	opts := RunOptions{BatchSize: 64, Parallelism: 4, ForceParallelism: true, PartitionJoins: true}
	_, got := runPartJoin(t, part, left, right, &opts)
	sameSeq(t, "fold", got, base)
	if part.Emitted() != serial.Emitted() || part.Emitted() == 0 {
		t.Errorf("folded Emitted = %d, want %d", part.Emitted(), serial.Emitted())
	}
	// Hash probes inspect exactly the matching bucket, so the folded
	// probe count matches the serial count; partitioning only splits the
	// buckets across replicas.
	if part.Probes() != serial.Probes() {
		t.Errorf("folded Probes = %d, want %d", part.Probes(), serial.Probes())
	}
	// Expired counts physical reclaims, and each replica's sweep strands
	// its own expired-behind-front stragglers at end of stream, so the
	// folded total tracks the serial count from below.
	sl, sr := serial.Expired()
	pl, pr := part.Expired()
	if pl+pr == 0 || pl > sl || pr > sr {
		t.Errorf("folded Expired = (%d, %d), want nonzero and <= serial (%d, %d)", pl, pr, sl, sr)
	}
}

// TestPartitionedXJoinMultisetEquivalence: XJoin's cleanup phase emits
// per-partition, so a partitioned run promises multiset equality rather
// than byte order. Spills are forced by a tiny budget to cover the
// replica cleanup path.
func TestPartitionedXJoinMultisetEquivalence(t *testing.T) {
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
	opts := RunOptions{BatchSize: 32, Parallelism: 4, ForceParallelism: true, PartitionJoins: true}
	got := run(&opts)
	if len(got) != len(base) {
		t.Fatalf("partitioned XJoin: %d distinct rows, want %d", len(got), len(base))
	}
	for k, v := range base {
		if got[k] != v {
			t.Errorf("row %q: count %d, want %d", k, got[k], v)
		}
	}
}
