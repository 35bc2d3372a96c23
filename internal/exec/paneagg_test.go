package exec

// Equivalence tests for pane-based aggregation under both engines: the
// pane path (and its partial-replicated form) must be byte-identical to
// the legacy per-window path for sliding, tumbling, landmark, and
// partitioned window specs across every PR 2 RunOptions combination,
// with holistic aggregates automatically routed to the legacy path.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"streamdb/internal/agg"
	"streamdb/internal/expr"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

var paneSch = tuple.NewSchema("A",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "g", Kind: tuple.KindInt},
	tuple.Field{Name: "v", Kind: tuple.KindFloat},
)

func paneRow(ts, grp int64, v float64) stream.Element {
	return stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(grp), tuple.Float(v)))
}

// paneStream is a mostly-ordered stream of dyadic values (quarters, so
// float sums are exact under any association) with stragglers and
// periodic progress punctuations. Stragglers stay within the watermark's
// current slide-aligned pane: a tuple landing behind an already-closed
// window re-opens it, and the grouping of such re-emissions is
// inherently arrival-order-dependent under replication (each replica
// re-emits at its own next advance), so only the single-copy engines
// promise byte equivalence for those — see TestPaneDeepStragglers.
func paneStream(n int, deepStragglers bool) []stream.Element {
	rng := rand.New(rand.NewSource(1234))
	var elems []stream.Element
	ts, maxTs := int64(0), int64(0)
	for i := 0; i < n; i++ {
		ts = maxTs + rng.Int63n(5) - 1
		if !deepStragglers && ts < (maxTs/20)*20 {
			ts = (maxTs / 20) * 20
		}
		if ts < 0 {
			ts = 0
		}
		if ts > maxTs {
			maxTs = ts
		}
		elems = append(elems, paneRow(ts, rng.Int63n(4), float64(rng.Int63n(200))/4))
		if i%53 == 52 {
			elems = append(elems, stream.Punct(stream.ProgressPunct(maxTs, 0, tuple.Time(maxTs))))
		}
	}
	if deepStragglers {
		// Tuples far behind the watermark, re-opening closed windows.
		for _, back := range []int64{50, 130, 310} {
			elems = append(elems, paneRow(maxTs-back, 1, 0.25))
		}
		elems = append(elems, paneRow(maxTs, 2, 0.5))
	}
	return elems
}

func paneAggs(t *testing.T, names []string) []agg.Spec {
	t.Helper()
	var aggs []agg.Spec
	for _, name := range names {
		f, err := agg.Lookup(name, false)
		if err != nil {
			t.Fatal(err)
		}
		s := agg.Spec{Fn: f, Name: name}
		if name != "count" {
			s.Arg = expr.MustColumn(paneSch, "v")
		}
		aggs = append(aggs, s)
	}
	return aggs
}

func paneGroupBy(t *testing.T, spec window.Spec, names []string, panes bool) *agg.GroupBy {
	t.Helper()
	gb, err := agg.NewGroupBy("q", paneSch,
		[]expr.Expr{expr.MustColumn(paneSch, "g")}, []string{"g"},
		paneAggs(t, names), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !panes {
		gb.DisablePanes()
	}
	return gb
}

// runPaneGraph drives source -> GroupBy -> sink; opts == nil uses the
// deterministic single-threaded Run.
func runPaneGraph(t *testing.T, gb *agg.GroupBy, elems []stream.Element, opts *RunOptions) (NodeStats, []string) {
	t.Helper()
	return runPaneGraphOn(t, paneSch, gb, elems, opts)
}

// runPaneGraphOn is runPaneGraph over a source of schema sch.
func runPaneGraphOn(t *testing.T, sch *tuple.Schema, gb *agg.GroupBy, elems []stream.Element, opts *RunOptions) (NodeStats, []string) {
	t.Helper()
	var got []string
	g := NewGraph(func(e stream.Element) {
		if e.IsPunct() {
			got = append(got, fmt.Sprintf("punct@%d", e.Punct.Ts))
			return
		}
		got = append(got, fmt.Sprintf("%d|%s", e.Tuple.Ts, e.Tuple.String()))
	})
	src := g.AddSource(stream.FromElements(sch, elems...))
	n := g.AddOp(gb)
	if err := g.ConnectSource(src, n, 0); err != nil {
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

func sameSeq(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: output %d = %s, want %s", label, i, got[i], want[i])
		}
	}
}

// The full PR 2 RunOptions matrix (batch sizes, replication with the
// order-restoring merge, partial replication with a combiner) must
// reproduce the legacy deterministic run byte-for-byte on every window
// shape.
func TestPaneEquivalenceRunMatrix(t *testing.T) {
	partitioned := window.Time(80, 20)
	partitioned.PartitionBy = []string{"g"}
	cases := []struct {
		label     string
		spec      window.Spec
		aggs      []string
		wantPanes bool
	}{
		{"sliding", window.Time(80, 20), []string{"sum", "count", "avg"}, true},
		{"deep sliding", window.Time(320, 20), []string{"sum", "count"}, true},
		{"tumbling", window.Tumbling(40), []string{"sum", "count", "min", "max"}, true},
		{"landmark", window.Landmark(40), []string{"sum", "count"}, false},
		{"partitioned", partitioned, []string{"sum", "count"}, true},
		{"holistic median", window.Time(80, 20), []string{"median", "sum"}, false},
	}
	matrix := []RunOptions{
		{BatchSize: 7},
		{BatchSize: 64},
		{BatchSize: 256},
		{BatchSize: 64, Parallelism: 4, ForceParallelism: true},
		{BatchSize: 1, Parallelism: 2, ForceParallelism: true},
	}
	elems := paneStream(4000, false)
	for _, c := range cases {
		gbLegacy := paneGroupBy(t, c.spec, c.aggs, false)
		_, base := runPaneGraph(t, gbLegacy, elems, nil)
		if len(base) == 0 {
			t.Fatalf("%s: legacy baseline produced nothing", c.label)
		}
		gbPane := paneGroupBy(t, c.spec, c.aggs, true)
		if gbPane.UsesPanes() != c.wantPanes {
			t.Fatalf("%s: UsesPanes = %v, want %v", c.label, gbPane.UsesPanes(), c.wantPanes)
		}
		_, got := runPaneGraph(t, gbPane, elems, nil)
		sameSeq(t, c.label+"/Run", got, base)
		for _, o := range matrix {
			o := o
			gb := paneGroupBy(t, c.spec, c.aggs, true)
			st, got := runPaneGraph(t, gb, elems, &o)
			sameSeq(t, fmt.Sprintf("%s/%+v", c.label, o), got, base)
			if o.Parallelism > 1 && c.wantPanes && st.Replicas != o.Parallelism {
				t.Errorf("%s/%+v: Replicas = %d, want %d", c.label, o, st.Replicas, o.Parallelism)
			}
		}
	}
}

var paneUintSch = tuple.NewSchema("AU",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "g", Kind: tuple.KindInt},
	tuple.Field{Name: "v", Kind: tuple.KindUint},
)

// paneUintStream is paneStream with UINT measures (and some NULLs).
func paneUintStream(n int, deepStragglers bool) []stream.Element {
	rng := rand.New(rand.NewSource(77))
	elems := paneStream(n, deepStragglers)
	for i, e := range elems {
		if e.IsPunct() {
			continue
		}
		v := tuple.Uint(uint64(rng.Int63n(1 << 20)))
		if rng.Intn(30) == 0 {
			v = tuple.Null
		}
		elems[i] = stream.Tup(tuple.New(e.Tuple.Ts, e.Tuple.Vals[0], e.Tuple.Vals[1], v))
	}
	return elems
}

func paneUintGroupBy(t *testing.T, spec window.Spec, panes bool) *agg.GroupBy {
	t.Helper()
	var aggs []agg.Spec
	for _, name := range []string{"count", "sum", "avg", "stddev"} {
		f, err := agg.Lookup(name, false)
		if err != nil {
			t.Fatal(err)
		}
		s := agg.Spec{Fn: f, Name: name}
		if name != "count" {
			s.Arg = expr.MustColumn(paneUintSch, "v")
		}
		aggs = append(aggs, s)
	}
	gb, err := agg.NewGroupBy("q", paneUintSch,
		[]expr.Expr{expr.MustColumn(paneUintSch, "g")}, []string{"g"}, aggs, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !panes {
		gb.DisablePanes()
	}
	return gb
}

// UINT measures close sliding windows from the running window table.
// The serial loop and RunWith — row and columnar, unreplicated and as
// partial replicas at P = 2 and 4 — must reproduce the legacy serial
// bytes. Deep stragglers, which land in panes the running table holds,
// run unreplicated (see TestPaneDeepStragglers).
func TestPaneRunningWindowRunMatrix(t *testing.T) {
	for _, spec := range []window.Spec{window.Time(80, 20), window.Time(320, 20)} {
		for _, deep := range []bool{false, true} {
			elems := paneUintStream(4000, deep)
			_, base := runPaneGraphOn(t, paneUintSch, paneUintGroupBy(t, spec, false), elems, nil)
			if len(base) == 0 {
				t.Fatalf("%s: legacy baseline produced nothing", spec)
			}
			gb := paneUintGroupBy(t, spec, true)
			if got := gb.CloseStrategy(); got != "close: running window" {
				t.Fatalf("%s: strategy %q", spec, got)
			}
			_, got := runPaneGraphOn(t, paneUintSch, gb, elems, nil)
			sameSeq(t, fmt.Sprintf("%s deep=%v/Run", spec, deep), got, base)
			for _, columnar := range []bool{false, true} {
				for _, p := range []int{1, 2, 4} {
					if deep && p > 1 {
						continue
					}
					o := RunOptions{BatchSize: 64, Parallelism: p, ForceParallelism: p > 1, Columnar: columnar}
					st, got := runPaneGraphOn(t, paneUintSch, paneUintGroupBy(t, spec, true), elems, &o)
					label := fmt.Sprintf("%s deep=%v/%+v", spec, deep, o)
					sameSeq(t, label, got, base)
					if st.Replicas != p {
						t.Errorf("%s: Replicas = %d, want %d", label, st.Replicas, p)
					}
					if columnar && st.Batches == 0 {
						t.Errorf("%s: columnar run took no batches", label)
					}
				}
			}
		}
	}
}

// Partial replication must merge correctly when HAVING filters the
// combined result (the filter must see merged totals, not per-replica
// partials).
func TestPanePartialReplicationHaving(t *testing.T) {
	having := func(out *tuple.Schema) (expr.Expr, error) {
		c, err := expr.Column(out, "count")
		if err != nil {
			return nil, err
		}
		return expr.NewBin(expr.OpGt, c, expr.Constant(tuple.Int(3)))
	}
	mk := func(panes bool) *agg.GroupBy {
		gb, err := agg.NewGroupBy("q", paneSch,
			[]expr.Expr{expr.MustColumn(paneSch, "g")}, []string{"g"},
			paneAggs(t, []string{"sum", "count"}), window.Time(80, 20), having)
		if err != nil {
			t.Fatal(err)
		}
		if !panes {
			gb.DisablePanes()
		}
		return gb
	}
	elems := paneStream(3000, false)
	_, base := runPaneGraph(t, mk(false), elems, nil)
	opts := RunOptions{BatchSize: 32, Parallelism: 3, ForceParallelism: true}
	_, got := runPaneGraph(t, mk(true), elems, &opts)
	sameSeq(t, "partial+having", got, base)
}

// Deep stragglers land behind already-closed windows and re-open them.
// The single-copy engines (deterministic Run and batched RunWith) must
// stay byte-identical to legacy; partial replication is excluded here
// because the grouping of late re-emissions depends on which replica's
// advance observes the straggler first.
func TestPaneDeepStragglers(t *testing.T) {
	elems := paneStream(2000, true)
	_, base := runPaneGraph(t, paneGroupBy(t, window.Time(80, 20), []string{"sum", "count"}, false), elems, nil)
	if len(base) == 0 {
		t.Fatal("legacy baseline produced nothing")
	}
	_, got := runPaneGraph(t, paneGroupBy(t, window.Time(80, 20), []string{"sum", "count"}, true), elems, nil)
	sameSeq(t, "deep/Run", got, base)
	for _, o := range []RunOptions{{BatchSize: 7}, {BatchSize: 64}, {BatchSize: 256}} {
		o := o
		_, got := runPaneGraph(t, paneGroupBy(t, window.Time(80, 20), []string{"sum", "count"}, true), elems, &o)
		sameSeq(t, fmt.Sprintf("deep/%+v", o), got, base)
	}
}

// The engine must cap replication width at GOMAXPROCS unless forced,
// and record the decision in NodeStats.Replicas.
func TestParallelismCappedAtGOMAXPROCS(t *testing.T) {
	elems := paneStream(500, false)
	run := func(opts RunOptions) NodeStats {
		gb := paneGroupBy(t, window.Time(80, 20), []string{"sum", "count"}, true)
		st, _ := runPaneGraph(t, gb, elems, &opts)
		return st
	}
	want := runtime.GOMAXPROCS(0)
	if want > 16 {
		want = 16
	}
	st := run(RunOptions{BatchSize: 64, Parallelism: 16})
	if st.Replicas != want {
		t.Errorf("capped Replicas = %d, want min(16, GOMAXPROCS)=%d", st.Replicas, want)
	}
	st = run(RunOptions{BatchSize: 64, Parallelism: 3, ForceParallelism: true})
	if st.Replicas != 3 {
		t.Errorf("forced Replicas = %d, want 3", st.Replicas)
	}
	st = run(RunOptions{BatchSize: 64})
	if st.Replicas != 1 {
		t.Errorf("unreplicated Replicas = %d, want 1", st.Replicas)
	}
}
