package exec

// Byte-equivalence matrix for columnar execution: RunOptions.Columnar
// must reproduce the row engine's output byte-for-byte in every lane —
// single-node (native BatchOperator and row-adapter), replicated,
// partial-replicated, fan-out — across batch sizes, with punctuations,
// late tuples, checkpoint barriers, and restore-from-checkpoint in the
// stream. Checkpoints must also interoperate across modes: a cut taken
// by a row run restores into a columnar run and vice versa.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"streamdb/internal/agg"
	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// TestColumnarMatchesRowPipeline drives Select -> Project (both
// BatchOperators) and requires exact output equality with the row
// engine, including replicated lanes.
func TestColumnarMatchesRowPipeline(t *testing.T) {
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
		{BatchSize: 1, Columnar: true},
		{BatchSize: 7, Columnar: true},
		{BatchSize: 64, Columnar: true},
		{BatchSize: 256, Columnar: true},
		{BatchSize: 64, Parallelism: 4, ForceParallelism: true, Columnar: true},
		{BatchSize: 1, Parallelism: 2, ForceParallelism: true, Columnar: true},
	} {
		got := pipelineOutputs(t, elems, cfg)
		sameSeq(t, fmt.Sprintf("%+v", cfg), got, base)
	}
}

// TestColumnarReplicatedLaneKeepsBatches: a column batch must stay one
// through the replicated stateless lane, at every width and batch size —
// same bytes as the serial engine, no row fallback on the replicated
// node, and column batches (not rows) reaching the aggregate behind it.
func TestColumnarReplicatedLaneKeepsBatches(t *testing.T) {
	var rows []stream.Element
	for i := int64(0); i < 1000; i++ {
		rows = append(rows, el(i, i%40))
		if i%100 == 99 {
			rows = append(rows, stream.Punct(stream.ProgressPunct(i, 0, tuple.Time(i))))
		}
	}
	project := func(t *testing.T) *ops.Project {
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
		return proj
	}
	paneKeep := func(t *testing.T) *ops.Select {
		pred, err := expr.NewBin(expr.OpGe, expr.MustColumn(paneSch, "v"), expr.Constant(tuple.Float(5)))
		if err != nil {
			t.Fatal(err)
		}
		sel, err := ops.NewSelect("keep", paneSch, pred, 0.9, 1)
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	// Each plan is a chain behind one source; the filter is its first
	// node and, where agg is set, the aggregate its last.
	plans := []struct {
		label string
		sch   *tuple.Schema
		elems []stream.Element
		chain func(t *testing.T) []ops.Operator
		agg   bool
	}{
		{"filter", sch, rows, func(t *testing.T) []ops.Operator {
			return []ops.Operator{mustSelect(t, 10)}
		}, false},
		{"filter->project", sch, rows, func(t *testing.T) []ops.Operator {
			return []ops.Operator{mustSelect(t, 10), project(t)}
		}, false},
		{"filter->pane-agg", paneSch, paneStream(3000, false), func(t *testing.T) []ops.Operator {
			return []ops.Operator{paneKeep(t), paneGroupBy(t, window.Time(80, 20), []string{"sum", "count"}, true)}
		}, true},
	}
	for _, pl := range plans {
		run := func(opts *RunOptions) (*Graph, []NodeID, []string) {
			var got []string
			g := NewGraph(func(e stream.Element) { got = append(got, fmtElem(e)) })
			src := g.AddSource(stream.FromElements(pl.sch, pl.elems...))
			var ids []NodeID
			for i, op := range pl.chain(t) {
				id := g.AddOp(op)
				var err error
				if i == 0 {
					err = g.ConnectSource(src, id, 0)
				} else {
					err = g.Connect(ids[i-1], id, 0)
				}
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			if err := g.ConnectOut(ids[len(ids)-1]); err != nil {
				t.Fatal(err)
			}
			if opts == nil {
				g.Run(-1)
			} else {
				g.RunWith(-1, *opts)
			}
			if err := g.Err(); err != nil {
				t.Fatal(err)
			}
			return g, ids, got
		}
		_, _, base := run(nil)
		if len(base) == 0 {
			t.Fatalf("%s: serial baseline produced nothing", pl.label)
		}
		for _, width := range []int{1, 2, 4} {
			for _, bs := range []int{1, 7, 256} {
				label := fmt.Sprintf("%s width=%d batch=%d", pl.label, width, bs)
				g, ids, got := run(&RunOptions{BatchSize: bs, Parallelism: width, ForceParallelism: true, Columnar: true})
				sameSeq(t, label, got, base)
				if st := g.Stats(ids[0]); st.RowFallbacks != 0 || st.Batches == 0 {
					t.Errorf("%s: filter saw %d batches, %d fell back to rows; want every batch kept whole",
						label, st.Batches, st.RowFallbacks)
				}
				if pl.agg {
					if st := g.Stats(ids[len(ids)-1]); st.Batches == 0 || st.RowFallbacks != 0 {
						t.Errorf("%s: aggregate saw %d column batches, %d row fallbacks; want batches only",
							label, st.Batches, st.RowFallbacks)
					}
				}
			}
		}
	}
}

// TestColumnarPaneEquivalence: the GroupBy columnar fold (dense key
// cache, typed update loops) against the serial engine, on the pane
// path and — via DisablePanes — the row-fallback lane, with stragglers
// and punctuations in the stream. Parallel cases exercise column
// batches routed through the partial-replication splitter.
func TestColumnarPaneEquivalence(t *testing.T) {
	elems := paneStream(4000, false)
	for _, panes := range []bool{true, false} {
		label := map[bool]string{true: "panes", false: "legacy"}[panes]
		_, base := runPaneGraph(t, paneGroupBy(t, window.Time(80, 20), []string{"sum", "count", "avg"}, panes), elems, nil)
		if len(base) == 0 {
			t.Fatal("baseline produced nothing")
		}
		cfgs := []RunOptions{
			{BatchSize: 1, Columnar: true},
			{BatchSize: 7, Columnar: true},
			{BatchSize: 64, Columnar: true},
			{BatchSize: 256, Columnar: true},
		}
		if panes {
			cfgs = append(cfgs,
				RunOptions{BatchSize: 64, Parallelism: 4, ForceParallelism: true, Columnar: true},
				RunOptions{BatchSize: 32, Parallelism: 3, ForceParallelism: true, Columnar: true})
		}
		for _, cfg := range cfgs {
			gb := paneGroupBy(t, window.Time(80, 20), []string{"sum", "count", "avg"}, panes)
			_, got := runPaneGraph(t, gb, elems, &cfg)
			sameSeq(t, fmt.Sprintf("%s %+v", label, cfg), got, base)
		}
	}
}

// TestColumnarKeyShapes: the columnar fold against the serial engine on
// the key shapes the group index must keep apart or together: IP keys
// at and past 4096, with a burst of more than 4096 distinct keys in one
// pane (the index grows mid-pane), negative INT keys, NULL keys, and
// punctuations closing groups (closeGroups) on the columnar lane, at
// batch sizes 1, 7 and 256 and, but for the group closes, on three
// partial replicas. Group closes stay single-copy: replicated, the
// combiner's output already differs from the serial engine's in row
// count, run to run, with or without the columnar fold.
func TestColumnarKeyShapes(t *testing.T) {
	cases := []struct {
		label      string
		kind       tuple.Kind
		key        func(rng *rand.Rand) tuple.Value
		burst      int // distinct keys pushed at one timestamp mid-stream
		closeEvery int // every closeEvery rows, a punctuation closes that row's key
	}{
		{"ip", tuple.KindIP, func(rng *rand.Rand) tuple.Value {
			return tuple.IP(4090 + uint32(rng.Int63n(12))*1_000_003)
		}, 5000, 0},
		{"negative int", tuple.KindInt, func(rng *rand.Rand) tuple.Value {
			return tuple.Int(rng.Int63n(9) - 6)
		}, 0, 0},
		{"null int", tuple.KindInt, func(rng *rand.Rand) tuple.Value {
			if rng.Int63n(4) == 0 {
				return tuple.Null
			}
			return tuple.Int(rng.Int63n(3))
		}, 0, 0},
		{"punct close", tuple.KindIP, func(rng *rand.Rand) tuple.Value {
			return tuple.IP(70000 + uint32(rng.Int63n(6)))
		}, 0, 37},
	}
	for _, c := range cases {
		sc := tuple.NewSchema("K",
			tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
			tuple.Field{Name: "g", Kind: c.kind},
			tuple.Field{Name: "v", Kind: tuple.KindFloat},
		)
		elems := keyedStream(3000, c.key, c.burst, c.closeEvery)
		gb := func() *agg.GroupBy {
			var aggs []agg.Spec
			for _, name := range []string{"sum", "count", "avg"} {
				f, err := agg.Lookup(name, false)
				if err != nil {
					t.Fatal(err)
				}
				s := agg.Spec{Fn: f, Name: name}
				if name != "count" {
					s.Arg = expr.MustColumn(sc, "v")
				}
				aggs = append(aggs, s)
			}
			g, err := agg.NewGroupBy("q", sc, []expr.Expr{expr.MustColumn(sc, "g")}, []string{"g"},
				aggs, window.Time(80, 20), nil)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		_, base := runPaneGraphOn(t, sc, gb(), elems, nil)
		if len(base) == 0 {
			t.Fatalf("%s: baseline produced nothing", c.label)
		}
		cfgs := []RunOptions{
			{BatchSize: 1, Columnar: true},
			{BatchSize: 7, Columnar: true},
			{BatchSize: 256, Columnar: true},
		}
		if c.closeEvery == 0 {
			cfgs = append(cfgs, RunOptions{BatchSize: 64, Parallelism: 3, ForceParallelism: true, Columnar: true})
		}
		for _, cfg := range cfgs {
			st, got := runPaneGraphOn(t, sc, gb(), elems, &cfg)
			sameSeq(t, fmt.Sprintf("%s %+v", c.label, cfg), got, base)
			if cfg.Parallelism == 0 && (st.Batches == 0 || st.RowFallbacks != 0) {
				t.Errorf("%s %+v: %d column batches, %d row fallbacks; want batches only",
					c.label, cfg, st.Batches, st.RowFallbacks)
			}
		}
	}
}

// keyedStream is paneStream's arrival pattern (mostly ordered,
// stragglers within the current pane, a progress punctuation every 53
// rows) with keys drawn by key, values dyadic. burst > 0 pushes that
// many distinct IP keys at one timestamp halfway through; closeEvery > 0
// follows every closeEvery-th row with a punctuation closing its key.
func keyedStream(n int, key func(*rand.Rand) tuple.Value, burst, closeEvery int) []stream.Element {
	rng := rand.New(rand.NewSource(4321))
	row := func(ts int64, k tuple.Value) stream.Element {
		return stream.Tup(tuple.New(ts, tuple.Time(ts), k, tuple.Float(float64(rng.Int63n(200))/4)))
	}
	var elems []stream.Element
	ts, maxTs := int64(0), int64(0)
	for i := 0; i < n; i++ {
		ts = max(maxTs+rng.Int63n(5)-1, (maxTs/20)*20)
		maxTs = max(maxTs, ts)
		k := key(rng)
		elems = append(elems, row(ts, k))
		if i == n/2 {
			for b := 0; b < burst; b++ {
				elems = append(elems, row(maxTs, tuple.IP(uint32(4096+b*7))))
			}
		}
		if closeEvery > 0 && i%closeEvery == closeEvery-1 {
			elems = append(elems, stream.Punct(stream.EndGroupPunct(maxTs, 1, k)))
		}
		if i%53 == 52 {
			elems = append(elems, stream.Punct(stream.ProgressPunct(maxTs, 0, tuple.Time(maxTs))))
		}
	}
	return elems
}

// TestColumnarDeepStragglers: tuples far behind the watermark must take
// the late-side-table path out of the columnar fold exactly as they do
// out of the row fold (single-copy lanes only; see paneStream).
func TestColumnarDeepStragglers(t *testing.T) {
	elems := paneStream(2000, true)
	_, base := runPaneGraph(t, paneGroupBy(t, window.Time(80, 20), []string{"sum", "count"}, true), elems, nil)
	for _, bs := range []int{1, 7, 64} {
		cfg := RunOptions{BatchSize: bs, Columnar: true}
		_, got := runPaneGraph(t, paneGroupBy(t, window.Time(80, 20), []string{"sum", "count"}, true), elems, &cfg)
		sameSeq(t, fmt.Sprintf("columnar bs=%d", bs), got, base)
	}
}

// TestColumnarFanout fans one Select output to two Projects (v×2 and
// v×3), so shared column batches (Retain + WithSel views) feed both
// branches. Both write the one merged sink; a row's branch is told
// apart by its output value, and each branch must match its row-engine
// sequence exactly.
func TestColumnarFanout(t *testing.T) {
	var elems []stream.Element
	for i := int64(0); i < 800; i++ {
		elems = append(elems, el(i, i%40))
		if i%90 == 89 {
			elems = append(elems, stream.Punct(stream.ProgressPunct(i, 0, tuple.Time(i))))
		}
	}
	run := func(columnar bool) map[string][]string {
		got := map[string][]string{}
		g := NewGraph(func(e stream.Element) {
			if e.IsPunct() {
				// Both branches forward every punctuation; the merged
				// sink interleaves them, so only the multiset is fixed.
				got["punct"] = append(got["punct"], e.String())
				return
			}
			v, _ := e.Tuple.Vals[1].AsInt()
			branch := "x3"
			if v == 2*(e.Tuple.Ts%40) { // v > 10, so ×2 and ×3 never coincide
				branch = "x2"
			}
			got[branch] = append(got[branch], e.String())
		})
		src := g.AddSource(stream.FromElements(sch, elems...))
		sel := g.AddOp(mustSelect(t, 10))
		mk := func(name string, factor int64) {
			outSch := tuple.NewSchema(name,
				tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
				tuple.Field{Name: "v2", Kind: tuple.KindInt},
			)
			e, err := expr.NewBin(expr.OpMul, expr.MustColumn(sch, "v"), expr.Constant(tuple.Int(factor)))
			if err != nil {
				t.Fatal(err)
			}
			proj, err := ops.NewProject(name, outSch, []expr.Expr{expr.MustColumn(sch, "time"), e})
			if err != nil {
				t.Fatal(err)
			}
			id := g.AddOp(proj)
			if err := g.Connect(sel, id, 0); err != nil {
				t.Fatal(err)
			}
			if err := g.ConnectOut(id); err != nil {
				t.Fatal(err)
			}
		}
		mk("p2", 2)
		mk("p3", 3)
		if err := g.ConnectSource(src, sel, 0); err != nil {
			t.Fatal(err)
		}
		g.RunWith(-1, RunOptions{BatchSize: 32, Columnar: columnar})
		sort.Strings(got["punct"])
		return got
	}
	base := run(false)
	got := run(true)
	if len(base["x2"]) == 0 || len(base["x2"]) != len(base["x3"]) {
		t.Fatalf("row engine branches: %d and %d rows, want equal and nonzero", len(base["x2"]), len(base["x3"]))
	}
	for _, b := range []string{"x2", "x3", "punct"} {
		sameSeq(t, "branch "+b, got[b], base[b])
	}
}

// TestColumnarCheckpointResume is the crash drill with column batches in
// flight, plus cross-mode restores: the cut is mode-agnostic.
func TestColumnarCheckpointResume(t *testing.T) {
	elems := paneStream(3000, false)
	var base []string
	g := ckptPaneGraph(t, elems, func(e stream.Element) { base = append(base, fmtElem(e)) })
	g.Run(-1)
	if len(base) == 0 {
		t.Fatal("baseline produced nothing")
	}

	col := RunOptions{BatchSize: 32, Columnar: true}
	row := RunOptions{BatchSize: 32}
	par := RunOptions{BatchSize: 32, Parallelism: 3, ForceParallelism: true, Columnar: true}
	wide := RunOptions{BatchSize: 256, Parallelism: 2, ForceParallelism: true, Columnar: true}
	for _, tc := range []struct {
		label         string
		crash, resume RunOptions
	}{
		{"columnar/columnar", col, col},
		{"columnar/row", col, row},
		{"row/columnar", row, col},
		{"parallel columnar", par, par},
		{"parallel columnar, whole batches through the replicated lane", wide, wide},
	} {
		store := ckptStore(t)
		first, commits := runWithCkpt(t, elems, 1100, tc.crash, store, 149, nil)
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
		second, _ := runWithCkpt(t, elems, -1, tc.resume, store, 149, c)
		got := append(append([]string{}, first[:c.OutSeq]...), second...)
		sameSeq(t, tc.label+" stitched", got, base)
	}
}

// colBatchSource replays pre-built column batches through the
// stream.ColSource contract, standing in for a columnar transport.
type colBatchSource struct {
	schema  *tuple.Schema
	batches []*stream.Batch
	rows    []stream.Element // row view for the restore fast-forward
	at      int
}

func (c *colBatchSource) Schema() *tuple.Schema { return c.schema }
func (c *colBatchSource) Next() (stream.Element, bool) {
	if c.at >= len(c.rows) {
		return stream.Element{}, false
	}
	e := c.rows[c.at]
	c.at++
	return e, true
}
func (c *colBatchSource) NextColBatch(max int) (*stream.Batch, bool) {
	if len(c.batches) == 0 {
		return nil, false
	}
	b := c.batches[0]
	c.batches = c.batches[1:]
	return b, len(c.batches) > 0
}

// TestColSourceFeedsGraph: batches delivered by a ColSource flow into
// the graph identically to the same rows from a bulk source.
func TestColSourceFeedsGraph(t *testing.T) {
	var elems []stream.Element
	for i := int64(0); i < 500; i++ {
		elems = append(elems, el(i, i%40))
	}
	base := pipelineOutputs(t, elems, RunOptions{BatchSize: 1})

	pool := stream.NewColPool(sch, 64)
	var batches []*stream.Batch
	cur := pool.Get()
	for _, e := range elems {
		cur.AppendRow(e.Tuple)
		if cur.Rows() == 64 {
			batches = append(batches, cur)
			cur = pool.Get()
		}
	}
	if cur.Rows() > 0 {
		batches = append(batches, cur)
	} else {
		cur.Release()
	}
	var got []string
	g := NewGraph(func(e stream.Element) { got = append(got, e.String()) })
	src := g.AddSource(&colBatchSource{schema: sch, batches: batches, rows: elems})
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
	g.RunWith(-1, RunOptions{BatchSize: 64, Columnar: true})
	sameSeq(t, "colsource", got, base)
}

// TestColSourcePunctFollowsRows: a punctuation a ColSource attaches to a
// batch (on a batch of rows, or alone on an empty one) reaches the graph
// behind the batch's rows, exactly where the same punctuation sits in
// the row stream.
func TestColSourcePunctFollowsRows(t *testing.T) {
	var elems []stream.Element
	pool := stream.NewColPool(sch, 64)
	var batches []*stream.Batch
	cur := pool.Get()
	for i := int64(0); i < 500; i++ {
		elems = append(elems, el(i, i%40))
		cur.AppendRow(elems[len(elems)-1].Tuple)
		if i%100 == 99 {
			cur.Punct = stream.ProgressPunct(i, 0, tuple.Time(i))
			elems = append(elems, stream.Punct(cur.Punct))
		}
		if cur.Rows() == 64 || cur.Punct != nil {
			batches = append(batches, cur)
			cur = pool.Get()
		}
	}
	cur.Punct = stream.ProgressPunct(1000, 0, tuple.Time(1000))
	elems = append(elems, stream.Punct(cur.Punct))
	batches = append(batches, cur)
	run := func(src stream.Source, opts RunOptions) []string {
		var got []string
		g := NewGraph(func(e stream.Element) { got = append(got, e.String()) })
		sel := g.AddOp(mustSelect(t, 10))
		if err := g.ConnectSource(g.AddSource(src), sel, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.ConnectOut(sel); err != nil {
			t.Fatal(err)
		}
		g.RunWith(-1, opts)
		return got
	}
	base := run(stream.FromElements(sch, elems...), RunOptions{BatchSize: 1})
	got := run(&colBatchSource{schema: sch, batches: batches}, RunOptions{BatchSize: 64, Columnar: true})
	sameSeq(t, "punctuated colsource", got, base)
}
