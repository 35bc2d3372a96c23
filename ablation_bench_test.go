package streamdb

// Ablation benchmarks for the design decisions called out in
// DESIGN.md §5: execution mode (virtual-time scheduler vs goroutines
// and channels), join-state invalidation strategy, and GK-vs-sampling
// for quantiles.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"streamdb/internal/agg"
	"streamdb/internal/exec"
	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/optimizer/share"
	"streamdb/internal/stream"
	"streamdb/internal/synopsis"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

func filterGraph(b *testing.B, sink exec.Sink, n int) *exec.Graph {
	b.Helper()
	g := exec.NewGraph(sink)
	sch := stream.TrafficSchema("Traffic")
	src := g.AddSource(stream.Limit(stream.NewTrafficStream(1, 1e6, 1000), n))
	pred, err := expr.NewBin(expr.OpGt, expr.MustColumn(sch, "length"), expr.Constant(tuple.Int(512)))
	if err != nil {
		b.Fatal(err)
	}
	sel, err := ops.NewSelect("sel", sch, pred, -1, 1)
	if err != nil {
		b.Fatal(err)
	}
	id := g.AddOp(sel)
	if err := g.ConnectSource(src, id, 0); err != nil {
		b.Fatal(err)
	}
	if err := g.ConnectOut(id); err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkAblationEngineSequential measures the deterministic
// virtual-time engine's per-tuple overhead.
func BenchmarkAblationEngineSequential(b *testing.B) {
	var n int64
	g := filterGraph(b, func(stream.Element) { n++ }, b.N)
	b.ResetTimer()
	g.Run(-1)
	if b.N > 1000 && n == 0 {
		b.Fatal("no output")
	}
}

// BenchmarkAblationEngineConcurrent measures the goroutine/channel
// engine on the same pipeline.
func BenchmarkAblationEngineConcurrent(b *testing.B) {
	var n int64
	g := filterGraph(b, func(stream.Element) { atomic.AddInt64(&n, 1) }, b.N)
	b.ResetTimer()
	g.RunWith(-1, exec.RunOptions{ChanCap: 256})
	if b.N > 1000 && atomic.LoadInt64(&n) == 0 {
		b.Fatal("no output")
	}
}

// replayElems materializes a traffic stream once so the benchmarks
// below measure engine overhead, not tuple generation (the generator
// alone costs ~340 ns/element — more than the batched engine itself).
func replayElems(b *testing.B, n int) (*tuple.Schema, []stream.Element) {
	b.Helper()
	sch := stream.TrafficSchema("Traffic")
	elems := stream.Drain(stream.Limit(stream.NewTrafficStream(1, 1e6, 1000), n), -1)
	if len(elems) != n {
		b.Fatalf("generated %d elements, want %d", len(elems), n)
	}
	return sch, elems
}

func replayFilterGraph(b *testing.B, sch *tuple.Schema, elems []stream.Element, sink exec.Sink) *exec.Graph {
	b.Helper()
	g := exec.NewGraph(sink)
	src := g.AddSource(stream.FromElements(sch, elems...))
	pred, err := expr.NewBin(expr.OpGt, expr.MustColumn(sch, "length"), expr.Constant(tuple.Int(512)))
	if err != nil {
		b.Fatal(err)
	}
	sel, err := ops.NewSelect("sel", sch, pred, -1, 1)
	if err != nil {
		b.Fatal(err)
	}
	id := g.AddOp(sel)
	if err := g.ConnectSource(src, id, 0); err != nil {
		b.Fatal(err)
	}
	if err := g.ConnectOut(id); err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkAblationBatchSize isolates the micro-batching win: the same
// source -> select -> sink pipeline at batch sizes 1 (element-at-a-time
// semantics) through 256. Throughput is reported as elems/s over the
// replayed input.
func BenchmarkAblationBatchSize(b *testing.B) {
	const nElems = 200000
	sch, elems := replayElems(b, nElems)
	for _, bs := range []int{1, 8, 64, 256} {
		b.Run(fmtBatch("batch", bs), func(b *testing.B) {
			var n int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := replayFilterGraph(b, sch, elems, func(stream.Element) { n++ })
				g.RunWith(-1, exec.RunOptions{BatchSize: bs})
			}
			b.StopTimer()
			b.ReportMetric(float64(nElems)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
			if n == 0 {
				b.Fatal("no output")
			}
		})
	}
}

// BenchmarkAblationParallelSelect replicates the selection operator
// N-ways (order-restoring merge included). On a single-core host this
// measures the replication machinery's overhead rather than a speedup;
// the predicate is made deliberately costly so the split/merge tax is
// amortized the way a real deployment would see it.
func BenchmarkAblationParallelSelect(b *testing.B) {
	const nElems = 100000
	sch, elems := replayElems(b, nElems)
	for _, par := range []int{1, 2, 4} {
		b.Run(fmtBatch("replicas", par), func(b *testing.B) {
			var n int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := exec.NewGraph(func(stream.Element) { n++ })
				src := g.AddSource(stream.FromElements(sch, elems...))
				// protocol = 6 AND length > 512 AND length <= 1200:
				// three compiled comparisons per tuple.
				p1, _ := expr.NewBin(expr.OpEq, expr.MustColumn(sch, "protocol"), expr.Constant(tuple.Uint(6)))
				p2, _ := expr.NewBin(expr.OpGt, expr.MustColumn(sch, "length"), expr.Constant(tuple.Int(512)))
				p3, _ := expr.NewBin(expr.OpLe, expr.MustColumn(sch, "length"), expr.Constant(tuple.Int(1200)))
				p12, _ := expr.NewBin(expr.OpAnd, p1, p2)
				pred, _ := expr.NewBin(expr.OpAnd, p12, p3)
				sel, err := ops.NewSelect("sel", sch, pred, -1, 1)
				if err != nil {
					b.Fatal(err)
				}
				id := g.AddOp(sel)
				if err := g.ConnectSource(src, id, 0); err != nil {
					b.Fatal(err)
				}
				if err := g.ConnectOut(id); err != nil {
					b.Fatal(err)
				}
				g.RunWith(-1, exec.RunOptions{BatchSize: 64, Parallelism: par})
			}
			b.StopTimer()
			b.ReportMetric(float64(nElems)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
			if n == 0 {
				b.Fatal("no output")
			}
		})
	}
}

func fmtBatch(prefix string, n int) string {
	return fmt.Sprintf("%s%d", prefix, n)
}

// colReplaySource replays pre-transposed column batches, standing in
// for a columnar transport (the v3 wire decodes straight into pooled
// batches). Like decode output, each batch is handed out exclusively
// owned — operators refine its selection vector in place, and the
// engine's final Release is a no-op on the unpooled replay storage, so
// the data survives across b.N iterations.
type colReplaySource struct {
	sch     *tuple.Schema
	batches []*stream.Batch
	at      int
}

func (c *colReplaySource) Schema() *tuple.Schema { return c.sch }
func (c *colReplaySource) Next() (stream.Element, bool) {
	return stream.Element{}, false
}
func (c *colReplaySource) NextColBatch(int) (*stream.Batch, bool) {
	if c.at >= len(c.batches) {
		return nil, false
	}
	b := c.batches[c.at]
	c.at++
	b.Sel = nil // undo the previous iteration's in-place refinement
	b.Retain()
	return b, c.at < len(c.batches)
}

// transposeElems builds the columnar replay image of elems once, so the
// benchmark measures operator and engine cost, not transposition.
func transposeElems(b *testing.B, sch *tuple.Schema, elems []stream.Element, bs int) []*stream.Batch {
	b.Helper()
	var batches []*stream.Batch
	mk := func() *stream.Batch {
		cb := &stream.Batch{Schema: sch, Ts: make([]int64, 0, bs), Cols: make([][]tuple.Value, sch.Arity())}
		for c := range cb.Cols {
			cb.Cols[c] = make([]tuple.Value, 0, bs)
		}
		return cb
	}
	cur := mk()
	for _, e := range elems {
		cur.AppendRow(e.Tuple)
		if cur.Rows() == bs {
			batches = append(batches, cur)
			cur = mk()
		}
	}
	if cur.Rows() > 0 {
		batches = append(batches, cur)
	}
	return batches
}

// BenchmarkAblationColumnar is the row-vs-columnar ablation (DESIGN.md
// §12): the same pipelines run element-at-a-time through the row engine
// and batch-at-a-time through column vectors with selection-vector
// kernels. "filter" is the 3-way AND selection of the parallel-select
// ablation; "paneagg" chains that filter into a pane-based sliding
// GroupBy, so the columnar lane exercises the kernel, the batch edges,
// and the columnar fold (dense key cache + typed update loops)
// end-to-end. Both lanes replay identical pre-built input.
func BenchmarkAblationColumnar(b *testing.B) {
	// Per-stage input sizes. The filter ablation stays cache-resident
	// (64k rows) so it measures per-row execution cost — the thing the
	// columnar engine changes — not DRAM streaming bandwidth (identical
	// for both lanes). The pane-agg ablation doubles that: its window
	// span (below) then retires panes mid-run, so the fold is measured
	// in steady state (recycled groups) rather than all-warmup.
	const nFilter = 1 << 16
	const nAgg = 1 << 17
	const bs = 256
	sch := tuple.NewSchema("B",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "g", Kind: tuple.KindInt},
		tuple.Field{Name: "v", Kind: tuple.KindFloat},
	)
	elems := make([]stream.Element, nAgg)
	for i := range elems {
		// 256 tuples per tick, 64 groups, v decorrelated from g so the
		// predicates below see per-conjunct (not degenerate) selectivity.
		ts := int64(i) / 256
		v := float64((i*31)%997) / 8
		elems[i] = stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(int64(i%64)), tuple.Float(v)))
	}
	batches := transposeElems(b, sch, elems, bs)
	// mkPred builds the 3-way AND of comparisons the parallel-select
	// ablation uses (compiled fast lane on the row path, refinement
	// kernels on the columnar path). vLo/vHi tune selectivity: the filter
	// ablation keeps few survivors (scan-dominated, the columnar showcase)
	// while the pane-agg ablation keeps most rows so the fold does the
	// work.
	mkPred := func(b *testing.B, vLo, vHi float64) expr.Expr {
		b.Helper()
		p1, err := expr.NewBin(expr.OpGe, expr.MustColumn(sch, "g"), expr.Constant(tuple.Int(8)))
		if err != nil {
			b.Fatal(err)
		}
		p2, err := expr.NewBin(expr.OpLt, expr.MustColumn(sch, "v"), expr.Constant(tuple.Float(vHi)))
		if err != nil {
			b.Fatal(err)
		}
		p3, err := expr.NewBin(expr.OpGe, expr.MustColumn(sch, "v"), expr.Constant(tuple.Float(vLo)))
		if err != nil {
			b.Fatal(err)
		}
		p12, err := expr.NewBin(expr.OpAnd, p1, p2)
		if err != nil {
			b.Fatal(err)
		}
		p, err := expr.NewBin(expr.OpAnd, p12, p3)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	mkGroupBy := func(b *testing.B) *agg.GroupBy {
		b.Helper()
		var aggs []agg.Spec
		for _, name := range []string{"sum", "count", "avg"} {
			f, err := agg.Lookup(name, false)
			if err != nil {
				b.Fatal(err)
			}
			s := agg.Spec{Fn: f, Name: name}
			if name != "count" {
				s.Arg = expr.MustColumn(sch, "v")
			}
			aggs = append(aggs, s)
		}
		gb, err := agg.NewGroupBy("q", sch,
			[]expr.Expr{expr.MustColumn(sch, "g")}, []string{"g"},
			aggs, window.Time(256, 64), nil)
		if err != nil {
			b.Fatal(err)
		}
		if !gb.UsesPanes() {
			b.Fatal("pane path not selected")
		}
		return gb
	}
	addSource := func(b *testing.B, g *exec.Graph, columnar bool, n int) int {
		b.Helper()
		if columnar {
			return g.AddSource(&colReplaySource{sch: sch, batches: batches[:n/bs]})
		}
		return g.AddSource(stream.FromElements(sch, elems[:n]...))
	}
	for _, agg := range []bool{false, true} {
		stage := "filter"
		if agg {
			stage = "paneagg"
		}
		for _, columnar := range []bool{false, true} {
			mode := "row"
			if columnar {
				mode = "columnar"
			}
			nElems := nFilter
			if agg {
				nElems = nAgg
			}
			b.Run(stage+"/"+mode, func(b *testing.B) {
				var n int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g := exec.NewGraph(func(stream.Element) { n++ })
					src := addSource(b, g, columnar, nElems)
					// ~10% survivors for the pure filter (scan-dominated);
					// ~80% feeding the aggregate, so the pane-agg ablation
					// is dominated by the fold it measures.
					vLo, vHi := 2.0, 15.0
					if agg {
						vLo, vHi = 2.0, 120.0
					}
					sel, err := ops.NewSelect("sel", sch, mkPred(b, vLo, vHi), -1, 1)
					if err != nil {
						b.Fatal(err)
					}
					last := g.AddOp(sel)
					if err := g.ConnectSource(src, last, 0); err != nil {
						b.Fatal(err)
					}
					if agg {
						gid := g.AddOp(mkGroupBy(b))
						if err := g.Connect(last, gid, 0); err != nil {
							b.Fatal(err)
						}
						last = gid
					}
					if err := g.ConnectOut(last); err != nil {
						b.Fatal(err)
					}
					opts := exec.RunOptions{BatchSize: bs, Columnar: columnar, ChanCap: 64}
					if columnar {
						// Columnar-aware sink: survivors are counted off
						// the batch, never materialized into rows.
						opts.ColSink = func(cb *stream.Batch) { n += int64(cb.N()) }
					}
					g.RunWith(-1, opts)
				}
				b.StopTimer()
				b.ReportMetric(float64(nElems)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
				if n == 0 {
					b.Fatal("no output")
				}
			})
		}
	}
}

// BenchmarkAblationJoinInvalidation compares the lazy ring-buffer
// invalidation against a worst-case small window, isolating expiry
// cost (DESIGN.md: "hash windows with lazy invalidation").
func BenchmarkAblationJoinInvalidation(b *testing.B) {
	for _, cfg := range []struct {
		name string
		win  int64
	}{
		{"wideWindow", 1 << 40},
		{"narrowWindow", 1000},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			a := tuple.NewSchema("A",
				tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
				tuple.Field{Name: "k", Kind: tuple.KindInt})
			bb := tuple.NewSchema("B",
				tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
				tuple.Field{Name: "k", Kind: tuple.KindInt})
			j, err := ops.NewWindowJoin("j", a, bb,
				ops.JoinConfig{Window: window.Tumbling(cfg.win), Method: ops.JoinHash, Key: []int{1}},
				ops.JoinConfig{Window: window.Tumbling(cfg.win), Method: ops.JoinHash, Key: []int{1}},
				nil)
			if err != nil {
				b.Fatal(err)
			}
			emit := func(stream.Element) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts := int64(i) * 10
				t := tuple.New(ts, tuple.Time(ts), tuple.Int(int64(i%1000)))
				j.Push(i&1, stream.Tup(t), emit)
			}
		})
	}
}

// BenchmarkAblationPartitionedJoin measures the key-partitioned join
// lane (DESIGN.md §9): an indexed-nested-loop window join behind the
// hash-split router at P ∈ {1, 2, 4, 8} partitions over key domains of
// 4, 1k, and 1M. INL probe cost is O(live window), and partitioning
// shrinks each replica's window to ~1/P of the serial one, so the
// speedup is algorithmic — probe-work reduction, not core count — and
// shows on a single-core host. keys4 caps the win at 4 partitions
// (hash skew: only 4 distinct routes exist); keys1M measures router and
// merge overhead when matches are rare.
func BenchmarkAblationPartitionedJoin(b *testing.B) {
	const nPerPort = 8192
	a := tuple.NewSchema("A",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindInt})
	bb := tuple.NewSchema("B",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindInt})
	mkElems := func(keys, salt int64) ([]stream.Element, []stream.Element) {
		lr := [2][]stream.Element{}
		for port := int64(0); port < 2; port++ {
			elems := make([]stream.Element, nPerPort)
			for i := range elems {
				ts := 2*int64(i) + port
				k := (int64(i)*2654435761 + salt + port) % keys
				elems[i] = stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(k)))
			}
			lr[port] = elems
		}
		return lr[0], lr[1]
	}
	for _, keys := range []int64{4, 1000, 1000000} {
		// Each side holds ~rng/2 live tuples at steady state. The
		// low-cardinality cell gets a smaller window: with 4 keys every
		// probe matches ~1/4 of the window, so output volume (not probe
		// work) is quadratic in window size and would swamp the cell.
		rng := int64(4096)
		if keys == 4 {
			rng = 1024
		}
		left, right := mkElems(keys, keys)
		for _, p := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("keys%d/P%d", keys, p), func(b *testing.B) {
				var n int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g := exec.NewGraph(func(stream.Element) { n++ })
					sl := g.AddSource(stream.FromElements(a, left...))
					sr := g.AddSource(stream.FromElements(bb, right...))
					j, err := ops.NewWindowJoin("j", a, bb,
						ops.JoinConfig{Window: window.Time(rng, rng), Method: ops.JoinNestedLoop, Key: []int{1}},
						ops.JoinConfig{Window: window.Time(rng, rng), Method: ops.JoinNestedLoop, Key: []int{1}},
						nil)
					if err != nil {
						b.Fatal(err)
					}
					id := g.AddOp(j)
					if err := g.ConnectSource(sl, id, 0); err != nil {
						b.Fatal(err)
					}
					if err := g.ConnectSource(sr, id, 1); err != nil {
						b.Fatal(err)
					}
					if err := g.ConnectOut(id); err != nil {
						b.Fatal(err)
					}
					g.RunWith(-1, exec.RunOptions{
						BatchSize: 64, Parallelism: p,
						ForceParallelism: true, PartitionJoins: true,
					})
				}
				b.StopTimer()
				b.ReportMetric(float64(2*nPerPort)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
				if keys < 1000000 && n == 0 {
					b.Fatal("no join output")
				}
			})
		}
	}
}

// BenchmarkAblationColumnarJoin reruns the partitioned-join workload
// with hash windows on both sides and toggles RunOptions.Columnar:
// same hash-split router and seq-restoring merge, but the columnar
// lane hashes the key column once per batch at the splitter, routes
// row-index spans that share the retained batch, bulk-inserts run
// segments into the window, and probes whole selection vectors with
// column-wise gather into arena batches (DESIGN.md §13). Sources
// replay pre-transposed batches and the sink is columnar-aware, so
// the row/columnar delta is engine + operator cost, not
// transposition. The win is per-tuple overhead elimination — hashing,
// routing, window insert, probe dispatch — so it compounds with
// partition width instead of competing with it.
func BenchmarkAblationColumnarJoin(b *testing.B) {
	const nPerPort = 8192
	const bs = 64
	a := tuple.NewSchema("A",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindInt})
	bb := tuple.NewSchema("B",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindInt})
	mkElems := func(keys, salt int64) ([]stream.Element, []stream.Element) {
		lr := [2][]stream.Element{}
		for port := int64(0); port < 2; port++ {
			elems := make([]stream.Element, nPerPort)
			for i := range elems {
				ts := 2*int64(i) + port
				k := (int64(i)*2654435761 + salt + port) % keys
				elems[i] = stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(k)))
			}
			lr[port] = elems
		}
		return lr[0], lr[1]
	}
	for _, keys := range []int64{4, 1000, 1000000} {
		// Same cardinality grid and window sizing as the row-lane
		// partitioned-join ablation so the two benches stay comparable.
		rng := int64(4096)
		if keys == 4 {
			rng = 1024
		}
		left, right := mkElems(keys, keys)
		lb := transposeElems(b, a, left, bs)
		rb := transposeElems(b, bb, right, bs)
		for _, p := range []int{1, 2, 4} {
			for _, columnar := range []bool{false, true} {
				mode := "row"
				if columnar {
					mode = "columnar"
				}
				b.Run(fmt.Sprintf("keys%d/P%d/%s", keys, p, mode), func(b *testing.B) {
					var n int64
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						g := exec.NewGraph(func(stream.Element) { n++ })
						var sl, sr int
						if columnar {
							sl = g.AddSource(&colReplaySource{sch: a, batches: lb})
							sr = g.AddSource(&colReplaySource{sch: bb, batches: rb})
						} else {
							sl = g.AddSource(stream.FromElements(a, left...))
							sr = g.AddSource(stream.FromElements(bb, right...))
						}
						j, err := ops.NewWindowJoin("j", a, bb,
							ops.JoinConfig{Window: window.Time(rng, rng), Method: ops.JoinHash, Key: []int{1}},
							ops.JoinConfig{Window: window.Time(rng, rng), Method: ops.JoinHash, Key: []int{1}},
							nil)
						if err != nil {
							b.Fatal(err)
						}
						id := g.AddOp(j)
						if err := g.ConnectSource(sl, id, 0); err != nil {
							b.Fatal(err)
						}
						if err := g.ConnectSource(sr, id, 1); err != nil {
							b.Fatal(err)
						}
						if err := g.ConnectOut(id); err != nil {
							b.Fatal(err)
						}
						opts := exec.RunOptions{
							BatchSize: bs, Parallelism: p,
							ForceParallelism: true, PartitionJoins: true,
							Columnar: columnar,
						}
						if columnar {
							// Columnar-aware sink: join output batches are
							// counted off the batch, never materialized.
							opts.ColSink = func(cb *stream.Batch) { n += int64(cb.N()) }
						}
						g.RunWith(-1, opts)
					}
					b.StopTimer()
					b.ReportMetric(float64(2*nPerPort)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
					if keys < 1000000 && n == 0 {
						b.Fatal("no join output")
					}
				})
			}
		}
	}
}

// BenchmarkAblationPanes compares pane-based sliding-window aggregation
// against the legacy per-window path on a range = 64·slide sliding
// sum/count/avg (DESIGN.md §8). Legacy folds every tuple into all 64
// covering windows; panes fold it into exactly one slide-aligned pane
// and merge fixed-arity partials at window close, so both per-tuple
// time and allocations should drop by more than an order of magnitude.
func BenchmarkAblationPanes(b *testing.B) {
	const groups = 64
	sch := tuple.NewSchema("B",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "g", Kind: tuple.KindInt},
		tuple.Field{Name: "v", Kind: tuple.KindFloat},
	)
	mk := func(b *testing.B, panes bool) *agg.GroupBy {
		b.Helper()
		var aggs []agg.Spec
		for _, name := range []string{"sum", "count", "avg"} {
			f, err := agg.Lookup(name, false)
			if err != nil {
				b.Fatal(err)
			}
			s := agg.Spec{Fn: f, Name: name}
			if name != "count" {
				s.Arg = expr.MustColumn(sch, "v")
			}
			aggs = append(aggs, s)
		}
		gb, err := agg.NewGroupBy("q", sch,
			[]expr.Expr{expr.MustColumn(sch, "g")}, []string{"g"},
			aggs, window.Time(640, 10), nil)
		if err != nil {
			b.Fatal(err)
		}
		if !panes {
			gb.DisablePanes()
		} else if !gb.UsesPanes() {
			b.Fatal("pane path not selected")
		}
		return gb
	}
	// Pre-built stream so the measurement is operator cost, not tuple
	// construction: 64 tuples per time tick (packet-rate density), so
	// each slide-10 pane aggregates 640 tuples — the regime pane
	// sharing is built for.
	const nElems = 1 << 19
	elems := make([]stream.Element, nElems)
	for i := range elems {
		ts := int64(i) / 64
		elems[i] = stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(int64(i%groups)), tuple.Float(float64(i%64)/4)))
	}
	for _, panes := range []bool{true, false} {
		name := "legacy"
		if panes {
			name = "panes"
		}
		b.Run(name, func(b *testing.B) {
			emit := func(stream.Element) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gb := mk(b, panes)
				for _, e := range elems {
					gb.Push(0, e, emit)
				}
				gb.Flush(emit)
			}
			b.ReportMetric(float64(nElems)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
		})
	}
}

// BenchmarkAblationQuantiles compares GK against reservoir sampling at
// the same memory budget (DESIGN.md: "GK quantiles vs sampling").
func BenchmarkAblationQuantiles(b *testing.B) {
	b.Run("gk", func(b *testing.B) {
		gk := synopsis.NewGK(0.01)
		for i := 0; i < b.N; i++ {
			gk.Add(float64(i % 100000))
		}
		if _, ok := gk.Query(0.5); !ok && b.N > 0 {
			b.Fatal("no quantile")
		}
	})
	b.Run("reservoir", func(b *testing.B) {
		r := synopsis.NewReservoir(1000, 1)
		for i := 0; i < b.N; i++ {
			r.Add(tuple.Float(float64(i % 100000)))
		}
		if _, ok := r.EstimateQuantile(0.5); !ok && b.N > 0 {
			b.Fatal("no quantile")
		}
	})
}

// BenchmarkAblationAdaptive prices the adaptive controller against the
// static engine on the same below-capacity pipelines: an unpaced replay
// keeps every queue near-full or near-empty by engine rhythm alone, the
// controller ticks at its default cadence, and — because adaptation
// only reads atomics the engine already maintains and the workloads
// never cross the shedding threshold — the two configurations should
// sit within noise of each other. The adaptive join cell additionally
// carries the live-rescale machinery (quiesce/snapshot/restore protocol
// compiled in, splitter re-checking wantP per message), so it bounds
// the standing tax of making a key-partitioned replica set re-splittable.
func BenchmarkAblationAdaptive(b *testing.B) {
	const nElems = 200000
	sch, elems := replayElems(b, nElems)
	// Three select cells: static p=1 (the plain lane), static p=2 (the
	// replication lane the adaptive pool ceiling also engages), and
	// adaptive with ceiling 2. The controller's own tax is the
	// static-p2 -> adaptive delta; the static-p1 -> static-p2 delta is
	// the pre-existing price of the seq-tagged replication merge.
	for _, cell := range []struct {
		mode  string
		par   int
		adapt bool
	}{{"static", 1, false}, {"static-p2", 2, false}, {"adaptive", 1, true}} {
		cell := cell
		b.Run("select/"+cell.mode, func(b *testing.B) {
			var n int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := replayFilterGraph(b, sch, elems, func(stream.Element) { n++ })
				opts := exec.RunOptions{BatchSize: 64,
					Parallelism: cell.par, ForceParallelism: true}
				if cell.adapt {
					opts.Adapt = &exec.AdaptConfig{MaxParallelism: 2}
				}
				g.RunWith(-1, opts)
			}
			b.StopTimer()
			b.ReportMetric(float64(nElems)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
			if n == 0 {
				b.Fatal("no output")
			}
		})
	}

	const nPerPort = 8192
	a := tuple.NewSchema("A",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindInt})
	bb := tuple.NewSchema("B",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindInt})
	mk := func(port int64) []stream.Element {
		elems := make([]stream.Element, nPerPort)
		for i := range elems {
			ts := 2*int64(i) + port
			k := (int64(i)*2654435761 + port) % 1000
			elems[i] = stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(k)))
		}
		return elems
	}
	left, right := mk(0), mk(1)
	for _, adaptive := range []bool{false, true} {
		mode := "static"
		if adaptive {
			mode = "adaptive"
		}
		b.Run("partjoin/"+mode, func(b *testing.B) {
			var n int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := exec.NewGraph(func(stream.Element) { n++ })
				sl := g.AddSource(stream.FromElements(a, left...))
				sr := g.AddSource(stream.FromElements(bb, right...))
				j, err := ops.NewWindowJoin("j", a, bb,
					ops.JoinConfig{Window: window.Time(4096, 4096), Method: ops.JoinHash, Key: []int{1}},
					ops.JoinConfig{Window: window.Time(4096, 4096), Method: ops.JoinHash, Key: []int{1}},
					nil)
				if err != nil {
					b.Fatal(err)
				}
				id := g.AddOp(j)
				if err := g.ConnectSource(sl, id, 0); err != nil {
					b.Fatal(err)
				}
				if err := g.ConnectSource(sr, id, 1); err != nil {
					b.Fatal(err)
				}
				if err := g.ConnectOut(id); err != nil {
					b.Fatal(err)
				}
				opts := exec.RunOptions{
					BatchSize: 64, Parallelism: 2,
					ForceParallelism: true, PartitionJoins: true,
				}
				if adaptive {
					opts.Parallelism = 1
					opts.Adapt = &exec.AdaptConfig{MaxParallelism: 2}
				}
				g.RunWith(-1, opts)
			}
			b.StopTimer()
			b.ReportMetric(float64(2*nPerPort)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
			if n == 0 {
				b.Fatal("no join output")
			}
		})
	}
}

// sharedSelectPreds builds the standing-query predicate fleet for the
// shared-execution ablation: nq queries drawn round-robin from 32
// distinct templates over the traffic schema — simple comparisons,
// mirrored spellings, and AND-conjunctions sharing a leading conjunct
// so the shared node's canonical dedupe and prefix factoring both
// engage. Canonical conjunct order is lexical by rendering, so the
// common conjuncts are chosen to sort before their per-query
// refinements ("(length > 900)" < "(time > ...)"); refinement
// timestamps are spread across [ts0, ts1], the trace's span.
func sharedSelectPreds(b *testing.B, sch *tuple.Schema, nq int, ts0, ts1 int64) []expr.Expr {
	b.Helper()
	length := expr.MustColumn(sch, "length")
	tcol := expr.MustColumn(sch, "time")
	lit := func(n int64) expr.Expr { return expr.Constant(tuple.Int(n)) }
	bin := func(op expr.BinOp, l, r expr.Expr) expr.Expr {
		e, err := expr.NewBin(op, l, r)
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	templates := make([]expr.Expr, 32)
	for k := range templates {
		th := int64(100 + 40*k)
		after := bin(expr.OpGt, tcol,
			expr.Constant(tuple.Time(ts0+(ts1-ts0)*int64(k/4+1)/10)))
		switch k % 4 {
		case 0:
			templates[k] = bin(expr.OpGt, length, lit(th))
		case 1:
			templates[k] = bin(expr.OpLt, lit(th), length) // mirrored spelling
		case 2: // 8 queries sharing leading conjunct length > 900
			templates[k] = bin(expr.OpAnd, bin(expr.OpGt, length, lit(900)), after)
		default: // 8 queries sharing leading conjunct length < 300
			templates[k] = bin(expr.OpAnd, bin(expr.OpLt, length, lit(300)), after)
		}
	}
	preds := make([]expr.Expr, nq)
	for q := range preds {
		preds[q] = templates[q%len(templates)]
	}
	return preds
}

// BenchmarkAblationSharedSelect is the multi-query sharing ablation
// (DESIGN.md §15): nq standing queries over one traffic stream, run
// unshared (one dedicated Select per query re-scanning every batch) vs
// shared (one SharedSelect evaluating each distinct predicate once per
// batch and fanning out selection-vector views). Per-query sinks just
// count matches, so the measurement isolates predicate evaluation and
// fan-out — the costs sharing changes. Throughput is source elems/s:
// at high query counts the shared lane's near-flat per-batch cost is
// the headline.
func BenchmarkAblationSharedSelect(b *testing.B) {
	const nElems = 1 << 15
	const bs = 256
	sch, raw := replayElems(b, nElems)
	elems := raw[:0:0]
	for _, e := range raw {
		if !e.IsPunct() {
			elems = append(elems, e)
		}
	}
	batches := transposeElems(b, sch, elems, bs)
	ts0, ts1 := elems[0].Ts(), elems[len(elems)-1].Ts()
	for _, nq := range []int{1, 16, 256, 1024} {
		preds := sharedSelectPreds(b, sch, nq, ts0, ts1)
		b.Run(fmt.Sprintf("queries=%d/unshared", nq), func(b *testing.B) {
			sels := make([]*ops.Select, nq)
			for q, p := range preds {
				sel, err := ops.NewSelect(fmt.Sprintf("q%d", q), sch, p, -1, 1)
				if err != nil {
					b.Fatal(err)
				}
				sels[q] = sel
			}
			var n int64
			emitB := func(ob *stream.Batch) {
				n += int64(ob.N())
				ob.Release()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, cb := range batches {
					for _, sel := range sels {
						cb.Retain()
						sel.ProcessBatch(0, cb, emitB, nil)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(elems))*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
			if n == 0 {
				b.Fatal("no output")
			}
		})
		b.Run(fmt.Sprintf("queries=%d/shared", nq), func(b *testing.B) {
			ss := share.NewSharedSelect("ss", sch)
			var n int64
			for _, p := range preds {
				_, err := ss.RegisterSinks(p, share.Sinks{
					Row: func(stream.Element) { n++ },
					Col: func(ob *stream.Batch) { n += int64(ob.N()) },
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, cb := range batches {
					cb.Retain()
					ss.ProcessBatch(0, cb, nil, nil)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(elems))*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
			if n == 0 {
				b.Fatal("no output")
			}
		})
	}
}
