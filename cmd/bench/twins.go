package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"streamdb/internal/dsms"
	"streamdb/internal/exec"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// The layer ladder: the harness drives hand-built twins of the plan's
// operators chunk by chunk through Push and ProcessBatch, one span per
// layer call, then runs the same twins under each engine. Layer costs
// are divided by the workload's input tuples (not by the rows a layer
// happened to see), so they add up to the front door's cost per tuple.

// perTuple is the total time of the spans named name recorded since
// span index from, in ns per input tuple.
func (r *layerRun) perTuple(from int, name string) float64 {
	return float64(r.tr.byName(from)[name]) / r.n
}

// rowLadder pushes the input through the twin's operators one stage at
// a time per chunk: select (or join), group-by, project, sink.
func (r *layerRun) rowLadder() error {
	w := r.w
	tw, err := w.newTwin()
	if err != nil {
		return err
	}
	from := len(r.tr.spans)
	var d digest
	var a, b, c []stream.Element
	toA := func(e stream.Element) { a = append(a, e) }
	toB := func(e stream.Element) { b = append(b, e) }
	toC := func(e stream.Element) { c = append(c, e) }
	var closes []float64
	nextClose := int64(0)
	var peakMem int
	var gbRows, joinRows int

	// groupBy runs the aggregate stage over the rows in a, into b.
	groupBy := func(id, root int32) {
		sp := r.tr.begin("agg.groupby", id, root)
		b = b[:0]
		for _, e := range a {
			if ts := e.Tuple.Ts; ts >= nextClose {
				// This arrival moves time past a window end: the Push that
				// follows emits every group of the closing window.
				csp := r.tr.begin("agg.window_close", id, sp)
				tw.gb.Push(0, e, toB)
				r.tr.end(csp)
				if nextClose > 0 {
					s := r.tr.spans[csp]
					closes = append(closes, float64(s.End-s.Start)/1e3)
				}
				nextClose = (ts/w.slide + 1) * w.slide
				continue
			}
			tw.gb.Push(0, e, toB)
		}
		r.tr.end(sp)
	}
	// tail projects rows and hands the result to the sink.
	tail := func(id, root int32, rows []stream.Element) {
		sp := r.tr.begin("ops.project", id, root)
		c = c[:0]
		for _, e := range rows {
			tw.proj.Push(0, e, toC)
		}
		r.tr.end(sp)
		sp = r.tr.begin("harness.sink", id, root)
		for _, e := range c {
			d.addTuple(e.Tuple)
		}
		r.tr.end(sp)
	}

	for lo, id := 0, int32(0); lo < len(r.in); lo, id = lo+chunk, id+1 {
		hi := lo + chunk
		if hi > len(r.in) {
			hi = len(r.in)
		}
		root := r.tr.begin("chunk.row", id, -1)
		a = a[:0]
		if tw.join != nil {
			sp := r.tr.begin("ops.join", id, root)
			for _, pe := range r.in[lo:hi] {
				tw.join.Push(pe.port, pe.e, toA)
			}
			r.tr.end(sp)
			joinRows += len(a)
		} else {
			sp := r.tr.begin("ops.select", id, root)
			for _, pe := range r.in[lo:hi] {
				tw.sel.Push(0, pe.e, toA)
			}
			r.tr.end(sp)
		}
		if tw.gb != nil {
			groupBy(id, root)
			gbRows += len(b)
			tail(id, root, b)
		} else {
			tail(id, root, a)
		}
		r.tr.end(root)
		if id%16 == 0 {
			// State size, sampled outside the spans: MemSize walks the state.
			if m := tw.stateBytes(); m > peakMem {
				peakMem = m
			}
		}
	}
	if tw.gb != nil {
		// End of stream: windows still open flush through the same stages.
		id := int32(len(r.in)/chunk + 1)
		root := r.tr.begin("chunk.row", id, -1)
		sp := r.tr.begin("agg.groupby", id, root)
		b = b[:0]
		tw.gb.Flush(toB)
		r.tr.end(sp)
		gbRows += len(b)
		tail(id, root, b)
		r.tr.end(root)
	}
	r.check("row ladder", d, nil)

	m := r.m
	m["ops.select_ns_per_tuple"] = r.perTuple(from, "ops.select")
	m["ops.project_ns_per_tuple"] = r.perTuple(from, "ops.project")
	m["harness.sink_ns_per_tuple"] = r.perTuple(from, "harness.sink")
	switch w.shape {
	case shapeAgg:
		m["agg.groupby_ns_per_tuple"] = r.perTuple(from, "agg.groupby")
		m["agg.window_close_us"] = median(closes)
		m["agg.rows_out_per_in"] = float64(gbRows) / r.n
		m["agg.mem_peak_bytes"] = float64(peakMem)
	case shapeJoin:
		m["ops.join_ns_per_tuple"] = r.perTuple(from, "ops.join")
		m["ops.join_out_per_in"] = float64(joinRows) / r.n
		m["ops.join_mem_peak_bytes"] = float64(peakMem)
	}
	return nil
}

// stateBytes is the twin's operator state footprint.
func (tw *twin) stateBytes() int {
	switch {
	case tw.gb != nil:
		return tw.gb.MemSize()
	case tw.join != nil:
		return tw.join.MemSize()
	}
	return 0
}

// batchLadder drives the same twins through their columnar surface:
// transpose, ProcessBatch per stage, gather rows at the end. The join
// takes the input as runs of consecutive same-port tuples, which is what
// preserves the arrival order it depends on; such runs are a few tuples
// long, so each layer's calls are summed into one span per chunk.
func (r *layerRun) batchLadder() error {
	w := r.w
	tw, err := w.newTwin()
	if err != nil {
		return err
	}
	from := len(r.tr.spans)
	var d digest
	pool := stream.NewColPool(w.slabs[0].sch, chunk)
	var held *stream.Batch
	hold := func(b *stream.Batch) { held = b }
	var rows, out []stream.Element
	toRows := func(e stream.Element) { rows = append(rows, e) }
	toOut := func(e stream.Element) { out = append(out, e) }

	first := "ops.select_batch"
	if tw.join != nil {
		first = "ops.join_batch"
	}
	layers := []string{"stream.transpose", first, "agg.groupby_batch", "ops.project_batch", "stream.gather", "ops.project", "harness.sink"}
	const (
		lTranspose = iota
		lFirst
		lGroupBy
		lProjectBatch
		lGather
		lProject
		lSink
	)
	var ns [7]int64
	clock := func(layer int, t0 time.Time) { ns[layer] += time.Since(t0).Nanoseconds() }
	// tail projects whatever the stages before it left in held and rows,
	// and hands the result to the sink.
	tail := func() {
		out = out[:0]
		if b := held; b != nil {
			held = nil
			t0 := time.Now()
			tw.proj.ProcessBatch(0, b, hold, nil)
			clock(lProjectBatch, t0)
			if held != nil {
				t0 = time.Now()
				out = held.AppendRows(out)
				held.Release()
				clock(lGather, t0)
			}
		}
		if len(rows) > 0 {
			t0 := time.Now()
			for _, e := range rows {
				tw.proj.Push(0, e, toOut)
			}
			clock(lProject, t0)
		}
		t0 := time.Now()
		for _, e := range out {
			d.addTuple(e.Tuple)
		}
		clock(lSink, t0)
	}
	// endChunk lays the chunk's summed layer times end to end as spans.
	endChunk := func(id, root int32) {
		at := r.tr.spans[root].Start
		for l, name := range layers {
			if ns[l] > 0 {
				r.tr.add(name, id, root, at, ns[l])
				at += ns[l]
				ns[l] = 0
			}
		}
		r.tr.end(root)
	}

	id := int32(0)
	for lo := 0; lo < len(r.in); id++ {
		end := min(lo+chunk, len(r.in))
		root := r.tr.begin("chunk.batch", id, -1)
		for lo < end {
			hi := lo + 1
			for hi < end && (tw.join == nil || r.in[hi].port == r.in[lo].port) {
				hi++
			}
			t0 := time.Now()
			b := pool.Get()
			for _, pe := range r.in[lo:hi] {
				b.AppendRow(pe.e.Tuple)
			}
			clock(lTranspose, t0)
			held, rows = nil, rows[:0]
			t0 = time.Now()
			if tw.join != nil {
				tw.join.ProcessBatch(r.in[lo].port, b, hold, toRows)
			} else {
				tw.sel.ProcessBatch(0, b, hold, nil)
			}
			clock(lFirst, t0)
			if tw.gb != nil && held != nil {
				t0 = time.Now()
				tw.gb.ProcessBatch(0, held, nil, toRows)
				clock(lGroupBy, t0)
				held = nil
			}
			tail()
			lo = hi
		}
		endChunk(id, root)
	}
	if tw.gb != nil {
		root := r.tr.begin("chunk.batch", id, -1)
		held, rows = nil, rows[:0]
		t0 := time.Now()
		tw.gb.Flush(toRows)
		clock(lGroupBy, t0)
		tail()
		endChunk(id, root)
	}
	r.check("batch ladder", d, nil)

	m := r.m
	m["stream.transpose_ns_per_tuple"] = r.perTuple(from, "stream.transpose")
	m["stream.gather_ns_per_tuple"] = r.perTuple(from, "stream.gather")
	m["ops.select_batch_ns_per_tuple"] = r.perTuple(from, "ops.select_batch")
	m["agg.groupby_batch_ns_per_tuple"] = r.perTuple(from, "agg.groupby_batch")
	m["ops.join_batch_ns_per_tuple"] = r.perTuple(from, "ops.join_batch")
	return nil
}

// twinGraph wires a fresh twin into a graph over the given sources.
func (w *workload) twinGraph(sink exec.Sink, srcs []stream.Source) (*exec.Graph, error) {
	tw, err := w.newTwin()
	if err != nil {
		return nil, err
	}
	g := exec.NewGraph(sink)
	var chain []ops.Operator
	switch w.shape {
	case shapeFilter:
		chain = []ops.Operator{tw.sel, tw.proj}
	case shapeAgg:
		chain = []ops.Operator{tw.sel, tw.gb, tw.proj}
	case shapeJoin:
		chain = []ops.Operator{tw.join, tw.proj}
	}
	ids := make([]exec.NodeID, len(chain))
	for i, op := range chain {
		ids[i] = g.AddOp(op)
		if i > 0 {
			if err := g.Connect(ids[i-1], ids[i], 0); err != nil {
				return nil, err
			}
		}
	}
	for port, src := range srcs {
		if err := g.ConnectSource(g.AddSource(src), ids[0], port); err != nil {
			return nil, err
		}
	}
	return g, g.ConnectOut(ids[len(ids)-1])
}

func (w *workload) sliceSources() []stream.Source {
	srcs := make([]stream.Source, len(w.slabs))
	for k, sl := range w.slabs {
		srcs[k] = stream.FromElements(sl.sch, sl.elems...)
	}
	return srcs
}

// engines runs the twin graph under the serial loop and under RunWith
// row and columnar lanes. Joins take the partition router on every
// concurrent lane: without it cross-port arrival order is arbitrary and
// a time-windowed join's output with it.
func (r *layerRun) engines() error {
	w := r.w
	var g *exec.Graph
	lane := func(what string, run func(g *exec.Graph)) (float64, error) {
		return timed(r.budget, func() (time.Duration, error) {
			var d digest
			var err error
			g, err = w.twinGraph(tuplesTo(d.addTuple), w.sliceSources())
			if err != nil {
				return 0, err
			}
			t := time.Now()
			run(g)
			took := time.Since(t)
			r.check(what, d, g.Err())
			return took, nil
		})
	}
	m := r.m
	ns, err := lane("twin under Graph.Run", func(g *exec.Graph) { g.Run(-1) })
	if err != nil {
		return err
	}
	m["exec.serial_ns_per_tuple"] = ns / r.n
	driver := ns / r.n

	if w.door == doorFeed {
		// The standing query's driver: one Queue.Feed and one Pump per
		// arrival instead of one Run over the whole input.
		ns, err = timed(r.budget, func() (time.Duration, error) {
			var d digest
			q := stream.NewQueue(w.slabs[0].sch)
			g, err := w.twinGraph(tuplesTo(d.addTuple), []stream.Source{q})
			if err != nil {
				return 0, err
			}
			t := time.Now()
			for _, e := range w.slabs[0].elems {
				q.Feed(e)
				g.Pump(-1)
			}
			g.Finish()
			took := time.Since(t)
			r.check("twin under Queue.Feed+Pump", d, g.Err())
			return took, nil
		})
		if err != nil {
			return err
		}
		m["exec.pump_ns_per_feed"] = ns / r.n
		driver = ns / r.n
	}
	operators := m["ops.select_ns_per_tuple"] + m["ops.join_ns_per_tuple"] + m["agg.groupby_ns_per_tuple"] +
		m["ops.project_ns_per_tuple"] + m["harness.sink_ns_per_tuple"]
	source := m["stream.source_next_ns_per_tuple"]
	if w.door == doorFeed {
		source = 0 // Queue.Feed and Next are inside the per-arrival driver cost
	}
	m["exec.serial_overhead_ns_per_tuple"] = driver - operators - source

	join := w.shape == shapeJoin
	for _, l := range []struct {
		metric string
		opts   exec.RunOptions
	}{
		{"exec.runwith_row_p1_ns_per_tuple", exec.RunOptions{BatchSize: wireBatchSize, PartitionJoins: join}},
		{"exec.runwith_col_p1_ns_per_tuple", exec.RunOptions{BatchSize: wireBatchSize, Columnar: true, PartitionJoins: join}},
		{"exec.runwith_col_p2_ns_per_tuple", exec.RunOptions{BatchSize: wireBatchSize, Columnar: true, Parallelism: wireParallel, PartitionJoins: join}},
	} {
		opts := l.opts
		ns, err := lane("twin under RunWith "+l.metric, func(g *exec.Graph) { g.RunWith(-1, opts) })
		if err != nil {
			return err
		}
		m[l.metric] = ns / r.n
	}
	// Counters of the last lane (columnar, parallelism 2).
	replicas := 0
	for _, st := range g.AllStats() {
		m["exec.row_fallbacks"] += float64(st.RowFallbacks)
		m["exec.batches"] += float64(st.Batches)
		if q := float64(st.MaxQueue); q > m["exec.max_queue"] {
			m["exec.max_queue"] = q
		}
		if st.Replicas > replicas {
			replicas = st.Replicas
		}
	}
	fmt.Fprintf(r.log, "%s: RunWith columnar p2/p1 = %.2f with NodeStats.Replicas = %d on GOMAXPROCS %d (shared cores: no wall-clock scaling is claimed)\n",
		w.name, m["exec.runwith_col_p2_ns_per_tuple"]/m["exec.runwith_col_p1_ns_per_tuple"], replicas, runtime.GOMAXPROCS(0))
	return nil
}

// codec times the v3 batch codec on the slab in wire-batch frames.
func (r *layerRun) codec() error {
	if r.w.door != doorWire {
		return nil
	}
	sl := r.w.slabs[0]
	var frames [][]byte
	bytes := 0
	ns, err := timed(r.budget/2, func() (time.Duration, error) {
		frames, bytes = frames[:0], 0
		t := time.Now()
		for lo := 0; lo < len(sl.tuples); lo += wireBatch {
			f, err := tuple.AppendEncodeBatch(nil, sl.sch, sl.tuples[lo:min(lo+wireBatch, len(sl.tuples))])
			if err != nil {
				return 0, err
			}
			frames = append(frames, f)
			bytes += len(f)
		}
		return time.Since(t), nil
	})
	if err != nil {
		return err
	}
	r.m["tuple.encode_batch_ns_per_tuple"] = ns / r.n
	r.m["tuple.wire_bytes_per_tuple"] = float64(bytes) / r.n
	var arena tuple.Arena
	var ms0, ms1 runtime.MemStats
	passes := 0.0
	runtime.ReadMemStats(&ms0)
	ns, err = timed(r.budget/2, func() (time.Duration, error) {
		passes++
		t := time.Now()
		for _, f := range frames {
			arena.Reset()
			if _, _, err := tuple.DecodeBatchInto(f, sl.sch, &arena); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	})
	runtime.ReadMemStats(&ms1)
	r.m["tuple.decode_batch_ns_per_tuple"] = ns / r.n
	r.m["tuple.decode_allocs_per_tuple"] = float64(ms1.Mallocs-ms0.Mallocs) / (passes * r.n)
	return err
}

// transport measures the wire with the engine taken away (a discard
// sink behind the session server), and reads the transport's share of
// the traced front-door pass.
func (r *layerRun) transport() error {
	w := r.w
	if w.door != doorWire {
		return nil
	}
	ns, err := timed(r.budget, func() (time.Duration, error) {
		t := time.Now()
		_, err := w.loopback(nil, nil)
		return time.Since(t), err
	})
	if err != nil {
		return err
	}
	r.m["dsms.loopback_tuples_per_s"] = r.n / (ns / 1e9)

	// Transit time at the reference rate: creation stamp to the server
	// handing the tuple's frame over, which is the sender's batching and
	// flush wait plus the socket and the decode.
	p := newPacer(w.refRate, r.budget, 0, true)
	var emitAt, stamp []int64
	epoch := time.Now()
	_, err = w.loopback(p, func(ts []*tuple.Tuple) {
		emitAt = append(emitAt, time.Since(epoch).Nanoseconds())
		stamp = append(stamp, ts[0].Ts)
	})
	w.restore()
	if err != nil {
		return err
	}
	offset := p.start.Sub(epoch).Nanoseconds()
	waits := make([]float64, len(emitAt))
	for i := range emitAt {
		waits[i] = float64(emitAt[i]-offset-stamp[i]) / 1e3
	}
	sort.Float64s(waits)
	r.m["dsms.flush_wait_us"] = median(waits)
	return nil
}

// loopback ships the slab (or a paced phase) through the session
// protocol to a server whose sink discards: the wire with nothing
// behind it. onBatch, when set, sees each delivered batch.
func (w *workload) loopback(p *pacer, onBatch func([]*tuple.Tuple)) (wireStats, error) {
	var ws wireStats
	sl := w.slabs[0]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ws, err
	}
	defer ln.Close()
	srv := dsms.NewSessionServer(ln, sl.sch, dsms.SessionConfig{ZeroCopy: true})
	served := make(chan error, 1)
	go func() {
		served <- srv.ServeBatches(1, func(_ string, ts []*tuple.Tuple, _ *tuple.Arena) {
			if onBatch != nil && len(ts) > 0 {
				onBatch(ts)
			}
		})
	}()
	wr, err := w.dialWriter(ln)
	if err != nil {
		return ws, err
	}
	sendErr := w.sendAll(wr, p, &ws, nil)
	closeErr := wr.Close()
	if sendErr != nil || closeErr != nil {
		ln.Close()
	}
	serveErr := <-served
	for _, e := range []error{sendErr, closeErr, serveErr} {
		if e != nil {
			return ws, e
		}
	}
	return ws, nil
}
