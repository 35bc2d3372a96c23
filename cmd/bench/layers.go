package main

import (
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"streamdb/internal/exec"
	"streamdb/internal/expr"
	"streamdb/internal/query"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// The traced run (-trace 1): the rate ladder, then every layer the
// workload's path crosses, measured from outside by timing calls into
// the layer's public functions on the workload's own input. Each layer
// pass must reproduce the front door's result digest, so a number never
// comes from a twin that computes something else.

// chunk is the tuples one trace id covers.
const chunk = 256

// timed runs fn until budget is spent (at least once) and returns the
// median of the durations it reports, in ns.
func timed(budget time.Duration, fn func() (time.Duration, error)) (float64, error) {
	var took []float64
	for deadline := time.Now().Add(budget); len(took) == 0 || (time.Now().Before(deadline) && len(took) < 25); {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		took = append(took, float64(d.Nanoseconds()))
	}
	return median(took), nil
}

// layerRun is everything the traced run learns about one workload.
type layerRun struct {
	w      *workload
	m      metricSet
	c      *checker
	tr     *tracer
	log    io.Writer
	in     []portElem
	want   digest  // the front door's closed-loop result
	n      float64 // input tuples per closed-loop pass
	budget time.Duration
}

// check fails the run's operation count when a twin's digest differs
// from the front door's.
func (r *layerRun) check(what string, got digest, err error) {
	r.c.pass(r.w.name+" "+what, got, r.want, err)
}

func measureLayers(s spec, o options, log io.Writer) (result, error) {
	genNs := timeGenerator(s)
	w, err := newWorkload(s, o.seed, o.quick)
	if err != nil {
		return result{}, err
	}
	r := &layerRun{w: w, m: metricSet{"stream.gen_ns_per_tuple": genNs}, c: &checker{log: log},
		tr: newTracer(), log: log, in: w.merged(), want: w.refClosed(), n: float64(w.inputTuples())}
	// 40% of the run goes to the ladder, the rest is split evenly over
	// the layer measurements (about a dozen per workload).
	r.budget = time.Duration(o.seconds * 0.6 / 12 * float64(time.Second))

	steps := []func() error{r.frontDoor, r.tracedFrontDoor, r.planning, r.source, r.predicate,
		r.rowLadder, r.batchLadder, r.engines, r.codec, r.transport}
	for _, step := range steps {
		if err := step(); err != nil {
			return result{}, err
		}
	}
	r.budgetView()
	r.ladder(o.seconds * 0.4 / float64(len(rungs)))

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.m["proc.max_rss_mb"] = float64(ru.Maxrss) / 1024
	}
	path, err := r.tr.write(o.out, s.name)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "%s: %d spans in %s; %d operations, %d failed\n", s.name, len(r.tr.spans), path, r.c.attempted, r.c.failed)
	return result{Correct: r.c.failed == 0, Attempted: r.c.attempted, Failed: r.c.failed, Metrics: r.m.render(perLayer)}, nil
}

// timeGenerator is the cost of making one input tuple, which set-up
// pays once per slab entry.
func timeGenerator(s spec) float64 {
	const n = 1 << 16
	gen := stream.NewTrafficStream(1, genRate, s.addrPool)
	t := time.Now()
	for i := 0; i < n; i++ {
		gen.Next()
	}
	return float64(time.Since(t).Nanoseconds()) / n
}

// frontDoor times untraced closed-loop passes back to back, with the
// process's CPU, allocation and GC counters read around them.
func (r *layerRun) frontDoor() error {
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return err
	}
	tuples := 0.0
	ns, err := timed(2*r.budget, func() (time.Duration, error) {
		res, err := r.w.pass(nil, nil, nil)
		r.check("front door", res.out, err)
		tuples += float64(res.in)
		return res.wall, nil
	})
	if err != nil {
		return err
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	cpu := func(ru syscall.Rusage) float64 {
		return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	r.m["query.frontdoor_ns_per_tuple"] = ns / r.n
	r.m["proc.cpu_s_per_mtuple"] = (cpu(ru1) - cpu(ru0)) / (tuples / 1e6)
	r.m["proc.alloc_bytes_per_tuple"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / tuples
	r.m["proc.allocs_per_tuple"] = float64(ms1.Mallocs-ms0.Mallocs) / tuples
	if cycles := ms1.NumGC - ms0.NumGC; cycles > 0 {
		r.m["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / float64(cycles) / 1e6
	}
	return nil
}

// sampleEvery is the stride at which the traced front door times
// single source and sink calls; the span carries the sample scaled up.
const sampleEvery = 8

// chunkTimer folds sampled per-call timings of the source and the sink
// into one span each per chunk of source calls.
type chunkTimer struct {
	tr             *tracer
	root           int32
	calls          int64
	srcNs, sinkNs  int64
	sinkCalls      int64
	chunkStartedNs int64
}

func (ct *chunkTimer) sourceCall(next func() (stream.Element, bool)) (stream.Element, bool) {
	sampled := ct.calls%sampleEvery == 0
	var t time.Time
	if sampled {
		t = time.Now()
	}
	e, ok := next()
	if sampled {
		ct.srcNs += sampleEvery * time.Since(t).Nanoseconds()
	}
	if ct.calls++; ct.calls%chunk == 0 || !ok {
		ct.flush()
	}
	return e, ok
}

// flush closes the current chunk: one span per decorated layer, laid
// end to end from the chunk's start.
func (ct *chunkTimer) flush() {
	id := int32((ct.calls - 1) / chunk)
	ct.tr.add("stream.source_next", id, ct.root, ct.chunkStartedNs, ct.srcNs)
	ct.tr.add("harness.sink", id, ct.root, ct.chunkStartedNs+ct.srcNs, ct.sinkNs)
	ct.srcNs, ct.sinkNs = 0, 0
	ct.chunkStartedNs = time.Since(ct.tr.t0).Nanoseconds()
}

func (ct *chunkTimer) sinkCall(sink func(*tuple.Tuple), t *tuple.Tuple) {
	if ct.sinkCalls++; ct.sinkCalls%sampleEvery != 0 {
		sink(t)
		return
	}
	t0 := time.Now()
	sink(t)
	ct.sinkNs += sampleEvery * time.Since(t0).Nanoseconds()
}

type tracedSource struct {
	stream.Source
	ct *chunkTimer
}

func (s *tracedSource) Next() (stream.Element, bool) { return s.ct.sourceCall(s.Source.Next) }

// tracedFrontDoor re-runs the front door with spans recorded from here:
// for the query door through the same public steps QueryInto takes,
// with a timing decorator on the sources and the sink; for the other
// doors around the Feed and Send calls. Its slowdown against the
// untraced pass is the tracing overhead.
func (r *layerRun) tracedFrontDoor() error {
	w := r.w
	var d digest
	var wall time.Duration
	var err error
	switch w.door {
	case doorQuery:
		d, wall, err = r.tracedQuery()
	default:
		var res passResult
		res, err = w.pass(nil, nil, r.tr)
		d, wall = res.out, res.wall
		if w.door == doorWire {
			ws := res.wire
			r.c.wire(w.name+" traced front door", ws)
			r.m["dsms.send_ns_per_tuple"] = float64(ws.sendNs) / r.n
			r.m["dsms.bytes_per_tuple"] = float64(ws.bytes) / r.n
			r.m["dsms.source_wait_share"] = ws.sourceWaitShare
			r.m["dsms.resent_tuples"] = float64(ws.resent)
			r.m["dsms.reconnects"] = float64(ws.reconnects)
		}
	}
	r.check("traced front door", d, err)
	if base := r.m["query.frontdoor_ns_per_tuple"] * r.n; base > 0 {
		r.m["trace.overhead_share"] = float64(wall.Nanoseconds())/base - 1
	}
	return nil
}

func (r *layerRun) tracedQuery() (digest, time.Duration, error) {
	w := r.w
	var d digest
	start := time.Now()
	root := r.tr.begin("frontdoor", 0, -1)
	defer r.tr.end(root)
	sp := r.tr.begin("query.parse_compile", 0, root)
	cat := query.NewCatalog()
	for k, name := range w.streams() {
		cat.Register(name, w.slabs[k].sch)
	}
	q, err := query.Parse(w.sql)
	if err != nil {
		return d, 0, err
	}
	plan, err := query.Compile(q, cat)
	if err != nil {
		return d, 0, err
	}
	r.tr.end(sp)
	sp = r.tr.begin("query.build", 0, root)
	ct := &chunkTimer{tr: r.tr}
	g := exec.NewGraph(tuplesTo(func(t *tuple.Tuple) { ct.sinkCall(d.addTuple, t) }))
	sources := make(map[string]stream.Source)
	for k, name := range w.streams() {
		sources[name] = &tracedSource{Source: stream.FromElements(w.slabs[k].sch, w.slabs[k].elems...), ct: ct}
	}
	if err := plan.Build(g, sources); err != nil {
		return d, 0, err
	}
	r.tr.end(sp)
	run := r.tr.begin("exec.run", 0, root)
	ct.root, ct.chunkStartedNs = run, r.tr.spans[run].Start
	from := len(r.tr.spans)
	g.Run(-1)
	r.tr.end(run)
	self := r.tr.spans[run].End - r.tr.spans[run].Start
	for _, children := range r.tr.byName(from) {
		self -= children
	}
	fmt.Fprintf(r.log, "%s traced front door: exec.run self time (engine + operators) %.1f ns per tuple\n", w.name, float64(self)/r.n)
	return d, time.Since(start), g.Err()
}

// planning times what a query pays before its first tuple.
func (r *layerRun) planning() error {
	w := r.w
	ns, err := timed(r.budget/4, func() (time.Duration, error) {
		t := time.Now()
		_, err := w.eng.Compile(w.sql)
		return time.Since(t), err
	})
	if err != nil {
		return err
	}
	r.m["query.parse_compile_us"] = ns / 1e3
	// A plan's operators hold state, so each build needs a fresh plan.
	ns, err = timed(r.budget/4, func() (time.Duration, error) {
		plan, err := w.eng.Compile(w.sql)
		if err != nil {
			return 0, err
		}
		sources := make(map[string]stream.Source)
		for k, name := range w.streams() {
			sources[name] = stream.FromElements(w.slabs[k].sch)
		}
		t := time.Now()
		err = plan.Build(exec.NewGraph(nil), sources)
		return time.Since(t), err
	})
	r.m["query.build_us"] = ns / 1e3
	return err
}

// source is the cost of pulling the slab through stream.Source.Next,
// which every serial front door pays per tuple.
func (r *layerRun) source() error {
	ns, err := timed(r.budget/2, func() (time.Duration, error) {
		t := time.Now()
		for _, sl := range r.w.slabs {
			drain(stream.FromElements(sl.sch, sl.elems...))
		}
		return time.Since(t), nil
	})
	r.m["stream.source_next_ns_per_tuple"] = ns / r.n
	return err
}

// drain pulls a source dry through the interface, as the engine does.
//
//go:noinline
func drain(src stream.Source) {
	for {
		if _, ok := src.Next(); !ok {
			return
		}
	}
}

// predicate times the three evaluators of the workload's WHERE clause
// over the slab: the interpreter, the compiled row predicate and the
// columnar kernel.
func (r *layerRun) predicate() error {
	w := r.w
	if w.shape == shapeJoin {
		return nil // the join has no predicate; its key comparison is ops
	}
	sl := w.slabs[0]
	pred, err := w.predicate(sl.sch)
	if err != nil {
		return err
	}
	passed := 0
	ns, _ := timed(r.budget/2, func() (time.Duration, error) {
		passed = 0
		t := time.Now()
		for _, tp := range sl.tuples {
			if expr.EvalBool(pred, tp) {
				passed++
			}
		}
		return time.Since(t), nil
	})
	r.m["expr.eval_ns_per_row"] = ns / r.n
	r.m["expr.selectivity"] = float64(passed) / r.n
	if fast := expr.CompilePredicate(pred); fast != nil {
		ns, _ = timed(r.budget/2, func() (time.Duration, error) {
			n := 0
			t := time.Now()
			for _, tp := range sl.tuples {
				if fast(tp) {
					n++
				}
			}
			if n != passed {
				return 0, fmt.Errorf("%s: compiled predicate passes %d rows, interpreter %d", w.name, n, passed)
			}
			return time.Since(t), nil
		})
		r.m["expr.fast_ns_per_row"] = ns / r.n
	}
	batches := transpose(sl, chunk)
	kern := expr.CompileKernel(pred, sl.sch.Arity())
	dst := make([]int32, 0, chunk)
	ns, err = timed(r.budget/2, func() (time.Duration, error) {
		n := 0
		t := time.Now()
		for _, b := range batches {
			n += len(kern(b.Cols, b.Ts, nil, dst[:0]))
		}
		if n != passed {
			return 0, fmt.Errorf("%s: kernel passes %d rows, interpreter %d", w.name, n, passed)
		}
		return time.Since(t), nil
	})
	r.m["expr.kernel_ns_per_row"] = ns / r.n
	return err
}

// transpose builds the slab's columnar image in batches of size rows.
func transpose(sl *slab, size int) []*stream.Batch {
	var out []*stream.Batch
	for lo := 0; lo < len(sl.tuples); lo += size {
		hi := lo + size
		if hi > len(sl.tuples) {
			hi = len(sl.tuples)
		}
		b := &stream.Batch{Schema: sl.sch, Ts: make([]int64, 0, hi-lo), Cols: make([][]tuple.Value, sl.sch.Arity())}
		for _, tp := range sl.tuples[lo:hi] {
			b.AppendRow(tp)
		}
		out = append(out, b)
	}
	return out
}

// ladder runs the open-loop rate ladder and reports each rung's latency
// and the highest rung that passes.
func (r *layerRun) ladder(rungSeconds float64) {
	w := r.w
	length := time.Duration(rungSeconds * float64(time.Second))
	for _, rung := range rungs {
		ph := w.openLoop(w.refRate*rung.mult, length, r.c)
		r.m["loadgen.p50_us."+rung.label] = ph.lat.p50
		r.m["loadgen.p99_us."+rung.label] = ph.lat.p99
		if ph.passed {
			r.m["loadgen.sustainable_rate_tps"] = ph.rate
		}
		if rung.mult == 1 {
			r.m["loadgen.lag_p99_us"] = ph.pacer.lag.quantileUs(0.99)
			r.m["loadgen.sent_tuples"] = float64(ph.res.in)
			r.m["loadgen.backlog_end_tuples"] = float64(ph.pacer.endBacklog)
			r.m["loadgen.whole_p999_us"] = ph.lat.p999
		}
		verdict := "passes"
		switch {
		case ph.invalid:
			verdict = "invalid: the generator ran later than the limit"
		case !ph.passed:
			verdict = "fails"
		}
		fmt.Fprintf(r.log, "%s rung %s %.0f tuples/s: p50 %.1f us p99 %.1f us (limit %.0f), lag p99 %.1f us, backlog mid %d end %d of %d sent: %s\n",
			w.name, rung.label, ph.rate, ph.lat.p50, ph.lat.p99, w.limitUs, ph.pacer.lag.quantileUs(0.99),
			ph.pacer.midBacklog, ph.pacer.endBacklog, ph.res.in, verdict)
	}
}

// budgetView prints each layer's cost per input tuple beside the front
// door's, and what the layers leave unexplained.
func (r *layerRun) budgetView() {
	m, w := r.m, r.w
	front := m["query.frontdoor_ns_per_tuple"]
	type line struct {
		name string
		ns   float64
	}
	var lines []line
	add := func(name string, ns float64) {
		if ns > 0 {
			lines = append(lines, line{name, ns})
		}
	}
	if w.door == doorWire {
		// The wire path is a pipeline: sender, server and engine lanes run
		// side by side, so the wall time per tuple is explained by the
		// busiest stage, not by the stages' sum.
		add("dsms.send_ns_per_tuple", m["dsms.send_ns_per_tuple"])
		add("tuple.decode_batch_ns_per_tuple", m["tuple.decode_batch_ns_per_tuple"])
		add("exec.runwith_col_p2_ns_per_tuple", m["exec.runwith_col_p2_ns_per_tuple"])
	} else {
		add("stream.source_next_ns_per_tuple", m["stream.source_next_ns_per_tuple"])
		add("ops.select_ns_per_tuple", m["ops.select_ns_per_tuple"])
		add("ops.join_ns_per_tuple", m["ops.join_ns_per_tuple"])
		add("agg.groupby_ns_per_tuple", m["agg.groupby_ns_per_tuple"])
		add("ops.project_ns_per_tuple", m["ops.project_ns_per_tuple"])
		add("harness.sink_ns_per_tuple", m["harness.sink_ns_per_tuple"])
		add("exec.serial_overhead_ns_per_tuple", m["exec.serial_overhead_ns_per_tuple"])
		add("query parse+compile+build, per tuple", (m["query.parse_compile_us"]+m["query.build_us"])*1e3/r.n)
	}
	explained := 0.0
	fmt.Fprintf(r.log, "budget view %s: ns per input tuple, share of query.frontdoor_ns_per_tuple = %.1f\n", w.name, front)
	for _, l := range lines {
		if w.door != doorWire {
			explained += l.ns
		} else if l.ns > explained {
			explained = l.ns
		}
		fmt.Fprintf(r.log, "  %-40s %9.1f  %5.1f%%\n", l.name, l.ns, 100*l.ns/front)
	}
	m["budget.explained_share"] = explained / front
	m["budget.unexplained_ns_per_tuple"] = front - explained
	fmt.Fprintf(r.log, "  %-40s %9.1f  %5.1f%%\n  %-40s %9.1f  %5.1f%%\n",
		"explained", explained, 100*explained/front, "budget.unexplained_ns_per_tuple", front-explained, 100*(front-explained)/front)
}
