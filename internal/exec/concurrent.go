// Batched concurrent execution: the throughput-oriented engine mode.
//
// Edges between operators carry micro-batches ([]stream.Element) instead
// of single elements, so the per-element cost of a channel transfer, a
// message copy and a sink handoff is amortized over BatchSize elements
// (the standard cure in modern stream engines; cf. arXiv:2008.00842).
// Three rules keep batching semantically invisible:
//
//   - order within an edge is preserved (a batch is a contiguous run of
//     the element stream),
//   - a punctuation is never held back: appending one to an open batch
//     flushes it immediately, so a downstream window flush can never
//     observe a punctuation that overtook data (or wait on data parked
//     in an upstream buffer),
//   - end-of-stream flushes every open buffer before edges close.
//
// Operators still see one element at a time through ops.Operator.Push —
// all existing operators work unmodified. Stateless operators that
// implement ops.Replicable can additionally be replicated N-ways: a
// splitter round-robins input batches (tagged with sequence numbers)
// across N clones and a merger re-emits their outputs in sequence-number
// order, which restores exactly the arrival order — and therefore the
// ordering-attribute order — of the unreplicated run.
//
// Graph outputs are merged through a single consumer goroutine fed by
// per-writer batches (no global lock on the emit path), so the Sink
// callback is always invoked serially.
package exec

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"streamdb/internal/ckpt"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
)

// Engine tuning defaults for RunWith.
const (
	// DefaultBatchSize is the target elements per edge batch.
	DefaultBatchSize = 64
	// DefaultChanCap is the per-edge channel capacity in batches.
	DefaultChanCap = 16
)

// RunOptions tunes the concurrent engine.
type RunOptions struct {
	// BatchSize is the target number of elements per edge batch;
	// 1 reproduces element-at-a-time execution, <= 0 uses
	// DefaultBatchSize.
	BatchSize int
	// Parallelism replicates each single-input ops.Replicable operator
	// this many ways with an order-restoring merge, and each eligible
	// ops.PartialAggregable operator as partial replicas plus a final
	// combiner; <= 1 disables replication. The effective width is capped
	// at runtime.GOMAXPROCS(0) — replication beyond the schedulable cores
	// only adds splitter/merger overhead (measured ~2x slower at
	// replicas=2 on a single core) — unless ForceParallelism is set. The
	// width actually used is recorded in each node's NodeStats.Replicas.
	Parallelism int
	// ForceParallelism bypasses the GOMAXPROCS cap on Parallelism, for
	// tests and experiments that must exercise real replication
	// regardless of the host's core count.
	ForceParallelism bool
	// PartitionJoins routes eligible two-input ops.KeyPartitionable
	// nodes (joins) through the hash-split router even at Parallelism 1.
	// At Parallelism > 1 the router engages automatically; forcing it at
	// width 1 exists for determinism tests that compare the routed path
	// against the serial engine without replication in play.
	PartitionJoins bool
	// ChanCap is the per-edge channel capacity in batches; <= 0 uses
	// DefaultChanCap.
	ChanCap int
	// Checkpoint enables barrier-aligned durable checkpoints (see
	// exec/checkpoint.go).
	Checkpoint *CheckpointConfig
	// Restore plays a checkpoint taken by a previous RunWith of the
	// same graph shape and the same effective Parallelism /
	// PartitionJoins settings back into the operators before any
	// element flows, and fast-forwards each source past the elements
	// the checkpointed run consumed.
	Restore *ckpt.Checkpoint
	// Columnar decides whether sources transpose (or decode, for
	// stream.ColSource) their data tuples into stream.Batch column
	// batches (see columnar.go); ops.BatchOperator nodes consume them
	// natively, and row⇄column adapters bridge every other boundary.
	// Punctuations and barriers always stay on the row path. A run with
	// Columnar off can still carry column batches downstream of a
	// key-partitioned join, whose router always emits them. Results are
	// element-for-element identical either way; checkpoints interoperate
	// both ways.
	Columnar bool
	// Adapt enables the feedback-driven adaptive controller (see
	// adapt.go): per-edge micro-batch targets, live growth/shrink of
	// replica sets, and pre-emptive semantic shedding, all steered by
	// queue-occupancy feedback on a fixed cadence. Mutually exclusive
	// with Checkpoint and Restore, which pin the lane layout for the
	// whole run — when either is set the controller is disabled.
	Adapt *AdaptConfig
	// ColSink, when set with Columnar, receives column batches that
	// reach the graph output without leaving the batch lane, instead of
	// having them materialized row-by-row into the Sink. Batches are
	// delivered serially from the merged output consumer, interleaved in
	// stream order with row elements (punctuations, aggregate records,
	// ...), which still go to the Sink. The batch is valid only for the
	// duration of the call: the engine releases it afterwards, so a sink
	// that keeps it must Retain.
	ColSink func(*stream.Batch)
}

// sinkMsg is one unit of merged graph output: a row batch destined for
// the Sink, or a column batch destined for ColSink (the reference
// travels with the message; the consumer releases it).
type sinkMsg struct {
	elems []stream.Element
	col   *stream.Batch
}

// batchMsg is one edge transfer: either a row batch (elems) or a column
// batch (col), never both. Column batches carry data tuples only.
type batchMsg struct {
	port  int
	elems []stream.Element
	col   *stream.Batch
}

// concRun carries the shared state of one RunWith invocation.
type concRun struct {
	g       *Graph
	opts    RunOptions
	pool    *stream.BatchPool
	chans   []chan batchMsg
	pending []int64 // queued elements per node, for MaxQueue sampling
	maxQ    []int64
	maxMem  []int64
	memTick []int64 // per-node message count, for strided MemSize polls
	writers []int
	closeMu sync.Mutex
	sinkCh  chan sinkMsg
	colSink func(*stream.Batch) // ColSink, with Columnar only

	// Checkpointing state: ctl coordinates barrier epochs (nil when
	// disabled), inw is the initial writer count per node (writers[]
	// decays via closeOne, but barrier alignment needs the full count),
	// outW counts nodes writing the graph output, restore is the
	// checkpoint being played back (nil for a fresh run).
	ctl     *ckptCtl
	inw     []int
	outW    int
	restore *ckpt.Checkpoint

	// adapt is the adaptive controller's shared state (nil on static
	// runs). Lanes spawn adapt.maxP workers and route data over the
	// active prefix the controller maintains.
	adapt *adaptState
}

// poolWidth is the worker-pool size parallel lanes spawn: the adaptive
// ceiling, or the static Parallelism.
func (r *concRun) poolWidth() int {
	if r.adapt != nil {
		return r.adapt.maxP
	}
	return r.opts.Parallelism
}

// activeWidth is the replica count splitters route data over right now.
func (r *concRun) activeWidth(id NodeID) int {
	if r.adapt != nil {
		return int(atomic.LoadInt32(&r.adapt.actP[id]))
	}
	return r.opts.Parallelism
}

func atomicMax(addr *int64, v int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if v <= cur || atomic.CompareAndSwapInt64(addr, cur, v) {
			return
		}
	}
}

// RunWith executes the graph concurrently — one goroutine per operator
// (plus replicas), batched channels between them — with the given
// options. Returns when all sources are exhausted and the pipeline has
// flushed. maxElements bounds the elements drawn per source (< 0 =
// unbounded). Results are element-for-element identical at any batch
// size; only interleaving across independent branches varies, as it
// already does between concurrent runs. Arrival order across different
// sources is not deterministic; use Run for experiments that depend on
// interleaving.
func (g *Graph) RunWith(maxElements int64, opts RunOptions) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.ChanCap <= 0 {
		opts.ChanCap = DefaultChanCap
	}
	if opts.Parallelism < 1 {
		opts.Parallelism = 1
	}
	if !opts.ForceParallelism {
		if mp := runtime.GOMAXPROCS(0); opts.Parallelism > mp {
			opts.Parallelism = mp
		}
	}
	r := &concRun{
		g:       g,
		opts:    opts,
		pool:    stream.NewBatchPool(opts.BatchSize),
		chans:   make([]chan batchMsg, len(g.nodes)),
		pending: make([]int64, len(g.nodes)),
		maxQ:    make([]int64, len(g.nodes)),
		maxMem:  make([]int64, len(g.nodes)),
		memTick: make([]int64, len(g.nodes)),
		writers: make([]int, len(g.nodes)),
	}
	if opts.Adapt != nil && opts.Checkpoint == nil && opts.Restore == nil {
		maxP := opts.Adapt.MaxParallelism
		if maxP <= 0 {
			maxP = runtime.GOMAXPROCS(0)
		}
		if maxP < opts.Parallelism {
			maxP = opts.Parallelism
		}
		r.adapt = newAdaptState(g, opts, maxP)
	}
	for i := range r.chans {
		r.chans[i] = make(chan batchMsg, opts.ChanCap)
	}
	// Count writers per node so channels close exactly once.
	for _, s := range g.sources {
		for _, ed := range s.out {
			r.writers[ed.to]++
		}
	}
	for _, n := range g.nodes {
		for _, ed := range n.out {
			if ed.to >= 0 {
				r.writers[ed.to]++
			}
		}
	}
	r.inw = append([]int(nil), r.writers...)
	for _, n := range g.nodes {
		for _, ed := range n.out {
			if ed.to < 0 {
				r.outW++
				break
			}
		}
	}

	r.restore = opts.Restore
	if r.restore != nil {
		if err := r.validateRestore(); err != nil {
			g.failMu.Lock()
			g.failed = append(g.failed, NodeFailure{Node: -1, Op: "checkpoint-restore", Panic: err})
			g.failMu.Unlock()
			return
		}
	}
	if cfg := opts.Checkpoint; cfg != nil && cfg.Store != nil && cfg.Every > 0 {
		var first int64
		if r.restore != nil {
			first = r.restore.Epoch
		}
		r.ctl = newCkptCtl(cfg, map[string]uint64{
			"par": uint64(opts.Parallelism),
			"pj":  boolMeta(opts.PartitionJoins),
		}, first)
		g.failHook = func() { r.ctl.shutdown(fmt.Errorf("exec: node failure aborted the checkpoint epoch")) }
		defer func() { g.failHook = nil }()
	}

	var sinkWG sync.WaitGroup
	r.sinkCh = make(chan sinkMsg, 2*len(g.nodes)+4)
	if opts.Columnar {
		r.colSink = opts.ColSink
	}
	sinkWG.Add(1)
	go func() {
		defer sinkWG.Done()
		var delivered int64 // the job's outputs, a restored run's included
		if r.restore != nil {
			delivered = r.restore.OutSeq
		}
		sinkBars := 0
		for m := range r.sinkCh {
			if m.col != nil {
				delivered += int64(m.col.N())
				r.colSink(m.col)
				m.col.Release()
				continue
			}
			b := m.elems
			for _, e := range b {
				if e.IsBarrier() {
					// Engine-internal: count the cut, never deliver.
					sinkBars++
					if sinkBars == r.outW {
						sinkBars = 0
						if r.ctl != nil {
							r.ctl.sinkCut(e.Punct.Barrier, delivered)
						} else {
							r.flushDone(e.Punct.Barrier)
						}
					}
					continue
				}
				delivered++
				g.sink(e)
			}
			r.pool.Put(b)
		}
	}()

	needSections := 0
	var wg sync.WaitGroup
	fbStart := make([]int64, len(g.nodes))
	// The adaptive pool ceiling also gates lane eligibility: with the
	// controller on, scalable lanes engage even at Parallelism 1 so the
	// controller can grow them later (they start at width 1 and stay
	// byte-identical to the static engine).
	scaleW := opts.Parallelism
	if r.adapt != nil {
		scaleW = r.adapt.maxP
	}
	for id := range g.nodes {
		n := g.nodes[id]
		wg.Add(1)
		n.stats.Replicas = 1
		n.stats.Routed = nil
		n.stats.Batches = 0
		n.stats.RowFallbacks = 0
		n.stats.BatchTarget = 0
		n.stats.ShedRate = 0
		n.stats.Rescales = 0
		if cf, ok := n.op.(colFallbacker); ok {
			fbStart[id] = cf.ColFallbacks()
		}
		if (opts.Parallelism > 1 || opts.PartitionJoins || scaleW > 1) && n.op.NumInputs() == 2 && !n.detached {
			if kp, ok := n.op.(ops.KeyPartitionable); ok && kp.CanPartition() {
				n.stats.Replicas = opts.Parallelism
				n.stats.Routed = make([]int64, r.poolWidth())
				needSections += opts.Parallelism + 1 // P replicas + splitter queues
				if r.adapt != nil {
					r.adapt.kind[id] = laneKeyPart
					_, r.adapt.rescaler[id] = n.op.(ops.StateRescaler)
				}
				go r.runKeyPartitioned(NodeID(id), n, kp, &wg)
				continue
			}
		}
		if scaleW > 1 && n.op.NumInputs() == 1 && !n.detached {
			if pa, ok := n.op.(ops.PartialAggregable); ok && pa.CanPartial() {
				n.stats.Replicas = opts.Parallelism
				needSections += opts.Parallelism + 2 // P replicas + combiner + merge queues
				if r.adapt != nil {
					r.adapt.kind[id] = lanePartial
				}
				go r.runPartialReplicated(NodeID(id), n, pa, &wg)
				continue
			}
			if rep, ok := n.op.(ops.Replicable); ok {
				n.stats.Replicas = opts.Parallelism
				if r.adapt != nil {
					r.adapt.kind[id] = laneRepl
				}
				// Stateless: no sections, the barrier just flows through.
				go r.runReplicated(NodeID(id), n, rep, &wg)
				continue
			}
		}
		needSections++
		go r.runNode(NodeID(id), n, &wg)
	}
	if r.ctl != nil {
		r.ctl.needSections = needSections
		r.ctl.needSink = r.outW
	}
	if r.adapt != nil {
		r.adapt.start(r)
	}
	for i, s := range g.sources {
		wg.Add(1)
		go r.runSource(i, s, maxElements, &wg)
	}
	wg.Wait()
	if r.adapt != nil {
		r.adapt.stop()
	}
	close(r.sinkCh)
	sinkWG.Wait()
	// Fold the sampled per-run maxima into the persistent node stats,
	// plus each operator's own columnar-plan fallbacks (partition
	// replicas fold theirs into the parent at Flush, so the delta over
	// this run covers every lane).
	for i, n := range g.nodes {
		if q := int(r.maxQ[i]); q > n.stats.MaxQueue {
			n.stats.MaxQueue = q
		}
		if m := int(r.maxMem[i]); m > n.stats.MaxMemory {
			n.stats.MaxMemory = m
		}
		if cf, ok := n.op.(colFallbacker); ok {
			n.stats.RowFallbacks += cf.ColFallbacks() - fbStart[i]
		}
	}
}

// flushWaiter is a source that injects barriers of its own
// (stream.PushSource.Flush) and waits for them to leave the graph. With
// no checkpoint controller a barrier snapshots nothing — every lane
// still aligns and forwards it — so all it marks is that whatever
// entered before it has been processed and delivered: a flush.
type flushWaiter interface {
	FlushDone(epoch int64, err error)
}

// flushDone reports an aligned barrier at the graph output, with the
// run's first failure so far, to the sources waiting for it.
func (r *concRun) flushDone(epoch int64) {
	for _, s := range r.g.sources {
		if fw, ok := s.src.(flushWaiter); ok {
			fw.FlushDone(epoch, r.g.Err())
		}
	}
}

// colFallbacker is implemented by operators that count how many
// columnar batches/spans their own plan rerouted through the row path
// (ops.WindowJoin); the engine surfaces the per-run delta in
// NodeStats.RowFallbacks.
type colFallbacker interface{ ColFallbacks() int64 }

// sourceFailed records a source's panic as a run failure.
func (r *concRun) sourceFailed(idx int, src stream.Source, rec interface{}) {
	name := fmt.Sprintf("source %d", idx)
	if sch := src.Schema(); sch != nil {
		name += " (" + sch.Name + ")"
	}
	r.g.failRun(name, rec)
	if r.g.failHook != nil {
		r.g.failHook()
	}
}

// sendTo delivers one batch to a node's input channel, sampling the
// queue depth (in elements) for MaxQueue.
func (r *concRun) sendTo(to NodeID, port int, b []stream.Element) {
	q := atomic.AddInt64(&r.pending[to], int64(len(b)))
	atomicMax(&r.maxQ[to], q)
	r.chans[to] <- batchMsg{port: port, elems: b}
}

func (r *concRun) closeOne(id NodeID) {
	r.closeMu.Lock()
	r.writers[id]--
	if r.writers[id] == 0 {
		close(r.chans[id])
	}
	r.closeMu.Unlock()
}

func (r *concRun) closeDownstream(edges []edge) {
	for _, ed := range edges {
		if ed.to >= 0 {
			r.closeOne(ed.to)
		}
	}
}

// memStride bounds how often an operator's MemSize is polled on the
// data path. MemSize can be O(live state) — GroupBy walks every open
// pane and group — so polling it per message puts state-proportional
// work on the hot loop; the high-water mark only needs sampling.
const memStride = 64

func (r *concRun) sampleMem(id NodeID, op ops.Operator) {
	if atomic.AddInt64(&r.memTick[id], 1)%memStride != 1 {
		return
	}
	atomicMax(&r.maxMem[id], int64(op.MemSize()))
}

// sampleMemNow polls unconditionally — used off the hot path (flush),
// where state is at its post-run peak and must be recorded.
func (r *concRun) sampleMemNow(id NodeID, op ops.Operator) {
	atomicMax(&r.maxMem[id], int64(op.MemSize()))
}

// edgeWriter accumulates one producer's output into pooled batches and
// fans completed batches out to the producer's edges. It is owned by a
// single goroutine.
type edgeWriter struct {
	r     *concRun
	edges []edge
	buf   []stream.Element
	size  int
	// tgt, when non-nil, is the adaptive controller's batch-target slot
	// for this producer; size re-reads it at flush boundaries, so the
	// per-element append path pays nothing for adaptivity.
	tgt *int64
}

func (r *concRun) newEdgeWriter(edges []edge, owner NodeID) *edgeWriter {
	w := &edgeWriter{r: r, edges: edges, size: r.opts.BatchSize, buf: r.pool.Get()}
	if r.adapt != nil && owner >= 0 {
		w.tgt = &r.adapt.batchTgt[owner]
		w.size = int(atomic.LoadInt64(w.tgt))
	}
	return w
}

// add appends one element, flushing on a full batch and immediately on
// punctuation (a punctuation must never wait in a buffer: liveness of
// downstream windows depends on its progress promise arriving).
func (w *edgeWriter) add(e stream.Element) {
	if len(w.edges) == 0 {
		return // unconnected output: discard, as the unbatched engine did
	}
	w.buf = append(w.buf, e)
	if e.IsPunct() || len(w.buf) >= w.size {
		w.flush()
	}
}

// flush hands the open batch to every edge. All but the last edge
// receive a copy; the last takes ownership (consumers recycle batches).
//
// Besides a full batch, a punctuation and end of stream, every lane
// flushes when it goes idle: after handling an input message it checks
// its input channel and, finding it empty, ships what it has — nothing
// is on its way that could fill the batch, so holding it only delays
// the rows in it (a window's last rows would otherwise wait for the
// next window's close). That is at most one extra flush per input
// message, so a saturated lane still ships full batches.
func (w *edgeWriter) flush() {
	if len(w.buf) == 0 {
		return
	}
	b := w.buf
	w.buf = w.r.pool.Get()
	last := len(w.edges) - 1
	for i, ed := range w.edges {
		out := b
		if i < last {
			out = append(w.r.pool.Get(), b...)
		}
		if ed.to < 0 {
			w.r.sinkCh <- sinkMsg{elems: out}
		} else {
			w.r.sendTo(ed.to, ed.port, out)
		}
	}
	if w.tgt != nil {
		w.size = int(atomic.LoadInt64(w.tgt))
	}
}

// runNode is the per-operator goroutine: drain input batches, push
// element-wise through the operator, re-batch outputs. Panic isolation
// matches the unbatched engine: a crashed operator keeps draining its
// input (so upstream writers never block on a dead consumer) and still
// closes its downstream edges.
func (r *concRun) runNode(id NodeID, n *node, wg *sync.WaitGroup) {
	defer wg.Done()
	r.restoreOp(r.nodeName(id), n.op)
	w := r.newEdgeWriter(n.out, id)
	emit := func(out stream.Element) {
		n.stats.Out++
		w.add(out)
	}
	emitB := func(b *stream.Batch) {
		n.stats.Out += int64(b.N())
		w.addBatch(b)
	}
	bop, isBatchOp := n.op.(ops.BatchOperator)
	crashed := n.detached
	bars := 0
	pushCol := func(m batchMsg) (ok bool) {
		defer func() {
			if rec := recover(); rec != nil {
				r.g.recordPanic(id, n, rec)
				ok = false
			}
		}()
		n.stats.Batches++
		if isBatchOp {
			bop.ProcessBatch(m.port, m.col, emitB, emit)
			return true
		}
		// Row-only operator: materialize and replay element-wise.
		n.stats.RowFallbacks++
		rows := m.col.AppendRows(r.pool.Get())
		m.col.Release()
		for _, e := range rows {
			n.op.Push(m.port, e, emit)
		}
		r.pool.Put(rows)
		return true
	}
	pushBatch := func(m batchMsg) (ok bool) {
		defer func() {
			if rec := recover(); rec != nil {
				r.g.recordPanic(id, n, rec)
				ok = false
			}
		}()
		for _, e := range m.elems {
			if e.IsBarrier() {
				// Engine-level: never enters the operator. Aligned when
				// every input writer's barrier has arrived; snapshot at
				// that exact position and forward one barrier.
				bars++
				if bars == r.inw[id] {
					bars = 0
					if r.ctl != nil {
						r.ctl.addSnap(e.Punct.Barrier, r.nodeName(id), n.op)
					}
					w.add(e)
				}
				continue
			}
			n.op.Push(m.port, e, emit)
		}
		return true
	}
	for m := range r.chans[id] {
		if m.col != nil {
			// Column batches carry data only: no barrier bookkeeping.
			atomic.AddInt64(&r.pending[id], -int64(m.col.N()))
			if crashed {
				m.col.Release()
				continue
			}
			n.stats.In += int64(m.col.N())
			if !pushCol(m) {
				crashed = true
			}
			r.sampleMem(id, n.op)
			if len(r.chans[id]) == 0 {
				w.flush() // idle: see edgeWriter.flush
			}
			continue
		}
		atomic.AddInt64(&r.pending[id], -int64(len(m.elems)))
		if crashed {
			// Discard data, but keep the barrier protocol alive: a node
			// detached by a previous run must still align and forward
			// barriers or the epoch would stall.
			for _, e := range m.elems {
				if e.IsBarrier() {
					bars++
					if bars == r.inw[id] {
						bars = 0
						if r.ctl != nil {
							r.ctl.addSnap(e.Punct.Barrier, r.nodeName(id), n.op)
						}
						w.add(e)
					}
				}
			}
			r.pool.Put(m.elems)
			continue
		}
		n.stats.In += int64(len(m.elems))
		if !pushBatch(m) {
			crashed = true
		}
		r.pool.Put(m.elems)
		r.sampleMem(id, n.op)
		if len(r.chans[id]) == 0 {
			w.flush() // idle: see edgeWriter.flush
		}
	}
	if !crashed {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					r.g.recordPanic(id, n, rec)
				}
			}()
			n.op.Flush(emit)
		}()
		r.sampleMemNow(id, n.op)
	}
	w.flush()
	r.closeDownstream(n.out)
}

// repTask is one sequence-numbered unit of replicated work: on the way
// in, one input message (elems or col, as in batchMsg); on the way out,
// the outputs it produced, in emit order.
type repTask struct {
	seq   uint64
	port  int
	elems []stream.Element
	col   *stream.Batch
	outs  []batchMsg
}

// runReplicated executes one Replicable node as P clones with an
// order-restoring merge: a splitter tags input messages with sequence
// numbers and round-robins them over P workers; each worker pushes its
// share through a private clone; the merger re-emits the outputs in
// sequence order, restoring the exact output order of the unreplicated
// run. The unit of work is whatever arrived: a column batch stays a
// column batch through the split, the clone's ProcessBatch and the merge
// (no data moves; Select only refines the selection vector), so the
// lanes downstream keep their columnar paths. Workers always report a
// result per task (even empty, even after a crash), so the merge
// sequence never stalls.
func (r *concRun) runReplicated(id NodeID, n *node, rep ops.Replicable, wg *sync.WaitGroup) {
	defer wg.Done()
	p := r.poolWidth()
	workCh := make([]chan repTask, p)
	for i := range workCh {
		workCh[i] = make(chan repTask, 2)
	}
	mergeCh := make(chan repTask, 2*p)
	var crashed atomic.Bool
	var totalSeq atomic.Uint64

	var workWG sync.WaitGroup
	for k := 0; k < p; k++ {
		workWG.Add(1)
		go func(k int) {
			defer workWG.Done()
			op := rep.Clone()
			bop, isBatchOp := op.(ops.BatchOperator)
			// The current task's outputs: closed segments in outs, the
			// open row segment in rows.
			var outs []batchMsg
			var rows []stream.Element
			closeRows := func() {
				if len(rows) > 0 {
					outs = append(outs, batchMsg{elems: rows})
					rows = nil
				}
			}
			emit := func(o stream.Element) {
				if rows == nil {
					rows = r.pool.Get()
				}
				rows = append(rows, o)
			}
			emitB := func(b *stream.Batch) {
				closeRows()
				outs = append(outs, batchMsg{col: b})
			}
			process := func(t repTask) {
				if crashed.Load() {
					if t.col != nil {
						t.col.Release()
					}
					return // node detached: discard input
				}
				defer func() {
					if rec := recover(); rec != nil {
						r.g.recordPanic(id, n, rec)
						crashed.Store(true)
					}
				}()
				if t.col != nil {
					atomic.AddInt64(&n.stats.In, int64(t.col.N()))
					if isBatchOp {
						bop.ProcessBatch(t.port, t.col, emitB, emit)
						return
					}
					atomic.AddInt64(&n.stats.RowFallbacks, 1)
					in := t.col.AppendRows(r.pool.Get())
					t.col.Release()
					for _, e := range in {
						op.Push(t.port, e, emit)
					}
					r.pool.Put(in)
					return
				}
				atomic.AddInt64(&n.stats.In, int64(len(t.elems)))
				for _, e := range t.elems {
					if e.IsBarrier() {
						// Stateless lane: nothing to snapshot; the barrier
						// rides the sequence-ordered merge to emerge in
						// exactly its input position.
						emit(e)
						continue
					}
					op.Push(t.port, e, emit)
				}
			}
			for t := range workCh[k] {
				process(t)
				closeRows()
				if t.col == nil {
					r.pool.Put(t.elems)
				}
				mergeCh <- repTask{seq: t.seq, outs: outs}
				outs = nil
				r.sampleMem(id, op)
			}
			// Flush the clone. Replicable operators are stateless, so
			// this is expected to emit nothing, but any output is still
			// collected and sequenced after all input batches.
			if !crashed.Load() {
				func() {
					defer func() {
						if rec := recover(); rec != nil {
							r.g.recordPanic(id, n, rec)
							crashed.Store(true)
						}
					}()
					op.Flush(emit)
				}()
			}
			closeRows()
			mergeCh <- repTask{seq: totalSeq.Load() + uint64(k), outs: outs}
		}(k)
	}
	go func() {
		workWG.Wait()
		close(mergeCh)
	}()

	// Splitter: round-robin input messages over the workers. Barriers
	// are aligned here — one arrives per input writer (always a batch's
	// last element, since punctuations flush batches) and exactly one
	// continues into the round-robin stream.
	go func() {
		var seq uint64
		k := 0
		bars := 0
		act := r.activeWidth(id)
		for m := range r.chans[id] {
			if r.adapt != nil {
				// Stateless clones: the active set may change at any batch
				// boundary — the sequence merge restores order regardless.
				if na := int(atomic.LoadInt32(&r.adapt.actP[id])); na != act {
					act = na
					if k >= act {
						k = 0
					}
				}
			}
			if m.col != nil {
				// Data-only column batch: one task, passed on whole.
				atomic.AddInt64(&r.pending[id], -int64(m.col.N()))
				if m.col.N() == 0 {
					m.col.Release()
					continue
				}
				n.stats.Batches++
				workCh[k] <- repTask{seq: seq, port: m.port, col: m.col}
				seq++
				k = (k + 1) % act
				continue
			}
			atomic.AddInt64(&r.pending[id], -int64(len(m.elems)))
			var bar stream.Element
			if l := len(m.elems); l > 0 && m.elems[l-1].IsBarrier() {
				bar = m.elems[l-1]
				m.elems = m.elems[:l-1]
			}
			if len(m.elems) > 0 {
				workCh[k] <- repTask{seq: seq, port: m.port, elems: m.elems}
				seq++
				k = (k + 1) % act
			} else {
				r.pool.Put(m.elems)
			}
			if bar.Punct != nil {
				bars++
				if bars == r.inw[id] {
					bars = 0
					workCh[k] <- repTask{seq: seq, port: m.port, elems: append(r.pool.Get(), bar)}
					seq++
					k = (k + 1) % act
				}
			}
		}
		totalSeq.Store(seq) // ordered before close: workers read it after range ends
		for _, c := range workCh {
			close(c)
		}
	}()

	// Merger: restore sequence order; column batches go downstream as
	// they are, rows are re-batched.
	w := r.newEdgeWriter(n.out, id)
	deliver := func(outs []batchMsg) {
		for _, o := range outs {
			if o.col != nil {
				n.stats.Out += int64(o.col.N())
				w.addBatch(o.col)
				continue
			}
			for _, e := range o.elems {
				if !e.IsBarrier() {
					n.stats.Out++
				}
				w.add(e)
			}
			r.pool.Put(o.elems)
		}
	}
	held := make(map[uint64][]batchMsg)
	var next uint64
	for t := range mergeCh {
		if t.seq != next {
			held[t.seq] = t.outs
			continue
		}
		deliver(t.outs)
		next++
		for {
			outs, ok := held[next]
			if !ok {
				break
			}
			delete(held, next)
			deliver(outs)
			next++
		}
		if len(mergeCh) == 0 {
			w.flush() // idle: see edgeWriter.flush
		}
	}
	// Every sequence number is reported exactly once, so nothing is
	// left held; be defensive anyway and drain in order.
	for len(held) > 0 {
		outs, ok := held[next]
		if !ok {
			break
		}
		delete(held, next)
		deliver(outs)
		next++
	}
	w.flush()
	r.closeDownstream(n.out)
}

// partMsg carries one partial replica's output batch to the merger;
// elems == nil marks the replica finished (its flush already sent).
type partMsg struct {
	worker int
	elems  []stream.Element
}

// runPartialReplicated executes one PartialAggregable node as P partial
// replicas feeding a final combiner — the two-level aggregation split
// (slide 37) as intra-operator parallelism. A splitter round-robins
// tuple batches across the replicas but broadcasts punctuations to all
// of them (a punctuation parked on one replica would stall every other
// replica's watermark). Each replica emits partial records plus progress
// punctuations; because each replica's output is nondecreasing in
// timestamp, the merger can release, whenever the minimum across the
// replicas' watermarks advances to M, every queued record with Ts <= M
// (in replica order) followed by one synthesized punctuation at M. The
// combiner then finalizes exactly the windows the single-copy operator
// would have emitted by time M, in the same order.
func (r *concRun) runPartialReplicated(id NodeID, n *node, pa ops.PartialAggregable, wg *sync.WaitGroup) {
	defer wg.Done()
	p := r.poolWidth()
	workCh := make([]chan batchMsg, p)
	for i := range workCh {
		workCh[i] = make(chan batchMsg, 2)
	}
	partCh := make(chan partMsg, 2*p)
	var crashed atomic.Bool

	var workWG sync.WaitGroup
	for k := 0; k < p; k++ {
		workWG.Add(1)
		go func(k int) {
			defer workWG.Done()
			op := pa.ClonePartial()
			r.restoreOp(repName(id, k), op)
			bop, isBatchOp := op.(ops.BatchOperator)
			process := func(t batchMsg) (out []stream.Element) {
				out = r.pool.Get()
				if crashed.Load() {
					if t.col != nil {
						t.col.Release()
					}
					return out // node detached: discard input
				}
				defer func() {
					if rec := recover(); rec != nil {
						r.g.recordPanic(id, n, rec)
						crashed.Store(true)
					}
				}()
				emit := func(o stream.Element) {
					out = append(out, o)
				}
				if t.col != nil {
					atomic.AddInt64(&n.stats.In, int64(t.col.N()))
					atomic.AddInt64(&n.stats.Batches, 1)
					if isBatchOp {
						bop.ProcessBatch(t.port, t.col, func(ob *stream.Batch) {
							// Replica output feeds the row-shaped merge.
							out = ob.AppendRows(out)
							ob.Release()
						}, emit)
						return out
					}
					atomic.AddInt64(&n.stats.RowFallbacks, 1)
					rows := t.col.AppendRows(r.pool.Get())
					t.col.Release()
					for _, e := range rows {
						op.Push(t.port, e, emit)
					}
					r.pool.Put(rows)
					return out
				}
				atomic.AddInt64(&n.stats.In, int64(len(t.elems)))
				for _, e := range t.elems {
					if e.IsBarrier() {
						// The splitter broadcast this replica's barrier:
						// snapshot the clone's partial state and pass the
						// barrier on to the merger for counting.
						if r.ctl != nil {
							r.ctl.addSnap(e.Punct.Barrier, repName(id, k), op)
						}
						out = append(out, e)
						continue
					}
					op.Push(t.port, e, emit)
				}
				return out
			}
			for t := range workCh[k] {
				out := process(t)
				if t.col == nil {
					r.pool.Put(t.elems)
				}
				if len(out) > 0 {
					partCh <- partMsg{worker: k, elems: out}
				} else {
					r.pool.Put(out)
				}
				r.sampleMem(id, op)
			}
			fout := r.pool.Get()
			if !crashed.Load() {
				func() {
					defer func() {
						if rec := recover(); rec != nil {
							r.g.recordPanic(id, n, rec)
							crashed.Store(true)
						}
					}()
					op.Flush(func(o stream.Element) { fout = append(fout, o) })
				}()
			}
			partCh <- partMsg{worker: k, elems: fout}
			partCh <- partMsg{worker: k} // done marker
		}(k)
	}
	go func() {
		workWG.Wait()
		close(partCh)
	}()

	// Splitter: round-robin data batches, broadcast punctuations. The
	// edgeWriter invariant (a punctuation always flushes its batch) means
	// a punctuation can only be a batch's last element. Barriers are
	// aligned here (one per input writer), then broadcast so every
	// replica snapshots at the same position.
	go func() {
		k := 0
		bars := 0
		act := r.activeWidth(id)
		for m := range r.chans[id] {
			if r.adapt != nil {
				// Partial replicas merge through the combiner regardless of
				// which worker held which share, so the active data set may
				// change at any batch boundary. Punctuations and barriers
				// still broadcast to the whole pool: idle replicas must keep
				// their watermarks advancing or the min-watermark merge
				// stalls.
				if na := int(atomic.LoadInt32(&r.adapt.actP[id])); na != act {
					act = na
					if k >= act {
						k = 0
					}
				}
			}
			if m.col != nil {
				// Data-only column batch: round-robin it whole. Replica
				// output (partial records, progress punctuations) is
				// row-shaped either way, so the merger is unaffected.
				atomic.AddInt64(&r.pending[id], -int64(m.col.N()))
				if m.col.N() == 0 {
					m.col.Release()
					continue
				}
				workCh[k] <- m
				k = (k + 1) % act
				continue
			}
			atomic.AddInt64(&r.pending[id], -int64(len(m.elems)))
			var bar stream.Element
			if l := len(m.elems); l > 0 && m.elems[l-1].IsBarrier() {
				bar = m.elems[l-1]
				m.elems = m.elems[:l-1]
			}
			if l := len(m.elems); l > 0 && m.elems[l-1].IsPunct() {
				pe := m.elems[l-1]
				for j := range workCh {
					if j != k {
						workCh[j] <- batchMsg{port: m.port, elems: append(r.pool.Get(), pe)}
					}
				}
			}
			if len(m.elems) > 0 {
				workCh[k] <- m
				k = (k + 1) % act
			} else {
				r.pool.Put(m.elems)
			}
			if bar.Punct != nil {
				bars++
				if bars == r.inw[id] {
					bars = 0
					for j := range workCh {
						workCh[j] <- batchMsg{port: m.port, elems: append(r.pool.Get(), bar)}
					}
				}
			}
		}
		for _, c := range workCh {
			close(c)
		}
	}()

	// Merger: per-replica FIFO queues and watermarks drive the combiner.
	w := r.newEdgeWriter(n.out, id)
	emit := func(out stream.Element) {
		n.stats.Out++
		w.add(out)
	}
	comb := pa.Combiner()
	combCrashed := false
	cpush := func(e stream.Element) {
		if combCrashed {
			return
		}
		defer func() {
			if rec := recover(); rec != nil {
				r.g.recordPanic(id, n, rec)
				combCrashed = true
			}
		}()
		comb.Push(0, e, emit)
	}
	queues := make([][]stream.Element, p)
	heads := make([]int, p)
	wms := make([]int64, p)
	for k := range wms {
		wms[k] = math.MinInt64
	}
	released := int64(math.MinInt64)
	r.restoreOp(combName(id), comb)
	if r.restore != nil {
		if data := r.restore.Section(pmergeName(id)); data != nil {
			dec := ckpt.NewDecoder(data)
			for k := range queues {
				cnt := int(dec.Uvarint())
				for i := 0; i < cnt; i++ {
					queues[k] = append(queues[k], dec.Element())
				}
			}
			for k := range wms {
				wms[k] = dec.Varint()
			}
			released = dec.Varint()
			if dec.Err() != nil {
				r.restoreFailed(fmt.Errorf("exec: restore %s: %w", pmergeName(id), dec.Err()))
			}
		}
	}
	mbar := 0
	for msg := range partCh {
		if msg.elems == nil {
			wms[msg.worker] = math.MaxInt64
		} else {
			k := msg.worker
			for _, e := range msg.elems {
				if e.IsBarrier() {
					// One barrier per replica; when all P have arrived,
					// snapshot the combiner plus this merge stage's own
					// buffered state, then forward a single barrier.
					mbar++
					if mbar == p {
						mbar = 0
						if r.ctl != nil {
							epoch := e.Punct.Barrier
							r.ctl.addSnap(epoch, combName(id), comb)
							enc := &ckpt.Encoder{}
							for j := range queues {
								q := queues[j][heads[j]:]
								enc.Uvarint(uint64(len(q)))
								for _, qe := range q {
									enc.Element(qe)
								}
							}
							for j := range wms {
								enc.Varint(wms[j])
							}
							enc.Varint(released)
							r.ctl.addBytes(epoch, pmergeName(id), enc.Bytes())
						}
						w.add(e)
					}
					continue
				}
				if e.IsPunct() {
					if e.Punct.Ts > wms[k] {
						wms[k] = e.Punct.Ts
					}
					continue
				}
				queues[k] = append(queues[k], e)
				if e.Tuple.Ts > wms[k] {
					wms[k] = e.Tuple.Ts
				}
			}
			r.pool.Put(msg.elems)
		}
		min := wms[0]
		for _, m := range wms[1:] {
			if m < min {
				min = m
			}
		}
		if min > released {
			released = min
			for k := range queues {
				q, h := queues[k], heads[k]
				for h < len(q) && q[h].Tuple.Ts <= min {
					cpush(q[h])
					q[h] = stream.Element{}
					h++
				}
				if h == len(q) {
					queues[k], heads[k] = q[:0], 0
				} else {
					heads[k] = h
				}
			}
			if min < math.MaxInt64 {
				cpush(stream.Punct(&stream.Punctuation{Ts: min}))
			}
		}
		if len(partCh) == 0 {
			w.flush() // idle: see edgeWriter.flush
		}
	}
	if !combCrashed {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					r.g.recordPanic(id, n, rec)
				}
			}()
			comb.Flush(emit)
		}()
	}
	r.sampleMemNow(id, comb)
	w.flush()
	r.closeDownstream(n.out)
}

// runSource feeds one source's elements into the graph in batches,
// drawing bulk reads when the source supports them. With checkpointing
// active the source emits a barrier punctuation every ctl.every
// elements and pauses until the epoch commits or aborts — the pause is
// what aligns the cut: nothing new enters the graph while barriers
// drain through it.
func (r *concRun) runSource(idx int, s *sourceNode, maxElements int64, wg *sync.WaitGroup) {
	defer wg.Done()
	if len(s.out) == 0 {
		return
	}
	if r.restore != nil {
		// Fast-forward past the elements the checkpointed run consumed;
		// the caller rebuilt the source from the beginning of its replay
		// window.
		skip := int64(r.restore.Meta[srcKey(idx)])
		for k := int64(0); k < skip; k++ {
			if _, ok := s.src.Next(); !ok {
				r.restoreFailed(fmt.Errorf("exec: source %d exhausted after %d of %d replay elements", idx, k, skip))
				break
			}
		}
		s.count = skip
	}
	w := r.newEdgeWriter(s.out, -1) // sources cannot write the graph output
	if r.adapt != nil {
		// Sources own the batch-target slots after the nodes; controller
		// shrinkage shows up both in flush boundaries and in the bulk-read
		// size below.
		w.tgt = &r.adapt.batchTgt[len(r.g.nodes)+idx]
		w.size = int(atomic.LoadInt64(w.tgt))
	}
	bulk, isBulk := s.src.(stream.BulkSource)
	var cw *colWriter
	var colSrc stream.ColSource
	if r.opts.Columnar {
		if sch := s.src.Schema(); sch != nil {
			// Transpose row sources into column batches on the same
			// boundaries the row engine would have flushed at (full
			// batch, punctuation), so batch shapes match across modes.
			cw = &colWriter{w: w, pool: stream.NewColPool(sch, r.opts.BatchSize)}
			if cs, ok := s.src.(stream.ColSource); ok {
				colSrc = cs // already columnar: skip the transpose
			}
		}
	}
	push := func(e stream.Element) {
		if cw != nil {
			cw.push(e)
			return
		}
		w.add(e)
	}
	var sent, sinceBarrier int64
	atBarrier := func() {
		sinceBarrier = 0
		epoch, ok := r.ctl.barrier()
		if !ok {
			return
		}
		r.ctl.sourceMeta(epoch, srcKey(idx), uint64(s.count))
		if cw != nil {
			cw.flushCol() // the barrier must not overtake open columns
		}
		w.add(stream.Punct(stream.BarrierPunct(epoch))) // punctuation: flushes the batch
		r.ctl.wait(epoch)
	}
	defer func() {
		// A source that panics (in its own Next, or by handing over a
		// tuple that does not fit its schema when transposed) fails the run
		// the way a panicking operator does, instead of taking the process
		// down; the pipeline still drains and closes.
		if rec := recover(); rec != nil {
			if cw != nil && cw.cur != nil {
				cw.cur.Release() // possibly ragged: never forwarded
				cw.cur = nil
			}
			r.sourceFailed(idx, s.src, rec)
		}
		if r.ctl != nil {
			// This source is done: a pending epoch can no longer receive its
			// barrier, and future epochs would wait on it forever.
			r.ctl.shutdown(fmt.Errorf("exec: source %d exhausted mid-epoch", idx))
		}
		if cw != nil {
			cw.flushCol()
		}
		w.flush()
		r.closeDownstream(s.out)
	}()
	for maxElements < 0 || sent < maxElements {
		if r.g.halted.Load() {
			break // fail-fast: stop feeding, let the pipeline drain
		}
		if colSrc != nil {
			max := r.opts.BatchSize
			if maxElements >= 0 && int64(max) > maxElements-sent {
				max = int(maxElements - sent)
			}
			if r.ctl != nil && int64(max) > r.ctl.every-sinceBarrier {
				max = int(r.ctl.every - sinceBarrier)
			}
			if max > w.size {
				max = w.size // controller-shrunk micro-batches
			}
			cb, more := colSrc.NextColBatch(max)
			k := 0
			if cb != nil {
				k = cb.N()
				pu := cb.Punct
				cb.Punct = nil // inside the graph batches carry data only
				w.addBatch(cb)
				if pu != nil {
					w.add(stream.Punct(pu)) // behind its rows, ahead of any barrier
				}
			}
			sent += int64(k)
			s.count += int64(k)
			sinceBarrier += int64(k)
			if r.ctl != nil && sinceBarrier >= r.ctl.every {
				atBarrier()
			}
			if !more {
				break
			}
			if k < max {
				w.flush() // momentarily idle: don't hold the edge batch
			}
		} else if isBulk {
			max := r.opts.BatchSize
			if maxElements >= 0 && int64(max) > maxElements-sent {
				max = int(maxElements - sent)
			}
			if r.ctl != nil && int64(max) > r.ctl.every-sinceBarrier {
				max = int(r.ctl.every - sinceBarrier)
			}
			if max > w.size {
				max = w.size // controller-shrunk micro-batches
			}
			tmp := r.pool.Get()
			tmp, more := bulk.NextBatch(tmp, max)
			for _, e := range tmp {
				push(e)
			}
			sent += int64(len(tmp))
			s.count += int64(len(tmp))
			sinceBarrier += int64(len(tmp))
			r.pool.Put(tmp)
			if r.ctl != nil && sinceBarrier >= r.ctl.every {
				atBarrier()
			}
			if !more {
				break
			}
			if len(tmp) < max {
				// A short read from a live source (network transport,
				// push-fed queue) means it is momentarily idle: push
				// the partial edge batch downstream now instead of
				// holding elements until the batch fills.
				if cw != nil {
					cw.flushCol()
				}
				w.flush()
			}
		} else {
			e, ok := s.src.Next()
			if !ok {
				break
			}
			sent++
			s.count++
			sinceBarrier++
			push(e)
			if r.ctl != nil && sinceBarrier >= r.ctl.every {
				atBarrier()
			}
		}
	}
}
