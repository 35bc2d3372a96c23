// Columnar key-partitioned joins: batch-native routing for the
// key-partition lane.
//
// The row-mode router (runKeyPartitioned) materializes every column
// batch into elements at the splitter, so a columnar pipeline collapses
// to rows the moment a partitioned join appears. This lane keeps the
// batch shape end-to-end:
//
//   - the splitter hashes a batch's key column once on arrival
//     (ops.ColPartitionable.PartitionHashCol) and queues the batch
//     behind the same timestamp-aware port merge as the row lane;
//   - releasing routes row INDEXES: each replica's task accumulates
//     (batch, row) references over the same retained batch — zero data
//     movement on split. Punctuations (always row-shaped) broadcast as
//     task boundaries exactly as before;
//   - workers run ProcessColSpan over contiguous same-batch runs,
//     collecting dense output batches plus per-row span offsets;
//   - the sequence-restoring merge reassembles output spans column-wise
//     (Batch.AppendSpan) into pooled batches for downstream edges.
//
// The release order, the synthesized-watermark rule, the global data
// sequence numbers and the barrier protocol are copied from the row
// lane unchanged, so outputs are byte-identical to it — and checkpoint
// sections are too: the splitter snapshot materializes still-queued
// batch rows into elements, producing the same bytes the row splitter
// would emit at the same cut, which keeps row- and columnar-mode
// checkpoints interchangeable.

package exec

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"streamdb/internal/ckpt"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// colPartTask is one routed run of the merged input for a single join
// replica: parallel arrays where bs[i] == nil marks a row element
// (elems[i]: punctuation, barrier, or restored element) and a non-nil
// bs[i] marks physical row rows[i] of that batch. The task holds one
// batch reference per contiguous (batch, port) run; the worker drops it
// after processing the run.
type colPartTask struct {
	elems []stream.Element
	bs    []*stream.Batch
	rows  []int32
	ports []uint8
	seqs  []uint64
	resc  *rescaleOp // live re-split request (no data when set)
}

// colPartReply carries one task's outputs back to the merger:
// out rows [ends[i-1], ends[i]) are the output span of data sequence
// seqs[i]. Flush replies carry row-shaped flush output instead.
type colPartReply struct {
	worker  int
	flush   bool
	barrier bool
	bar     stream.Element
	seqs    []uint64
	ends    []int32
	out     *stream.Batch
	outs    []stream.Element
}

// colPQEntry is one port-merge queue entry: either a single row element
// (b == nil) or a column batch with its per-live-row partition hashes.
// rows aliases the batch's selection vector (nil = dense); pos is the
// next unreleased row.
type colPQEntry struct {
	e    stream.Element
	b    *stream.Batch
	rows []int32
	hs   []uint64
	pos  int
}

func (ent *colPQEntry) n() int {
	if ent.b == nil {
		return 1
	}
	if ent.rows != nil {
		return len(ent.rows)
	}
	return ent.b.Rows()
}

func (ent *colPQEntry) row(i int) int32 {
	if ent.rows != nil {
		return ent.rows[i]
	}
	return int32(i)
}

func (r *concRun) runKeyPartitionedCol(id NodeID, n *node, cp ops.ColPartitionable, wg *sync.WaitGroup) {
	defer wg.Done()
	p := r.poolWidth()
	workCh := make([]chan colPartTask, p)
	for i := range workCh {
		workCh[i] = make(chan colPartTask, 2)
	}
	mergeCh := make(chan colPartReply, 2*p)
	var crashed atomic.Bool
	outSchema := n.op.OutSchema()

	var workWG sync.WaitGroup
	for k := 0; k < p; k++ {
		workWG.Add(1)
		go func(k int) {
			defer workWG.Done()
			op := cp.ClonePartition()
			r.restoreOp(repName(id, k), op)
			outPool := stream.NewColPool(outSchema, r.opts.BatchSize)
			for t := range workCh[k] {
				if t.resc != nil {
					op = r.applyRescale(t.resc, k, id, n, op,
						func() ops.Operator { return cp.ClonePartition() }, &crashed)
					continue
				}
				out := outPool.Get()
				seqs := make([]uint64, 0, len(t.ports))
				ends := make([]int32, 0, len(t.ports))
				var bar stream.Element
				i := 0
				if !crashed.Load() {
					func() {
						defer func() {
							if rec := recover(); rec != nil {
								r.g.recordPanic(id, n, rec)
								crashed.Store(true)
							}
						}()
						cop := op.(ops.ColPartitionable)
						for i < len(t.ports) {
							if t.bs[i] == nil {
								if e := t.elems[i]; e.IsBarrier() {
									if r.ctl != nil {
										r.ctl.addSnap(e.Punct.Barrier, repName(id, k), op)
									}
									bar = e
									i++
									continue
								}
								op.Push(int(t.ports[i]), t.elems[i], func(o stream.Element) {
									out.AppendRow(o.Tuple)
								})
								if t.seqs[i] != noSeq {
									seqs = append(seqs, t.seqs[i])
									ends = append(ends, int32(out.Rows()))
								}
								i++
								continue
							}
							// Contiguous same-(batch, port) run: one span call.
							b, port := t.bs[i], t.ports[i]
							jj := i + 1
							for jj < len(t.ports) && t.bs[jj] == b && t.ports[jj] == port {
								jj++
							}
							ends = cop.ProcessColSpan(int(port), b, t.rows[i:jj], out, ends)
							seqs = append(seqs, t.seqs[i:jj]...)
							b.Release() // the task's reference for this run
							i = jj
						}
					}()
				}
				// After a crash the remaining sequence numbers still need
				// empty spans (the merge must not stall) and the remaining
				// batch references still need dropping.
				for i < len(t.ports) {
					if t.bs[i] == nil {
						if t.seqs[i] != noSeq {
							seqs = append(seqs, t.seqs[i])
							ends = append(ends, int32(out.Rows()))
						}
						i++
						continue
					}
					b, port := t.bs[i], t.ports[i]
					jj := i + 1
					for jj < len(t.ports) && t.bs[jj] == b && t.ports[jj] == port {
						jj++
					}
					for x := i; x < jj; x++ {
						seqs = append(seqs, t.seqs[x])
						ends = append(ends, int32(out.Rows()))
					}
					b.Release()
					i = jj
				}
				mergeCh <- colPartReply{worker: k, seqs: seqs, ends: ends, out: out}
				if bar.Punct != nil {
					mergeCh <- colPartReply{worker: k, barrier: true, bar: bar}
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
			r.sampleMemNow(id, op)
			mergeCh <- colPartReply{worker: k, flush: true, outs: fout}
		}(k)
	}
	go func() {
		workWG.Wait()
		close(mergeCh)
	}()

	// Splitter: the row lane's timestamp-aware port merge and hash
	// routing, releasing batch row spans instead of elements.
	go func() {
		var qs [2]struct {
			q    []colPQEntry
			head int
		}
		headTs := func(pt int) (int64, bool) {
			pq := &qs[pt]
			if pq.head >= len(pq.q) {
				return 0, false
			}
			ent := &pq.q[pq.head]
			if ent.b == nil {
				return ent.e.Ts(), true
			}
			return ent.b.Ts[ent.row(ent.pos)], true
		}
		popEntry := func(pt int) {
			pq := &qs[pt]
			pq.q[pq.head] = colPQEntry{}
			pq.head++
			if pq.head == len(pq.q) {
				pq.q, pq.head = pq.q[:0], 0
			}
		}
		pw := [2]int64{math.MinInt64, math.MinInt64}
		maxTs := [2]int64{math.MinInt64, math.MinInt64}
		synthed := [2]int64{math.MinInt64, math.MinInt64}
		var seq uint64
		act := r.activeWidth(id)
		var hashRamp []int32
		open := make([]colPartTask, p)
		addElem := func(k, port int, e stream.Element, s uint64) {
			t := &open[k]
			if t.ports == nil {
				t.elems = make([]stream.Element, 0, r.opts.BatchSize)
				t.bs = make([]*stream.Batch, 0, r.opts.BatchSize)
				t.rows = make([]int32, 0, r.opts.BatchSize)
				t.ports = make([]uint8, 0, r.opts.BatchSize)
				t.seqs = make([]uint64, 0, r.opts.BatchSize)
			}
			t.elems = append(t.elems, e)
			t.bs = append(t.bs, nil)
			t.rows = append(t.rows, 0)
			t.ports = append(t.ports, uint8(port))
			t.seqs = append(t.seqs, s)
		}
		flushTask := func(k int) {
			if len(open[k].ports) == 0 {
				return
			}
			workCh[k] <- open[k]
			open[k] = colPartTask{}
		}
		broadcast := func(port int, e stream.Element) {
			// Active replicas only: idle workers' state (watermarks
			// included) is rebuilt wholesale when a re-split brings them in.
			for k := 0; k < act; k++ {
				addElem(k, port, e, noSeq)
				flushTask(k)
			}
		}
		// doRescale mirrors the row lane: quiesce, snapshot all replicas,
		// restore each active replica's slice of the key space at the new
		// width, then route over the new active set.
		doRescale := func(want int) {
			for k := 0; k < p; k++ {
				flushTask(k)
			}
			rs := &rescaleOp{sections: make([][]byte, p), newAct: want, ready: make(chan struct{})}
			rs.snapWG.Add(p)
			for k := 0; k < p; k++ {
				workCh[k] <- colPartTask{resc: rs}
			}
			rs.snapWG.Wait()
			close(rs.ready)
			act = want
			atomic.StoreInt32(&r.adapt.actP[id], int32(want))
			n.stats.Replicas = want
			n.stats.Rescales++
		}
		routeElem := func(port int, e stream.Element) {
			n.stats.In++
			if e.IsPunct() {
				if e.Punct.Ts > synthed[port] {
					synthed[port] = e.Punct.Ts
				}
				broadcast(port, e)
				return
			}
			ts := e.Tuple.Ts
			if ts < maxTs[port] && maxTs[port] > synthed[port] {
				synthed[port] = maxTs[port]
				broadcast(port, stream.Punct(&stream.Punctuation{Ts: maxTs[port]}))
			} else if ts > maxTs[port] {
				maxTs[port] = ts
			}
			k := int(cp.PartitionHash(port, e.Tuple) % uint64(act))
			n.stats.Routed[k]++
			addElem(k, port, e, seq)
			seq++
			if len(open[k].ports) >= r.opts.BatchSize {
				flushTask(k)
			}
		}
		routeRow := func(port int, ent *colPQEntry, idx int) {
			n.stats.In++
			r32 := ent.row(idx)
			ts := ent.b.Ts[r32]
			if ts < maxTs[port] && maxTs[port] > synthed[port] {
				// Late row: restore the implicit watermark, exactly as the
				// row lane does. The broadcast flushes every open task;
				// the run loop below simply keeps appending to fresh ones.
				synthed[port] = maxTs[port]
				broadcast(port, stream.Punct(&stream.Punctuation{Ts: maxTs[port]}))
			} else if ts > maxTs[port] {
				maxTs[port] = ts
			}
			k := int(ent.hs[idx] % uint64(act))
			n.stats.Routed[k]++
			t := &open[k]
			if t.ports == nil {
				t.elems = make([]stream.Element, 0, r.opts.BatchSize)
				t.bs = make([]*stream.Batch, 0, r.opts.BatchSize)
				t.rows = make([]int32, 0, r.opts.BatchSize)
				t.ports = make([]uint8, 0, r.opts.BatchSize)
				t.seqs = make([]uint64, 0, r.opts.BatchSize)
			}
			if l := len(t.bs); l == 0 || t.bs[l-1] != ent.b || t.ports[l-1] != uint8(port) {
				ent.b.Retain() // one task reference per contiguous run
			}
			t.elems = append(t.elems, stream.Element{})
			t.bs = append(t.bs, ent.b)
			t.rows = append(t.rows, r32)
			t.ports = append(t.ports, uint8(port))
			t.seqs = append(t.seqs, seq)
			seq++
			if len(t.ports) >= r.opts.BatchSize {
				flushTask(k)
			}
		}
		// releaseHead routes a maximal prefix of the head entry whose
		// timestamps satisfy the release bound (strict: ts < limit,
		// otherwise ts <= limit). The head is known releasable, so at
		// least one element always routes — progress is guaranteed.
		releaseHead := func(pt int, limit int64, strict bool) {
			ent := &qs[pt].q[qs[pt].head]
			if ent.b == nil {
				routeElem(pt, ent.e)
				popEntry(pt)
				return
			}
			nn := ent.n()
			for ent.pos < nn {
				ts := ent.b.Ts[ent.row(ent.pos)]
				if strict {
					if ts >= limit {
						break
					}
				} else if ts > limit {
					break
				}
				routeRow(pt, ent, ent.pos)
				ent.pos++
			}
			if ent.pos == nn {
				ent.b.Release() // the splitter's queue reference
				popEntry(pt)
			}
		}
		release := func(closed bool) {
			for {
				t0, ok0 := headTs(0)
				t1, ok1 := headTs(1)
				switch {
				case ok0 && ok1:
					// Same interleave as the row lane: smaller head
					// timestamp first, ties to port 0. Releasing a run is
					// exact because the bounding head of the other port
					// does not move while this port routes.
					if t1 < t0 {
						releaseHead(1, t0, true)
					} else {
						releaseHead(0, t1, false)
					}
				case ok0:
					if !closed && t0 > pw[1] {
						return
					}
					limit := pw[1]
					if closed {
						limit = math.MaxInt64
					}
					releaseHead(0, limit, false)
				case ok1:
					if !closed && t1 > pw[0] {
						return
					}
					limit := pw[0]
					if closed {
						limit = math.MaxInt64
					}
					releaseHead(1, limit, false)
				default:
					return
				}
			}
		}
		enqueueCol := func(port int, b *stream.Batch) {
			nr := b.N()
			hs := make([]uint64, nr)
			hrows := b.Sel
			if hrows == nil {
				if cap(hashRamp) < nr {
					hashRamp = make([]int32, nr)
				}
				hrows = hashRamp[:nr]
				for i := range hrows {
					hrows[i] = int32(i)
				}
			}
			cp.PartitionHashCol(port, b, hrows, hs)
			qs[port].q = append(qs[port].q, colPQEntry{b: b, rows: b.Sel, hs: hs})
		}
		if r.restore != nil {
			// Restored in-flight elements re-enter as row entries; the
			// section bytes are shared with the row lane, so either mode
			// restores the other's cut.
			if data := r.restore.Section(splitName(id)); data != nil {
				dec := ckpt.NewDecoder(data)
				for pt := 0; pt < 2; pt++ {
					cnt := int(dec.Uvarint())
					for i := 0; i < cnt; i++ {
						qs[pt].q = append(qs[pt].q, colPQEntry{e: dec.Element()})
					}
				}
				for pt := 0; pt < 2; pt++ {
					pw[pt] = dec.Varint()
					maxTs[pt] = dec.Varint()
					synthed[pt] = dec.Varint()
				}
				if dec.Err() != nil {
					r.restoreFailed(fmt.Errorf("exec: restore %s: %w", splitName(id), dec.Err()))
				}
			}
		}
		var snapRow tuple.Tuple
		var snapVals []tuple.Value
		snapshotQueues := func(epoch int64) {
			// Byte-identical to the row splitter's section: still-queued
			// batch rows are materialized into elements for encoding.
			enc := &ckpt.Encoder{}
			for pt := 0; pt < 2; pt++ {
				total := 0
				for i := qs[pt].head; i < len(qs[pt].q); i++ {
					ent := &qs[pt].q[i]
					total += ent.n() - ent.pos
				}
				enc.Uvarint(uint64(total))
				for i := qs[pt].head; i < len(qs[pt].q); i++ {
					ent := &qs[pt].q[i]
					if ent.b == nil {
						enc.Element(ent.e)
						continue
					}
					if cap(snapVals) < len(ent.b.Cols) {
						snapVals = make([]tuple.Value, len(ent.b.Cols))
					}
					snapRow.Vals = snapVals[:len(ent.b.Cols)]
					for x := ent.pos; x < ent.n(); x++ {
						ent.b.GatherRow(int(ent.row(x)), &snapRow)
						enc.Element(stream.Tup(&snapRow))
					}
				}
			}
			for pt := 0; pt < 2; pt++ {
				enc.Varint(pw[pt])
				enc.Varint(maxTs[pt])
				enc.Varint(synthed[pt])
			}
			r.ctl.addBytes(epoch, splitName(id), enc.Bytes())
		}
		kbars := 0
		for m := range r.chans[id] {
			if r.adapt != nil {
				if want := int(atomic.LoadInt32(&r.adapt.wantP[id])); want != act && want >= 1 && want <= p {
					doRescale(want)
				}
			}
			if m.col != nil {
				atomic.AddInt64(&r.pending[id], -int64(m.col.N()))
				n.stats.Batches++
				if m.col.N() == 0 {
					m.col.Release()
					continue
				}
				enqueueCol(m.port, m.col)
				release(false)
				continue
			}
			atomic.AddInt64(&r.pending[id], -int64(len(m.elems)))
			for _, e := range m.elems {
				if e.IsBarrier() {
					kbars++
					if kbars == r.inw[id] {
						kbars = 0
						release(false)
						if r.ctl != nil {
							snapshotQueues(e.Punct.Barrier)
						}
						for k := 0; k < p; k++ {
							addElem(k, m.port, e, noSeq)
							flushTask(k)
						}
					}
					continue
				}
				if e.IsPunct() && e.Punct.Ts > pw[m.port] {
					pw[m.port] = e.Punct.Ts
				}
				qs[m.port].q = append(qs[m.port].q, colPQEntry{e: e})
			}
			r.pool.Put(m.elems)
			release(false)
		}
		release(true)
		for k := 0; k < p; k++ {
			flushTask(k)
		}
		for _, c := range workCh {
			close(c)
		}
	}()

	// Merger: restore global data-sequence order, reassembling output
	// spans column-wise into pooled batches.
	w := r.newEdgeWriter(n.out, id)
	mpool := stream.NewColPool(outSchema, r.opts.BatchSize)
	var cur *stream.Batch
	flushCur := func() {
		if cur == nil {
			return
		}
		b := cur
		cur = nil
		w.addBatch(b) // addBatch releases empty batches itself
	}
	type colRep struct {
		out  *stream.Batch
		left int
	}
	type colSpan struct {
		rep    *colRep
		lo, hi int32
	}
	deliver := func(s colSpan) {
		if s.hi > s.lo {
			if cur == nil {
				cur = mpool.Get()
			}
			cur.AppendSpan(s.rep.out, int(s.lo), int(s.hi))
			n.stats.Out += int64(s.hi - s.lo)
			if cur.Rows() >= r.opts.BatchSize {
				flushCur()
			}
		}
		s.rep.left--
		if s.rep.left == 0 {
			s.rep.out.Release()
		}
	}
	held := make(map[uint64]colSpan)
	var next uint64
	flushes := make([][]stream.Element, p)
	kmbar := 0
	merge := func(rep colPartReply) {
		if rep.barrier {
			kmbar++
			if kmbar == p {
				kmbar = 0
				flushCur() // the barrier must not overtake merged output
				w.add(rep.bar)
			}
			return
		}
		if rep.flush {
			flushes[rep.worker] = rep.outs
			return
		}
		if len(rep.seqs) == 0 {
			rep.out.Release()
			return
		}
		rp := &colRep{out: rep.out, left: len(rep.seqs)}
		var lo int32
		for i, s := range rep.seqs {
			sp := colSpan{rep: rp, lo: lo, hi: rep.ends[i]}
			lo = rep.ends[i]
			if s != next {
				held[s] = sp
				continue
			}
			deliver(sp)
			next++
			for {
				h, ok := held[next]
				if !ok {
					break
				}
				delete(held, next)
				deliver(h)
				next++
			}
		}
	}
	for rep := range mergeCh {
		merge(rep)
		if len(mergeCh) == 0 {
			flushCur() // idle: see edgeWriter.flush
		}
	}
	for len(held) > 0 {
		h, ok := held[next]
		if !ok {
			break
		}
		delete(held, next)
		deliver(h)
		next++
	}
	flushCur()
	for _, fo := range flushes {
		if fo == nil {
			continue
		}
		for _, e := range fo {
			n.stats.Out++
			w.add(e)
		}
		r.pool.Put(fo)
	}
	w.flush()
	r.closeDownstream(n.out)
}
