// Key-partitioned joins: the hash-split router for two-input
// ops.KeyPartitionable nodes.
//
// runKeyPartitioned executes one KeyPartitionable node (a join) as P
// replicas behind a hash-split router — the scale-out lane for
// equality-keyed stateful operators that neither Replicable (stateless)
// nor PartialAggregable (single-input aggregation) covers. Input may be
// row elements, column batches or a mix; data output always leaves as
// column batches, and row elements (barriers, XJoin's flush output)
// stay rows, in stream order. Three pieces make the routed run
// byte-identical to the serial engine:
//
//   - A timestamp-aware port merge. The serial engine interleaves
//     sources by (head timestamp, source index); concurrent channels
//     destroy that order across the two ports. The splitter therefore
//     queues each port and re-derives the serial order: with both
//     queues non-empty it releases the smaller head timestamp (ties to
//     port 0, matching the source-index tie-break when port i is fed by
//     source i); with one queue empty it may release only elements at
//     or below the other port's punctuation watermark — the promise
//     that nothing earlier is still in flight. A port that stays silent
//     without punctuating buffers the other port until end-of-stream;
//     the lane trades that latency for exactness. A column batch queues
//     as one entry, its key column hashed once on arrival
//     (PartitionHashCol), and releases in row runs.
//
//   - Key-hash routing with broadcast progress. Data goes to replica
//     hash(key) % P — both ports hash through the operator's own hash,
//     so matching tuples meet — while punctuations are broadcast to
//     every replica. Batch rows route as INDEXES: each replica's task
//     accumulates (batch, row) references over the same retained batch,
//     so the split moves no data. When a late row is released below its
//     port's running maximum timestamp, the splitter first broadcasts a
//     synthesized punctuation at that maximum: replicas that missed the
//     higher-timestamped rows (routed elsewhere) would otherwise
//     under-expire the opposite window relative to the serial run,
//     which derives its watermark from every arrival.
//
//   - A sequence-restoring output merge. Each released data row carries
//     a global sequence number. Workers run ProcessColSpan over
//     contiguous same-batch runs and Push over row elements, appending
//     output densely to one batch per task plus the output span of every
//     row; the merger reassembles spans in sequence order column-wise
//     (Batch.AppendSpan) into pooled batches, or forwards a reply's
//     batch as it is when the reply continues the merged output with
//     nothing held (every reply at width 1). Punctuations produce no
//     output by the KeyPartitionable contract, so they need no merge
//     slot. Flush outputs follow in replica order.
//
// Every data sequence number is reported exactly once — crashed
// replicas still account for their assigned spans with empty output —
// so the merge never stalls on a failed replica. The splitter's
// checkpoint section encodes still-queued batch rows as elements, so
// its bytes do not depend on how the input arrived: row- and
// columnar-mode cuts restore into each other.

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

// noSeq marks task elements (broadcast punctuations) that produce no
// output and therefore occupy no slot in the output merge.
const noSeq = ^uint64(0)

// keyTask is one routed run of the merged input for a single join
// replica: parallel arrays where bs[i] == nil marks a row element
// (elems[i]: punctuation, barrier, or data that arrived as a row or was
// restored from a checkpoint) and a non-nil
// bs[i] marks physical row rows[i] of that batch. The task holds one
// batch reference per contiguous (batch, port) run; the worker drops it
// after processing the run. oseqs and oends are spare buffers the
// worker fills with the reply's seqs and ends. A task's buffers travel
// splitter → worker → merger and back to the splitter, so a steady run
// allocates none.
type keyTask struct {
	elems []stream.Element
	bs    []*stream.Batch
	rows  []int32
	ports []uint8
	seqs  []uint64
	oseqs []uint64
	oends []int32
	resc  *rescaleOp // live re-split request (no data when set)
}

// keyReply carries one task's outputs back to the merger:
// out rows [ends[i-1], ends[i]) are the output span of data sequence
// seqs[i]. Flush replies carry row-shaped flush output instead.
type keyReply struct {
	worker  int
	flush   bool
	barrier bool
	bar     stream.Element
	seqs    []uint64
	ends    []int32
	out     *stream.Batch
	outs    []stream.Element
	task    keyTask // the processed task, its buffers to be recycled
}

// portEntry is one port-merge queue entry: either a single row element
// (b == nil) or a column batch with its per-live-row partition hashes.
// rows aliases the batch's selection vector (nil = dense); pos is the
// next unreleased row.
type portEntry struct {
	e    stream.Element
	b    *stream.Batch
	rows []int32
	hs   []uint64
	pos  int
}

func (ent *portEntry) n() int {
	if ent.b == nil {
		return 1
	}
	if ent.rows != nil {
		return len(ent.rows)
	}
	return ent.b.Rows()
}

func (ent *portEntry) row(i int) int32 {
	if ent.rows != nil {
		return ent.rows[i]
	}
	return int32(i)
}

// runKeyPartitioned runs one KeyPartitionable node as the hash-split
// router described at the top of this file.
func (r *concRun) runKeyPartitioned(id NodeID, n *node, kp ops.KeyPartitionable, wg *sync.WaitGroup) {
	defer wg.Done()
	p := r.poolWidth()
	workCh := make([]chan keyTask, p)
	for i := range workCh {
		workCh[i] = make(chan keyTask, 2)
	}
	mergeCh := make(chan keyReply, 2*p)
	// spare returns processed tasks' buffers from the merger to the
	// splitter; neither side ever blocks on it. 4p holds every task that
	// can be in flight: two queued per worker plus 2p unmerged replies.
	spare := make(chan keyTask, 4*p)
	var crashed atomic.Bool
	outSchema := n.op.OutSchema()

	var workWG sync.WaitGroup
	for k := 0; k < p; k++ {
		workWG.Add(1)
		go func(k int) {
			defer workWG.Done()
			op := kp.ClonePartition()
			r.restoreOp(repName(id, k), op)
			outPool := stream.NewColPool(outSchema, r.opts.BatchSize)
			var out *stream.Batch
			emitRow := func(o stream.Element) { out.AppendRow(o.Tuple) }
			for t := range workCh[k] {
				if t.resc != nil {
					op = r.applyRescale(t.resc, k, id, n, op,
						func() ops.Operator { return kp.ClonePartition() }, &crashed)
					continue
				}
				out = outPool.Get()
				seqs, ends := t.oseqs[:0], t.oends[:0]
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
						kop := op.(ops.KeyPartitionable)
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
								op.Push(int(t.ports[i]), t.elems[i], emitRow)
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
							ends = kop.ProcessColSpan(int(port), b, t.rows[i:jj], out, ends)
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
				mergeCh <- keyReply{worker: k, seqs: seqs, ends: ends, out: out, task: t}
				if bar.Punct != nil {
					mergeCh <- keyReply{worker: k, barrier: true, bar: bar}
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
			mergeCh <- keyReply{worker: k, flush: true, outs: fout}
		}(k)
	}
	go func() {
		workWG.Wait()
		close(mergeCh)
	}()

	// Splitter: timestamp-aware port merge, then hash routing.
	go func() {
		var qs [2]struct {
			q    []portEntry
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
		var spareHs [][]uint64 // hash slices of released batch entries
		popEntry := func(pt int) {
			pq := &qs[pt]
			if hs := pq.q[pq.head].hs; hs != nil {
				spareHs = append(spareHs, hs)
			}
			pq.q[pq.head] = portEntry{}
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
		open := make([]keyTask, p)
		openTask := func(k int) *keyTask {
			t := &open[k]
			if t.ports == nil {
				select {
				case *t = <-spare:
				default:
					*t = keyTask{
						elems: make([]stream.Element, 0, r.opts.BatchSize),
						bs:    make([]*stream.Batch, 0, r.opts.BatchSize),
						rows:  make([]int32, 0, r.opts.BatchSize),
						ports: make([]uint8, 0, r.opts.BatchSize),
						seqs:  make([]uint64, 0, r.opts.BatchSize),
					}
				}
			}
			return t
		}
		addElem := func(k, port int, e stream.Element, s uint64) {
			t := openTask(k)
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
			open[k] = keyTask{}
		}
		broadcast := func(port int, e stream.Element) {
			// Active replicas only: idle workers' state (watermarks
			// included) is rebuilt wholesale when a re-split brings them in.
			for k := 0; k < act; k++ {
				addElem(k, port, e, noSeq)
				flushTask(k)
			}
		}
		// doRescale quiesces the replica set and re-splits it at the new
		// width: flush everything routed so far, hand every pool worker a
		// rescale task, wait for all snapshots, then release the restore
		// and route over the new active set. Nothing is routed while the
		// handshake runs, so each old replica snapshots at a task boundary
		// with no in-flight input — the same aligned-cut property the
		// checkpoint path relies on.
		doRescale := func(want int) {
			for k := 0; k < p; k++ {
				flushTask(k)
			}
			rs := &rescaleOp{sections: make([][]byte, p), newAct: want, ready: make(chan struct{})}
			rs.snapWG.Add(p)
			for k := 0; k < p; k++ {
				workCh[k] <- keyTask{resc: rs}
			}
			rs.snapWG.Wait()
			close(rs.ready)
			act = want
			atomic.StoreInt32(&r.adapt.actP[id], int32(want))
			n.stats.Replicas = want
			n.stats.Rescales++
		}
		// observe applies the late-row rule to one released data row.
		observe := func(port int, ts int64) {
			n.stats.In++
			if ts < maxTs[port] && maxTs[port] > synthed[port] {
				// Late row: replicas owning other keys saw none of the
				// higher timestamps — restore the implicit watermark the
				// serial run would have derived from them. The broadcast
				// flushes every open task; routing appends to fresh ones.
				synthed[port] = maxTs[port]
				broadcast(port, stream.Punct(&stream.Punctuation{Ts: maxTs[port]}))
			} else if ts > maxTs[port] {
				maxTs[port] = ts
			}
		}
		routeElem := func(port int, e stream.Element) {
			if e.IsPunct() {
				n.stats.In++
				if e.Punct.Ts > synthed[port] {
					synthed[port] = e.Punct.Ts
				}
				broadcast(port, e)
				return
			}
			observe(port, e.Tuple.Ts)
			k := int(kp.PartitionHash(port, e.Tuple) % uint64(act))
			n.stats.Routed[k]++
			addElem(k, port, e, seq)
			seq++
			if len(open[k].ports) >= r.opts.BatchSize {
				flushTask(k)
			}
		}
		routeRow := func(port int, ent *portEntry, idx int) {
			r32 := ent.row(idx)
			observe(port, ent.b.Ts[r32])
			k := int(ent.hs[idx] % uint64(act))
			n.stats.Routed[k]++
			t := openTask(k)
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
					// Smaller head timestamp first, ties to port 0.
					// Releasing a run is exact because the bounding head
					// of the other port does not move while this port
					// routes.
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
			var hs []uint64
			if k := len(spareHs) - 1; k >= 0 {
				hs, spareHs = spareHs[k], spareHs[:k]
			}
			if cap(hs) < nr {
				hs = make([]uint64, nr)
			}
			hs = hs[:nr]
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
			kp.PartitionHashCol(port, b, hrows, hs)
			qs[port].q = append(qs[port].q, portEntry{b: b, rows: b.Sel, hs: hs})
		}
		if r.restore != nil {
			// The port-merge buffers are part of the cut: elements that
			// had arrived but could not yet be released in serial order.
			// They re-enter as row entries.
			if data := r.restore.Section(splitName(id)); data != nil {
				dec := ckpt.NewDecoder(data)
				for pt := 0; pt < 2; pt++ {
					cnt := int(dec.Uvarint())
					for i := 0; i < cnt; i++ {
						qs[pt].q = append(qs[pt].q, portEntry{e: dec.Element()})
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
			// Still-queued batch rows are encoded as elements, so the
			// section bytes do not depend on how the input arrived.
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
				qs[m.port].q = append(qs[m.port].q, portEntry{e: e})
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
	merge := func(rep keyReply) {
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
		if last := len(rep.seqs) - 1; len(held) == 0 && rep.seqs[0] == next && rep.seqs[last]-next == uint64(last) {
			// In order, contiguous and nothing held (every reply at width
			// 1): the reply's batch is already the merged output.
			flushCur()
			next += uint64(last + 1)
			n.stats.Out += int64(rep.out.Rows())
			w.addBatch(rep.out)
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
		if t := rep.task; t.ports != nil {
			clear(t.elems)
			clear(t.bs)
			t.elems, t.bs, t.rows, t.ports, t.seqs = t.elems[:0], t.bs[:0], t.rows[:0], t.ports[:0], t.seqs[:0]
			t.oseqs, t.oends = rep.seqs, rep.ends
			select {
			case spare <- t:
			default:
			}
		}
		if len(mergeCh) == 0 {
			flushCur() // idle: see edgeWriter.flush
		}
	}
	// Every sequence number is reported exactly once, so nothing is left
	// held; be defensive anyway and drain in order.
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
	// Flush outputs last, in replica order: deterministic, and correct —
	// a flush can only depend on the complete input, which precedes it.
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

// applyRescale is one pool worker's half of a live key-partition
// re-split: snapshot the current replica into its section slot, signal
// the splitter, wait for the full section set, then rebuild this
// worker's slice of the key space at the new width with a fresh clone.
// Errors and panics detach the node but always complete the handshake
// (Done before any return), so the quiesced splitter cannot deadlock on
// a failed replica. Workers beyond the new active width come back with
// an empty clone — their old tuples now live under other replicas'
// hashes.
func (r *concRun) applyRescale(rs *rescaleOp, k int, id NodeID, n *node, op ops.Operator, clone func() ops.Operator, crashed *atomic.Bool) ops.Operator {
	var data []byte
	if !crashed.Load() {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					r.g.recordPanic(id, n, rec)
					crashed.Store(true)
				}
			}()
			if s, ok := op.(ckpt.Snapshotter); ok {
				enc := &ckpt.Encoder{}
				if err := s.Snapshot(enc); err != nil {
					panic(err)
				}
				data = enc.Bytes()
			}
		}()
	}
	rs.sections[k] = data
	rs.snapWG.Done()
	<-rs.ready
	if crashed.Load() {
		return op
	}
	nop := clone()
	if k < rs.newAct {
		if sr, ok := nop.(ops.StateRescaler); ok {
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						r.g.recordPanic(id, n, rec)
						crashed.Store(true)
					}
				}()
				if err := sr.RestorePartition(rs.sections, k, rs.newAct); err != nil {
					panic(err)
				}
			}()
			if crashed.Load() {
				return op
			}
		}
	}
	return nop
}
