// Columnar joins: the batch-native fast path of WindowJoin and XJoin.
//
// The row path pays, per arriving tuple, a hash computation through
// tuple dispatch, a per-candidate KeyEqual walk, an output-row
// allocation per emitted pair and an EvalBool interpretation of the
// residual. The columnar path amortizes all four over a whole batch:
//
//   - the key columns hash in one sweep shared by probe and insert:
//     splitmix over the payload for a single Int/Uint/Time/IP key
//     (tuple.HashColRows), the generic FNV walk for anything else
//     (tuple.HashColsRows, which matches Tuple.Key exactly);
//   - equal-timestamp runs advance watermark/expiry bookkeeping once
//     per run (as colfold.go does for panes) and land in the window
//     FIFO via segment-sized bulk copies (window.Fifo.PushRun);
//   - matched pairs accumulate as (input row, candidate) references and
//     are gathered column-wise into a pooled output batch through the
//     join's output column map — the identity, or the bare-column
//     projection the planner fused into the join, in which case columns
//     nobody selects are never gathered; inserted rows themselves are
//     carved from chunked slabs (the window retains them, so they must
//     be heap-owned, but a chunk amortizes the allocation over ~1k rows);
//   - the residual predicate compiles once via expr.CompileKernel and
//     refines the gathered pairs as a selection vector, with survivors
//     compacted in place.
//
// Every equijoin over time or landmark windows takes this path. Only
// rows-windows, MaxTuples caps and keyless theta joins — whose eviction
// interleaves with insertion per row, or which have no key to hash —
// gather the batch and rerun the exact row path. Either way the
// columnar lane is semantically invisible: same outputs in the same
// order, same counters, and byte-identical checkpoint snapshots (the
// FIFO sees the same tuples in the same order; wm/sorted/lastIns/
// pendingWM advance identically because equal-timestamp repeats are
// no-ops in the row path too).

package ops

import (
	"math"

	"streamdb/internal/expr"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// Both joins must keep the full KeyPartitionable method set: a join
// missing one would silently fall off the key-partition router.
var (
	_ KeyPartitionable = (*WindowJoin)(nil)
	_ KeyPartitionable = (*XJoin)(nil)
)

// WindowJoin columnar plan states.
const (
	colJoinNone = int8(iota) // not planned yet
	colJoinFast              // vectorized probe/insert straight off the columns
	colJoinRow               // gather each row, rerun the row path (envelope miss; permanent)
	colJoinCold              // demoted to the row path by the cold-probe heuristic; recheckable
)

// Cold-probe heuristic thresholds (colDecide). The vectorized probe
// pays slab materialization and a pairs pipeline per row; that only
// amortizes when probes actually match. On cold workloads — large
// high-cardinality windows where nearly every probe misses (the
// documented 1M-key no-match regression, 0.55x vs the row path) — the
// row path's bare hash-miss is cheaper, so instances demote themselves
// when the observed match rate collapses and re-promote on drift.
const (
	colDecideEvery   = 1024     // rows between match-rate re-evaluations
	colColdMinWindow = 1024     // smallest resident window that may demote
	colColdRate      = 1.0 / 64 // demote below this emitted-pairs-per-row rate
	colWarmRate      = 1.0 / 16 // promote back above this rate (hysteresis)
)

// colDecide re-evaluates the fast-vs-cold choice every colDecideEvery
// rows. Both paths maintain identical join state (the slab tuples land
// in the same FIFO and index), so flipping the plan mid-stream is
// semantically invisible; demoted batches are counted in colFallbacks
// like any other row rerouting.
func (j *WindowJoin) colDecide(rows int) {
	j.colRowsSince += int64(rows)
	if j.colRowsSince < colDecideEvery {
		return
	}
	rate := float64(j.emitted-j.colEmitMark) / float64(j.colRowsSince)
	j.colRowsSince = 0
	j.colEmitMark = j.emitted
	switch j.colPlan {
	case colJoinFast:
		if rate < colColdRate && j.sides[0].fifo.Len()+j.sides[1].fifo.Len() >= colColdMinWindow {
			j.colPlan = colJoinCold
		}
	case colJoinCold:
		if rate > colWarmRate {
			j.colPlan = colJoinFast
		}
	}
}

// colJoinScratch is the per-instance scratch of the columnar join path.
// All slices are reused across batches; none survive a call except as
// capacity.
type colJoinScratch struct {
	ramp   []int32
	hashes []uint64
	run    []*tuple.Tuple
	pairs  colPairs
	elems  []stream.Element
	slab   tupSlab
}

// colPairs accumulates the matched (input row, window candidate) pairs
// of one span and flushes them column-wise into an output batch.
type colPairs struct {
	rows  []int32        // index into the span's materialized tuples
	cands []*tuple.Tuple // matched window-resident tuple, parallel to rows
	ends  []int32        // cumulative pre-residual pair count per input row
	sel   []int32        // residual selection scratch
}

func (p *colPairs) reset() {
	p.rows = p.rows[:0]
	for k := range p.cands {
		p.cands[k] = nil // stale candidates must not pin expired tuples
	}
	p.cands = p.cands[:0]
	p.ends = p.ends[:0]
}

func (p *colPairs) add(row int32, cand *tuple.Tuple) {
	p.rows = append(p.rows, row)
	p.cands = append(p.cands, cand)
}

func (p *colPairs) closeRow() {
	p.ends = append(p.ends, int32(len(p.rows)))
}

// flush gathers the accumulated pairs onto the end of out through the
// output column map cols (out column i takes column cols[i] of the
// (left, right) concatenation) — tups holds the arrived side, cands the
// matched side, port says which is which — applies the compiled
// residual kernel (nil = no residual) as an in-place selection
// refinement, compacts survivors, and appends per-input-row output
// offsets to ends when the caller tracks spans. Returns the surviving
// pair count and the extended ends. Output timestamps carry the later
// of the two inputs' timestamps, matching Tuple.Concat.
func (p *colPairs) flush(out *stream.Batch, port, leftArity int, cols []int, tups []tuple.Tuple, kern expr.ColumnKernel, ends []int32) (int, []int32) {
	base := out.Rows()
	np := len(p.rows)
	if np > 0 {
		for oc, c := range cols {
			side := 0
			if c >= leftArity {
				side, c = 1, c-leftArity
			}
			col := out.Cols[oc]
			if side == port {
				for _, pr := range p.rows {
					col = append(col, tups[pr].Vals[c])
				}
			} else {
				for _, cand := range p.cands {
					col = append(col, cand.Vals[c])
				}
			}
			out.Cols[oc] = col
		}
		ts := out.Ts
		for k, pr := range p.rows {
			t := tups[pr].Ts
			if m := p.cands[k].Ts; m > t {
				t = m
			}
			ts = append(ts, t)
		}
		out.Ts = ts
	}
	if kern == nil || np == 0 {
		if ends != nil {
			for _, pe := range p.ends {
				ends = append(ends, int32(base)+pe)
			}
		}
		return np, ends
	}
	if cap(p.sel) < np {
		p.sel = make([]int32, np)
	}
	sel := p.sel[:np]
	for k := range sel {
		sel[k] = int32(base + k)
	}
	surv := kern(out.Cols, out.Ts, sel, sel[:0])
	if len(surv) < np {
		old := base + np
		for c := range out.Cols {
			col := out.Cols[c]
			w := base
			for _, r := range surv {
				col[w] = col[r]
				w++
			}
			for x := w; x < old; x++ {
				col[x] = tuple.Value{} // dropped pairs must not pin values in pooled storage
			}
			out.Cols[c] = col[:w]
		}
		tsArr := out.Ts
		w := base
		for _, r := range surv {
			tsArr[w] = tsArr[r]
			w++
		}
		out.Ts = tsArr[:w]
	}
	if ends != nil {
		si := 0
		for _, pe := range p.ends {
			for si < len(surv) && int(surv[si])-base < int(pe) {
				si++
			}
			ends = append(ends, int32(base+si))
		}
	}
	return len(surv), ends
}

// tupSlab carves window-retained tuples out of chunked slabs.
// Join state retains inserted tuples beyond the call, so unlike the
// aggregation fold the join path cannot gather into reused scratch —
// but it can amortize: one header chunk plus one values chunk serve
// many spans, which matters when partition routing interleaves ports
// and spans degenerate to a handful of rows each. A chunk stays live
// until every tuple carved from it expires; the FIFO windows expire in
// insertion order, so chunks retire roughly together and the overhang
// is bounded by one chunk.
type tupSlab struct {
	tups []tuple.Tuple
	vals []tuple.Value
}

const tupSlabRows = 1024

// materialize copies the listed batch rows into slab-owned tuples.
// The returned slice and the interior Vals never move: a fresh chunk
// is started instead of growing a full one.
func (s *tupSlab) materialize(b *stream.Batch, rows []int32) []tuple.Tuple {
	arity := len(b.Cols)
	n := len(rows)
	if cap(s.tups)-len(s.tups) < n || cap(s.vals)-len(s.vals) < n*arity {
		c := tupSlabRows
		if c < n {
			c = n
		}
		s.tups = make([]tuple.Tuple, 0, c)
		s.vals = make([]tuple.Value, 0, c*arity)
	}
	tups := s.tups[len(s.tups) : len(s.tups)+n]
	s.tups = s.tups[:len(s.tups)+n]
	for i, r := range rows {
		v0 := len(s.vals)
		s.vals = s.vals[:v0+arity]
		tv := s.vals[v0:len(s.vals):len(s.vals)]
		for c := range b.Cols {
			tv[c] = b.Cols[c][r]
		}
		tups[i] = tuple.Tuple{Ts: b.Ts[r], Vals: tv}
	}
	return tups
}

// rampRows returns the batch's live-row index list: Sel when present,
// otherwise a scratch-backed dense ramp.
func rampRows(b *stream.Batch, scratch *[]int32) []int32 {
	if b.Sel != nil {
		return b.Sel
	}
	n := b.Rows()
	if cap(*scratch) < n {
		*scratch = make([]int32, n)
	}
	rows := (*scratch)[:n]
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// planColumnar decides once per instance whether batches take the
// vectorized path. The fast envelope: an equijoin key (of any kind and
// width — the hash sweep picks payload or generic hashing) and pure
// time/landmark windows. Rows-windows and MaxTuples caps interleave
// eviction with insertion per row, which the run-segmented insert
// cannot reproduce, and a keyless theta join has nothing to hash, so
// those gather and rerun the row path.
func (j *WindowJoin) planColumnar() {
	j.colPlan = colJoinRow
	if len(j.sides[0].key) == 0 {
		return
	}
	for s := 0; s < 2; s++ {
		if j.sides[s].rows != 0 || j.sides[s].maxTuples != 0 {
			return
		}
	}
	j.colPlan = colJoinFast
}

// ProcessBatch implements BatchOperator: the single-pipeline columnar
// entry point. The batch reference is consumed; join output leaves as
// one dense pooled batch through emitB.
func (j *WindowJoin) ProcessBatch(port int, b *stream.Batch, emitB EmitBatch, emit Emit) {
	if port < 0 || port > 1 {
		b.Release()
		return
	}
	if j.colPlan == colJoinNone {
		j.planColumnar()
	}
	if j.colPlan != colJoinFast {
		j.colFallbacks++
		elems := b.AppendRows(j.col.elems[:0])
		rows := 0
		for _, e := range elems {
			if !e.IsPunct() {
				rows++
			}
			j.Push(port, e, emit)
		}
		for i := range elems {
			elems[i] = stream.Element{}
		}
		j.col.elems = elems[:0]
		b.Release()
		if j.colPlan == colJoinCold {
			j.colDecide(rows)
		}
		return
	}
	rows := rampRows(b, &j.col.ramp)
	if len(rows) == 0 {
		b.Release()
		return
	}
	if j.colPool == nil {
		size := len(rows)
		if size < 64 {
			size = 64
		}
		j.colPool = stream.NewColPool(j.out, size)
	}
	out := j.colPool.Get()
	j.processColRows(port, b, rows, out, nil)
	j.colDecide(len(rows))
	b.Release()
	if out.Rows() > 0 {
		emitB(out)
	} else {
		out.Release()
	}
}

// ProcessColSpan implements KeyPartitionable. The row plan still
// honors the span contract — gather each row, run the exact row path,
// record per-row output offsets — so a replica the cold-probe heuristic
// demoted keeps working. (Rows-windows, MaxTuples caps and keyless
// joins never reach here: they decline partitioning.)
func (j *WindowJoin) ProcessColSpan(port int, b *stream.Batch, rows []int32, out *stream.Batch, ends []int32) []int32 {
	if j.colPlan == colJoinNone {
		j.planColumnar()
	}
	if j.colPlan == colJoinFast {
		if ends == nil {
			// nil tells processColRows to skip span tracking (the
			// ProcessBatch case); the span contract always tracks.
			ends = make([]int32, 0, len(rows))
		}
		ends = j.processColRows(port, b, rows, out, ends)
		j.colDecide(len(rows))
		return ends
	}
	j.colFallbacks++
	tups := j.col.slab.materialize(b, rows)
	emit := func(o stream.Element) { out.AppendRow(o.Tuple) }
	for i := range tups {
		j.Push(port, stream.Tup(&tups[i]), emit)
		ends = append(ends, int32(out.Rows()))
	}
	if j.colPlan == colJoinCold {
		j.colDecide(len(tups))
	}
	return ends
}

// processColRows is the vectorized core: hash the span's key columns
// once, probe the opposite window per equal-timestamp run (watermark
// advance, nested-loop sweep and cutoff derivation happen once per
// run), insert the run in bulk, then gather and residual-refine the
// matched pairs column-wise. Probing a whole run before inserting it is
// exact because probes read only the opposite side's state and inserts
// touch only this side's. Candidates are confirmed as the row path
// confirms them: one Equal for a single-column key, KeyEqual across a
// composite one.
func (j *WindowJoin) processColRows(port int, b *stream.Batch, rows []int32, out *stream.Batch, ends []int32) []int32 {
	me, opp := j.sides[port], j.sides[1-port]
	n := len(rows)
	j.received[port] += int64(n)

	if cap(j.col.hashes) < n {
		j.col.hashes = make([]uint64, n)
	}
	hashes := j.col.hashes[:n]
	j.PartitionHashCol(port, b, rows, hashes)

	tups := j.col.slab.materialize(b, rows)

	pairs := &j.col.pairs
	pairs.reset()
	run := j.col.run[:0]
	single := len(me.key) == 1
	myKey, oppKey := me.key[0], opp.key[0]
	match := func(cand, t *tuple.Tuple) bool {
		if single {
			return cand.Vals[oppKey].Equal(t.Vals[myKey])
		}
		return cand.KeyEqual(t, opp.key, me.key)
	}

	for i := 0; i < n; {
		ts := tups[i].Ts
		jj := i + 1
		for jj < n && tups[jj].Ts == ts {
			jj++
		}
		// Watermark bookkeeping once per run: the row path calls these
		// per tuple, but every call after the first at an equal
		// timestamp is a no-op, so wm/pendingWM/sweep state advance
		// identically.
		opp.advanceWM(ts)
		if opp.method == JoinNestedLoop {
			opp.sweep()
		}
		cutoff := opp.probeCutoff()
		switch opp.method {
		case JoinHash:
			for x := i; x < jj; x++ {
				if bucket := opp.index[hashes[x]]; bucket != nil {
					t := &tups[x]
					for _, cand := range bucket {
						if cand.Ts <= cutoff {
							continue // expired; physical sweep deferred
						}
						j.probes++
						if match(cand, t) {
							pairs.add(int32(x), cand)
						}
					}
				}
				pairs.closeRow()
			}
		case JoinNestedLoop:
			for x := i; x < jj; x++ {
				t := &tups[x]
				opp.fifo.Each(func(cand *tuple.Tuple) bool {
					if cand.Ts <= cutoff {
						return true
					}
					j.probes++
					if match(cand, t) {
						pairs.add(int32(x), cand)
					}
					return true
				})
				pairs.closeRow()
			}
		}
		// Run-segmented insert: the sorted-flip and lastIns bookkeeping
		// advance once (all timestamps in the run are equal), then the
		// FIFO takes the run in segment-sized chunks and the index
		// appends with the precomputed hashes.
		if me.sorted && ts < me.lastIns {
			me.sorted = false
			me.sweep()
		}
		me.lastIns = ts
		run = run[:0]
		for x := i; x < jj; x++ {
			run = append(run, &tups[x])
		}
		me.fifo.PushRun(run)
		if me.index != nil {
			for x := i; x < jj; x++ {
				me.indexInsert(hashes[x], &tups[x])
			}
		}
		i = jj
	}
	for k := range run {
		run[k] = nil
	}
	j.col.run = run[:0]

	kern := j.colKern
	if j.residual != nil && kern == nil {
		kern = expr.CompileKernel(j.residual, j.out.Arity())
		j.colKern = kern
	}
	emitted, ends := pairs.flush(out, port, j.leftSch.Arity(), j.outCols, tups, kern, ends)
	j.emitted += int64(emitted)
	return ends
}

// PartitionHashCol implements KeyPartitionable with the same per-row
// hashes PartitionHash produces, fast lane included.
func (j *WindowJoin) PartitionHashCol(port int, b *stream.Batch, rows []int32, out []uint64) {
	s := j.sides[port]
	if s.fastKey >= 0 {
		tuple.HashColRows(b.Cols[s.fastKey], rows, out)
		return
	}
	tuple.HashColsRows(b.Cols, s.key, rows, out)
}

// ColFallbacks reports how many columnar batches/spans this operator
// rerouted through the row path (fast-envelope misses). After a
// partitioned run this is the fold of every replica's count.
func (j *WindowJoin) ColFallbacks() int64 { return j.colFallbacks }

// XJoin columnar path. XJoin's in-memory stage has no watermark or
// window-order bookkeeping, so every batch takes the vectorized lane:
// hash the key columns once (the generic FNV column walk matches
// Tuple.Key exactly, so multi-column keys vectorize too), probe the
// opposite in-memory partitions, and gather/refine pairs with the same
// machinery as WindowJoin. The spill protocol is untouched: inserts,
// budget checks and residency stamps run per row in arrival order.

// ProcessBatch implements BatchOperator.
func (x *XJoin) ProcessBatch(port int, b *stream.Batch, emitB EmitBatch, _ Emit) {
	if port < 0 || port > 1 {
		b.Release()
		return
	}
	rows := rampRows(b, &x.col.ramp)
	if len(rows) == 0 {
		b.Release()
		return
	}
	if x.colPool == nil {
		size := len(rows)
		if size < 64 {
			size = 64
		}
		x.colPool = stream.NewColPool(x.out, size)
	}
	out := x.colPool.Get()
	x.processColRows(port, b, rows, out, nil)
	b.Release()
	if out.Rows() > 0 {
		emitB(out)
	} else {
		out.Release()
	}
}

// ProcessColSpan implements KeyPartitionable.
func (x *XJoin) ProcessColSpan(port int, b *stream.Batch, rows []int32, out *stream.Batch, ends []int32) []int32 {
	if ends == nil {
		ends = make([]int32, 0, len(rows))
	}
	return x.processColRows(port, b, rows, out, ends)
}

func (x *XJoin) processColRows(port int, b *stream.Batch, rows []int32, out *stream.Batch, ends []int32) []int32 {
	n := len(rows)
	if cap(x.col.hashes) < n {
		x.col.hashes = make([]uint64, n)
	}
	hashes := x.col.hashes[:n]
	tuple.HashColsRows(b.Cols, x.keys[port], rows, hashes)

	tups := x.col.slab.materialize(b, rows)

	pairs := &x.col.pairs
	pairs.reset()
	myKey, oppKey := x.keys[port], x.keys[1-port]
	for i := 0; i < n; i++ {
		t := &tups[i]
		x.seq++
		p := int(hashes[i] % uint64(x.nparts))
		for _, cand := range x.parts[1-port][p].mem {
			if cand.t.KeyEqual(t, oppKey, myKey) {
				pairs.add(int32(i), cand.t)
			}
		}
		pairs.closeRow()
		x.parts[port][p].mem = append(x.parts[port][p].mem, xtuple{t: t, ats: x.seq, dts: math.MaxInt64})
		x.inMem++
		if x.inMem > x.budget {
			x.spillLargest()
		}
	}

	kern := x.colKern
	if x.residual != nil && kern == nil {
		kern = expr.CompileKernel(x.residual, x.out.Arity())
		x.colKern = kern
	}
	emitted, ends := pairs.flush(out, port, x.leftSch.Arity(), x.outCols, tups, kern, ends)
	x.emitted += int64(emitted)
	return ends
}

// PartitionHashCol implements KeyPartitionable, matching PartitionHash.
func (x *XJoin) PartitionHashCol(port int, b *stream.Batch, rows []int32, out []uint64) {
	tuple.HashColsRows(b.Cols, x.keys[port], rows, out)
}
