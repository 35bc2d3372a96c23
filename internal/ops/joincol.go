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
//     per run (as colfold.go does for panes), and the run's rows are
//     copied value by value into reused slots of the side's column
//     ring (window.Ring) and linked into their key chains with the
//     precomputed hashes — no heap row per input tuple;
//   - matched pairs accumulate as (input row, ring position) references
//     and are gathered column-wise into a pooled output batch through
//     the join's output column map — the arrived side straight from the
//     input batch, the matched side from the opposite ring — the map
//     being the identity, or the bare-column projection the planner
//     fused into the join, in which case columns nobody selects are
//     never gathered;
//   - the residual predicate compiles once via expr.CompileKernel and
//     refines the gathered pairs as a selection vector, with survivors
//     compacted in place.
//
// Every equijoin over time or landmark windows takes this path. Only
// rows-windows, MaxTuples caps and keyless theta joins — whose eviction
// interleaves with insertion per row, or which have no key to hash —
// gather each row into one scratch row and rerun the exact row path.
// Either way the columnar lane is semantically invisible: same outputs
// in the same order, same counters, and byte-identical checkpoint
// snapshots (the ring holds the same rows in the same order; wm/sorted/
// lastIns/pendingWM advance identically because equal-timestamp
// repeats are no-ops in the row path too).

package ops

import (
	"math"

	"streamdb/internal/expr"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
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
	colJoinRow               // gather each row, rerun the row path (envelope miss)
)

// colJoinScratch is the per-instance scratch of the columnar join path.
// All slices are reused across batches; none survive a call except as
// capacity.
type colJoinScratch struct {
	ramp   []int32
	hashes []uint64
	pairs  colPairs
	row    tuple.Tuple // WindowJoin's row fallback: Push copies, so one row serves all
	slab   tupSlab     // XJoin only: its partitions retain the inserted tuples
}

// colPairs accumulates the matched (input row, window candidate) pairs
// of one span and flushes them column-wise into an output batch. A
// WindowJoin names candidates by ring position (pos), an XJoin by
// tuple (cands).
type colPairs struct {
	rows  []int32        // arrived row: batch row (WindowJoin) or span index (XJoin)
	pos   []int64        // WindowJoin: matched ring position, parallel to rows
	cands []*tuple.Tuple // XJoin: matched resident tuple, parallel to rows
	ends  []int32        // cumulative pre-residual pair count per input row
	sel   []int32        // residual selection scratch
}

func (p *colPairs) reset() {
	p.rows = p.rows[:0]
	p.pos = p.pos[:0]
	for k := range p.cands {
		p.cands[k] = nil // stale candidates must not pin expired tuples
	}
	p.cands = p.cands[:0]
	p.ends = p.ends[:0]
}

func (p *colPairs) closeRow() {
	p.ends = append(p.ends, int32(len(p.rows)))
}

// gatherRing appends the accumulated WindowJoin pairs to out through
// the output column map cols (out column i takes column cols[i] of the
// (left, right) concatenation): the arrived side straight from the
// input batch b, the matched side from the opposite ring r by position
// — port says which is which. Output timestamps carry the later of the
// two inputs' timestamps, matching Tuple.Concat.
func (p *colPairs) gatherRing(out *stream.Batch, port, leftArity int, cols []int, b *stream.Batch, r *window.Ring) {
	for oc, c := range cols {
		side := 0
		if c >= leftArity {
			side, c = 1, c-leftArity
		}
		col := out.Cols[oc]
		if side == port {
			in := b.Cols[c]
			for _, row := range p.rows {
				col = append(col, in[row])
			}
		} else {
			rc := r.Col(c)
			for _, pos := range p.pos {
				col = append(col, rc[r.Slot(pos)])
			}
		}
		out.Cols[oc] = col
	}
	ts, rts := out.Ts, r.TsCol()
	for k, row := range p.rows {
		t := b.Ts[row]
		if m := rts[r.Slot(p.pos[k])]; m > t {
			t = m
		}
		ts = append(ts, t)
	}
	out.Ts = ts
}

// gatherTuples is gatherRing for XJoin pairs: the arrived side from the
// span's materialized tuples tups, the matched side from p.cands.
func (p *colPairs) gatherTuples(out *stream.Batch, port, leftArity int, cols []int, tups []tuple.Tuple) {
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

// refine finishes a flush whose np pairs were gathered onto out from
// row base on: it applies the compiled residual kernel (nil = no
// residual) as an in-place selection refinement, compacts survivors,
// and appends per-input-row output offsets to ends when the caller
// tracks spans. Returns the surviving pair count and the extended ends.
func (p *colPairs) refine(out *stream.Batch, base int, kern expr.ColumnKernel, ends []int32) (int, []int32) {
	np := len(p.rows)
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

// tupSlab carves XJoin's partition-retained tuples out of chunked
// slabs. The partitions retain inserted tuples beyond the call, so the
// path cannot gather into reused scratch — but it can amortize: one
// header chunk plus one values chunk serve many spans. A chunk stays
// live until every tuple carved from it is gone.
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
		rows := rampRows(b, &j.col.ramp)
		for _, r := range rows {
			j.pushRow(port, b, r, emit)
		}
		b.Release()
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
	b.Release()
	if out.Rows() > 0 {
		emitB(out)
	} else {
		out.Release()
	}
}

// ProcessColSpan implements KeyPartitionable. The row plan still
// honors the span contract — gather each row, run the exact row path,
// record per-row output offsets — for a direct caller; the router never
// sends it spans, because rows-windows, MaxTuples caps and keyless
// joins decline partitioning.
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
		return j.processColRows(port, b, rows, out, ends)
	}
	j.colFallbacks++
	emit := func(o stream.Element) { out.AppendRow(o.Tuple) }
	for _, r := range rows {
		j.pushRow(port, b, r, emit)
		ends = append(ends, int32(out.Rows()))
	}
	return ends
}

// pushRow runs batch row r through the exact row path, gathered into
// one reused scratch row: Push copies what it keeps.
func (j *WindowJoin) pushRow(port int, b *stream.Batch, r int32, emit Emit) {
	row := &j.col.row
	if len(row.Vals) != len(b.Cols) {
		row.Vals = make([]tuple.Value, len(b.Cols))
	}
	b.GatherRow(int(r), row)
	j.Push(port, stream.Tup(row), emit)
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

	pairs := &j.col.pairs
	pairs.reset()
	r := opp.ring
	oppKey, myKey := opp.key[0], me.key[0]
	oppCol, myCol := r.Col(oppKey), b.Cols[myKey]
	single := len(me.key) == 1
	match := func(pos int64, row int32) bool {
		if single {
			return oppCol[r.Slot(pos)].Equal(myCol[row])
		}
		for k, c := range opp.key {
			if !r.Value(pos, c).Equal(b.Cols[me.key[k]][row]) {
				return false
			}
		}
		return true
	}

	for i := 0; i < n; {
		ts := b.Ts[rows[i]]
		jj := i + 1
		for jj < n && b.Ts[rows[jj]] == ts {
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
				row := rows[x]
				for pos := r.First(hashes[x]); pos != 0; pos = r.Next(pos) {
					if r.Ts(pos) <= cutoff {
						continue // expired; physical sweep deferred
					}
					j.probes++
					if match(pos, row) {
						pairs.rows = append(pairs.rows, row)
						pairs.pos = append(pairs.pos, pos)
					}
				}
				pairs.closeRow()
			}
		case JoinNestedLoop:
			for x := i; x < jj; x++ {
				row := rows[x]
				for pos := r.Head(); pos < r.Tail(); pos++ {
					if r.Ts(pos) <= cutoff {
						continue
					}
					j.probes++
					if match(pos, row) {
						pairs.rows = append(pairs.rows, row)
						pairs.pos = append(pairs.pos, pos)
					}
				}
				pairs.closeRow()
			}
		}
		// Run-segmented insert: the sorted-flip and lastIns bookkeeping
		// advance once (all timestamps in the run are equal), then the
		// ring copies the run's rows with the precomputed hashes.
		me.admit(ts)
		for x := i; x < jj; x++ {
			me.ring.PushRow(ts, hashes[x], b.Cols, rows[x])
		}
		i = jj
	}

	kern := j.colKern
	if j.residual != nil && kern == nil {
		kern = expr.CompileKernel(j.residual, j.out.Arity())
		j.colKern = kern
	}
	base := out.Rows()
	if len(pairs.rows) > 0 {
		pairs.gatherRing(out, port, j.leftSch.Arity(), j.outCols, b, r)
	}
	emitted, ends := pairs.refine(out, base, kern, ends)
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
				pairs.rows = append(pairs.rows, int32(i))
				pairs.cands = append(pairs.cands, cand.t)
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
	base := out.Rows()
	pairs.gatherTuples(out, port, x.leftSch.Arity(), x.outCols, tups)
	emitted, ends := pairs.refine(out, base, kern, ends)
	x.emitted += int64(emitted)
	return ends
}

// PartitionHashCol implements KeyPartitionable, matching PartitionHash.
func (x *XJoin) PartitionHashCol(port int, b *stream.Batch, rows []int32, out []uint64) {
	tuple.HashColsRows(b.Cols, x.keys[port], rows, out)
}
