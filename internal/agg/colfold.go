// Columnar fold: GroupBy's batch-native fast path.
//
// The row path pays, per tuple, an interface dispatch per aggregate
// argument, another per state update, and a group-index probe per key.
// The columnar fold removes the first two for the shapes that dominate
// streaming aggregation — pane-compatible time windows grouped by bare
// columns with partializable aggregates:
//
//   - aggregate arguments are read straight out of the column vectors;
//   - state updates run typed loops over the concrete state structs
//     (countState.n++ instead of State.Add through the interface);
//   - group lookups are resolved for a whole equal-timestamp run before
//     the update loops. They probe the table's flat index (table.go)
//     exactly as the row path does; for one bare integral key column
//     the probe is a multiply-mix of the payload word, no Value.Hash.
//
// Everything outside that envelope — computed keys or arguments,
// legacy/unbounded windows, late tuples, non-scalar keys — gathers the
// row into a scratch tuple and reruns the exact row path, so the
// columnar fold is semantically invisible.

package agg

import (
	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// Typed state-update selectors. updGeneric falls back to State.Add,
// which every aggregate supports; the named selectors inline the Add
// bodies of the partializable states (funcs.go) exactly.
type colUpd int8

const (
	updGeneric colUpd = iota
	updCount
	updSum
	updAvg
	updStddev
)

// colAgg is one aggregate's columnar update plan: which column feeds it
// (-1 = no argument) and which typed loop updates its state.
type colAgg struct {
	kind colUpd
	col  int
}

// Columnar plan states.
const (
	colPlanNone = int8(iota) // not planned yet
	colPlanFast              // pane fold straight off the columns
	colPlanRow               // gather each row, rerun the row path
)

// planColumnar decides, once per operator instance, how ProcessBatch
// handles batches of the given arity.
func (g *GroupBy) planColumnar(arity int) {
	g.colPlan = colPlanRow
	if g.paneAsn == nil || g.keyCols == nil {
		return
	}
	for _, idx := range g.keyCols {
		if idx >= arity {
			return
		}
	}
	aggs := make([]colAgg, len(g.aggs))
	for i, a := range g.aggs {
		col := -1
		if a.Arg != nil {
			c, ok := a.Arg.(*expr.Col)
			if !ok || c.Index >= arity {
				return
			}
			col = c.Index
		}
		kind := updGeneric
		switch a.Fn.New().(type) {
		case *countState:
			kind = updCount
		case *sumState:
			kind = updSum
		case *avgState:
			kind = updAvg
		case *stddevState:
			kind = updStddev
		}
		aggs[i] = colAgg{kind: kind, col: col}
	}
	g.colAggs = aggs
	g.colPlan = colPlanFast
}

// ProcessBatch implements ops.BatchOperator. Aggregation output is
// row-shaped (closed windows, partial records, progress punctuations),
// so everything leaves through emit; the batch reference is consumed.
//
// The fast plan folds the batch in equal-timestamp runs: stream sources
// emit rows in timestamp order, so consecutive batch rows overwhelmingly
// share a timestamp, and every row of a run shares one watermark
// verdict and one pane. Advancing, pane lookup, lateness checks and
// progress all happen once per run; only the group fold itself remains
// per-row.
func (g *GroupBy) ProcessBatch(_ int, b *stream.Batch, _ ops.EmitBatch, emit ops.Emit) {
	g.retireExpired()
	if g.colPlan == colPlanNone {
		g.planColumnar(len(b.Cols))
	}
	if g.colPlan != colPlanFast {
		if b.Sel != nil {
			for _, r := range b.Sel {
				g.pushRow(g.gatherColRow(b, int(r)), emit)
			}
		} else {
			for r := 0; r < b.Rows(); r++ {
				g.pushRow(g.gatherColRow(b, r), emit)
			}
		}
		b.Release()
		return
	}
	rows := b.Sel
	if rows == nil {
		// Dense batch: materialize the row-index ramp once so the run
		// fold has a single shape.
		n := b.Rows()
		if cap(g.runRows) < n {
			g.runRows = make([]int32, n)
		}
		rows = g.runRows[:n]
		for i := range rows {
			rows[i] = int32(i)
		}
	}
	for i := 0; i < len(rows); {
		ts := b.Ts[rows[i]]
		j := i + 1
		for j < len(rows) && b.Ts[rows[j]] == ts {
			j++
		}
		g.foldColRun(b, ts, rows[i:j], emit)
		i = j
	}
	b.Release()
}

// foldColRun replays Push's tuple branch for one equal-timestamp run of
// batch rows, taking the columnar pane fold when the pane is open.
func (g *GroupBy) foldColRun(b *stream.Batch, ts int64, rows []int32, emit ops.Emit) {
	if ts > g.watermark {
		g.advance(ts, emit)
	}
	if p := g.locatePane(ts); p == nil {
		// Every covering window already closed: late side tables.
		for _, r := range rows {
			g.foldLateClosed(g.gatherColRow(b, int(r)))
		}
	} else {
		g.foldColSpan(&p.groupTable, b, rows)
		if ts < g.watermark {
			g.lateIntoPane(p)
			for _, r := range rows {
				g.foldLateClosed(g.gatherColRow(b, int(r)))
			}
		}
	}
	g.emitProgress(emit)
}

// gatherColRow copies batch row r into the operator's scratch tuple for
// the row-path lanes. The row is only valid until the next gather; every
// consumer (fold, foldLateClosed, window assignment) copies what it
// keeps.
func (g *GroupBy) gatherColRow(b *stream.Batch, r int) *tuple.Tuple {
	if cap(g.colVals) < len(b.Cols) {
		g.colVals = make([]tuple.Value, len(b.Cols))
	}
	g.colRow.Vals = g.colVals[:len(b.Cols)]
	b.GatherRow(r, &g.colRow)
	return &g.colRow
}

// foldColSpan folds an equal-timestamp run of batch rows into tbl in
// two sweeps: resolve every row's group, then run one typed update loop
// per aggregate over the resolved groups — hoisting the per-aggregate
// dispatch out of the per-row path.
func (g *GroupBy) foldColSpan(tbl *groupTable, b *stream.Batch, rows []int32) {
	if cap(g.runGroups) < len(rows) {
		g.runGroups = make([]*group, len(rows))
	}
	run := g.runGroups[:len(rows)]
	for k, r := range rows {
		run[k] = g.locateColGroup(tbl, b, int(r))
	}
	for i := range g.colAggs {
		ca := &g.colAggs[i]
		switch ca.kind {
		case updCount:
			for k, grp := range run {
				if st, ok := grp.states[i].(*countState); ok {
					st.n++
				} else {
					g.updateOne(grp, i, ca, b, rows[k])
				}
			}
			continue
		case updSum:
			col := b.Cols[ca.col]
			for k, grp := range run {
				if st, ok := grp.states[i].(*sumState); ok {
					if f, ok := col[rows[k]].AsFloat(); ok {
						st.sum += f
						st.n++
					}
				} else {
					g.updateOne(grp, i, ca, b, rows[k])
				}
			}
			continue
		case updAvg:
			col := b.Cols[ca.col]
			for k, grp := range run {
				if st, ok := grp.states[i].(*avgState); ok {
					if f, ok := col[rows[k]].AsFloat(); ok {
						st.sum += f
						st.n++
					}
				} else {
					g.updateOne(grp, i, ca, b, rows[k])
				}
			}
			continue
		case updStddev:
			col := b.Cols[ca.col]
			for k, grp := range run {
				if st, ok := grp.states[i].(*stddevState); ok {
					if f, ok := col[rows[k]].AsFloat(); ok {
						st.sum += f
						st.sq += f * f
						st.n++
					}
				} else {
					g.updateOne(grp, i, ca, b, rows[k])
				}
			}
			continue
		}
		for k, grp := range run {
			g.updateOne(grp, i, ca, b, rows[k])
		}
	}
}

// updateOne is the generic single-row update for one aggregate: the
// interface-dispatch lane for states whose concrete type deviates from
// the plan (never in practice — states come from Fn.New) and for
// aggregates without a typed loop.
func (g *GroupBy) updateOne(grp *group, i int, ca *colAgg, b *stream.Batch, r int32) {
	if ca.col < 0 {
		grp.states[i].Add(tuple.Int(1))
	} else {
		grp.states[i].Add(b.Cols[ca.col][r])
	}
}

// locateColGroup is evalKeys+locateGroup reading the key values out of
// the columns instead of a tuple. Only called on the fast plan, where
// keyCols is non-nil.
func (g *GroupBy) locateColGroup(tbl *groupTable, b *stream.Batch, r int) *group {
	keys := g.scratch[:0]
	for _, idx := range g.keyCols {
		keys = append(keys, b.Cols[idx][r])
	}
	g.scratch = keys
	return g.locateGroup(tbl, keys, g.probe(keys))
}
