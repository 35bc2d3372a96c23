// Pane-based sliding-window aggregation: each tuple updates exactly one
// slide-aligned pane's group table, and a window's result is produced at
// close time by folding its constituent panes' fixed-arity partials via
// Partializable.MergePartial. This turns the per-tuple cost of a sliding
// window with overlap factor Range/Slide from O(Range/Slide) state
// updates into O(1) — the low-level/high-level aggregation split of
// slides 34-37 applied *inside* one operator, with panes playing the
// LFTA role and the window fold the HFTA role. A sliding window whose
// aggregates are exactly invertible goes one step further and keeps a
// running window table, so a close costs one pane, not Range/Slide (see
// "Running window" below).
//
// The same partial-record plumbing doubles as the engine's intra-operator
// parallelism hook: a pane-path GroupBy can be cloned into N partial
// replicas (ClonePartial) whose outputs a PaneCombiner merges back into
// the exact single-copy result stream (see exec.RunWith), and as the
// distributed low level: a slot-bounded replica per observation point
// (BoundedPartial, partial.go; see query.Decompose).

package agg

import (
	"fmt"
	"math"
	"sort"

	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// allPartializable reports whether every aggregate ships fixed-arity
// partials — the precondition for sharing pane sub-aggregates. Holistic
// states (median, count distinct, ...) do not.
func allPartializable(aggs []Spec) bool {
	for _, a := range aggs {
		if _, ok := a.Fn.New().(Partializable); !ok {
			return false
		}
	}
	return true
}

// paneTable is one pane's group table: partial accumulators for the
// slide-aligned interval [start, start+Slide).
type paneTable struct {
	groupTable
	start int64
}

// resettable is implemented by accumulator states that can restore the
// fresh (Fn.New) state in place, enabling pane recycling. Unexported on
// purpose: only in-package states participate.
type resettable interface{ reset() }

// resetStates resets every state in place and reports whether all of
// them support it; groups whose states cannot reset are simply dropped
// to the garbage collector.
func resetStates(states []State) bool {
	for _, st := range states {
		r, ok := st.(resettable)
		if !ok {
			return false
		}
		r.reset()
	}
	return true
}

// UsesPanes reports whether the operator runs the pane path.
func (g *GroupBy) UsesPanes() bool { return g.paneAsn != nil }

// DisablePanes forces the legacy per-window path (ablation and
// equivalence testing). Must be called before the first Push.
func (g *GroupBy) DisablePanes() *GroupBy {
	if g.paneAsn != nil {
		g.paneAsn = nil
		g.panes, g.paneWins, g.lastPane = nil, nil, nil
		g.run = nil
		g.assigner = window.NewAssigner(g.spec)
	}
	return g
}

// CloseStrategy names how a closing window's result is produced, for
// Plan.Explain.
func (g *GroupBy) CloseStrategy() string {
	switch {
	case g.paneAsn == nil:
		return "legacy per-window"
	case g.spec.Range == g.spec.Slide:
		return "close: tumbling pane"
	case g.run != nil:
		return "close: running window"
	}
	return "close: full fold"
}

// foldPane routes a tuple into its single pane. A pane is created on
// first touch, at which point it registers every still-open window
// instance it contributes to — since a pane holds at least one tuple,
// the registry is exactly the set of open window instances the legacy
// path would have materialized. Contributions to windows that already
// closed (late tuples) go to legacy-style side tables instead: folding
// them through panes would wrongly resurrect the original (already
// emitted) pane data alongside the late data.
func (g *GroupBy) foldPane(t *tuple.Tuple) {
	p := g.locatePane(t.Ts)
	if p == nil {
		// Every window covering this tuple has closed already.
		g.foldLateClosed(t)
		return
	}
	g.fold(&p.groupTable, t)
	if t.Ts < g.watermark {
		g.lateIntoPane(p)
		g.foldLateClosed(t)
	}
}

// locatePane resolves a timestamp to its open pane, creating (or
// recycling) the pane and registering its window instances on first
// touch; nil means every covering window has retired and the tuple must
// take the late-side-table path. Shared by the row fold (foldPane) and
// the columnar fold (colfold.go).
func (g *GroupBy) locatePane(ts int64) *paneTable {
	p := g.lastPane
	if p == nil || ts < p.start || ts >= p.end {
		id := g.paneAsn.Pane(ts)
		if g.paneAsn.Retired(id.Start, g.watermark) {
			return nil
		}
		p = g.panes[id.Start]
		if p == nil {
			if n := len(g.paneFree); n > 0 {
				// Recycled pane: empty group table, slot array kept.
				p = g.paneFree[n-1]
				g.paneFree = g.paneFree[:n-1]
				p.start, p.end = id.Start, id.End
			} else {
				p = &paneTable{
					groupTable: groupTable{end: id.End},
					start:      id.Start,
				}
			}
			g.panes[id.Start] = p
			g.paneAsn.Windows(id.Start, func(w window.ID) bool {
				if w.End <= g.watermark {
					return true // closed: late side tables handle it
				}
				if _, ok := g.paneWins[w.Start]; !ok {
					g.paneWins[w.Start] = w.End
					if w.End < g.paneNext {
						g.paneNext = w.End
					}
				}
				return true
			})
		}
		g.lastPane = p
	}
	return p
}

// foldLateClosed folds a late tuple into re-opened legacy tables for
// the covering windows that have already closed; they re-emit at the
// next advance with only the late contributions — exactly the legacy
// path's behaviour. Covering windows still open receive the tuple
// through its pane.
func (g *GroupBy) foldLateClosed(t *tuple.Tuple) {
	g.paneAsn.Windows(g.paneAsn.Pane(t.Ts).Start, func(w window.ID) bool {
		if w.End > g.watermark {
			return true // open: covered by the pane fold
		}
		tbl, ok := g.windows[w.Start]
		if !ok {
			tbl = &groupTable{end: w.End}
			g.windows[w.Start] = tbl
		}
		g.fold(tbl, t)
		return true
	})
}

// advancePanes emits every registered window whose end has passed, then
// retires panes no open window will reference again. Open windows never
// lose panes: a pane of window [ws, ws+Range) retires only once the
// watermark reaches paneStart+Range >= ws+Range, which closes the
// window first. On a partial replica every group it removes is emitted
// (and counted in emitted) first, which BoundedReplica relies on.
func (g *GroupBy) advancePanes(now int64, emit ops.Emit) {
	// Fast exit on the per-tuple path: nothing can be due before the
	// earliest open window end, and late-reopened side tables force the
	// full scan.
	if now < g.paneNext && len(g.windows) == 0 {
		return
	}
	next := int64(math.MaxInt64)
	due := g.dueBuf[:0]
	for ws, we := range g.paneWins {
		if we <= now {
			due = append(due, ws)
		} else if we < next {
			next = we
		}
	}
	g.paneNext = next
	for ws, tbl := range g.windows {
		if tbl.end <= now {
			due = append(due, ws)
		}
	}
	g.dueBuf = due
	if len(due) == 0 {
		return
	}
	g.trackGroups() // groups are about to leave
	// Deterministic output order across runs. A window start appears in
	// at most one of the two maps: paneWins holds open windows,
	// g.windows late-reopened (already closed) ones.
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, ws := range due {
		if tbl, ok := g.windows[ws]; ok {
			g.emitWindow(ws, tbl, emit)
			delete(g.windows, ws)
			continue
		}
		g.emitPaneWindow(ws, g.paneWins[ws], emit)
		delete(g.paneWins, ws)
	}
	// A running window has already taken the closed windows' oldest panes
	// out of the map (see closeRunning).
	for ps, p := range g.panes {
		if g.paneAsn.Retired(ps, now) {
			if g.lastPane == p {
				g.lastPane = nil
			}
			delete(g.panes, ps)
			recycleGroups(&p.groupTable, &g.groupFree)
			if len(g.paneFree) < 256 {
				g.paneFree = append(g.paneFree, p)
			}
		}
	}
}

// emitPaneWindow finalizes one window by folding its panes' partials.
func (g *GroupBy) emitPaneWindow(ws, we int64, emit ops.Emit) {
	switch {
	case g.run != nil:
		g.closeRunning(ws, we, emit)
	case g.spec.Range == g.spec.Slide:
		// A tumbling window is its one pane: that pane's table already
		// holds the result states, so there is nothing to fold.
		if p := g.panes[ws]; p != nil {
			g.emitWindow(ws, &p.groupTable, emit)
		}
	default:
		g.closes.full++
		g.emitWindow(ws, g.combineWindow(ws, we, nil), emit)
	}
}

// emitWindow emits a window's table as result rows, or as partial
// records on a partial replica.
func (g *GroupBy) emitWindow(ws int64, tbl *groupTable, emit ops.Emit) {
	if g.partial {
		g.emitPartialTable(ws, tbl, emit)
		return
	}
	g.emitTable(tbl, emit)
}

// ---- Running window --------------------------------------------------
//
// A sliding window shares all but one pane with the window before it,
// so instead of re-folding Range/Slide panes at every close, a GroupBy
// whose aggregates are exactly invertible keeps the running fold: at a
// close it merges the newest pane in and emits, and on its next call
// subtracts the pane that just expired.
//
// Exact or not at all. The running table serves only count and
// sum/avg/stddev over a UINT argument. Their totals are sums of
// non-negative integers: while every total stays below 2^53, each
// float64 addition is exact, every association yields the same bits,
// and a subtraction restores them — so rows match the full fold byte for
// byte. A total reaching 2^53 sends that window to combineWindow and the
// table is rebuilt at the next close. General floats are never
// subtracted: summing 1e20 then 1.0 and taking 1e20 back out leaves 0,
// and a long-running window would drift.

// closeStats counts how sliding pane windows closed: by delta on the
// running table, by folding every pane into it afresh, or by
// combineWindow's full fold.
type closeStats struct{ delta, rebuild, full int64 }

// runWindow is the running window table. Once the expired pane is
// retired, tbl holds the fold of panes [next, next+Range-Slide): the
// completed panes of the window due to close next. Each group's refs
// counts the held panes containing its key; the group leaves when that
// reaches 0. Groups own their keys (pane groups overwrite theirs in
// place when recycled).
type runWindow struct {
	tbl   groupTable
	valid bool  // false: rebuild at the next close
	next  int64 // start of the window tbl lines up with
	// order holds tbl's groups in key order, maintained by merging in
	// fresh groups (created since the last close) and dropping departed
	// ones, so a close never sorts the whole table. spare is the merge
	// buffer.
	order, fresh, spare []*group
	// expired is the last closed window's oldest pane: out of the pane
	// map already, subtracted and recycled by the next call.
	expired *paneTable
}

// runningGate reports whether a pane-path GroupBy can keep a running
// window: the window slides (a tumbling one emits its pane directly),
// every grouping key is of a kind whose equality is bit identity (FLOAT
// is not: 0 = -0 and NaN != NaN), and every aggregate is count, or
// sum/avg/stddev over a UINT argument.
func runningGate(spec window.Spec, groupBy []expr.Expr, aggs []Spec) bool {
	if spec.Range == spec.Slide {
		return false
	}
	for _, ge := range groupBy {
		if ge.Kind() == tuple.KindFloat {
			return false
		}
	}
	for _, a := range aggs {
		switch a.Fn.New().(type) {
		case *countState:
		case *sumState, *avgState, *stddevState:
			if a.Arg == nil || a.Arg.Kind() != tuple.KindUint {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// closeRunning closes window [ws, we) from the running table: a delta
// (merge the newest pane) when the table lines up with the window, else
// one full fold of the window's panes into it. A total reaching 2^53
// emits the window through combineWindow instead and leaves the table
// to be rebuilt. The window's oldest pane leaves the pane map now; its
// subtraction waits for the operator's next call.
func (g *GroupBy) closeRunning(ws, we int64, emit ops.Emit) {
	rw := g.run
	g.retireExpired() // an earlier window of the same advance
	aligned := rw.valid && rw.next == ws
	exact := true
	if aligned {
		if p := g.panes[ws+g.spec.Range-g.spec.Slide]; p != nil {
			exact = g.addPane(p)
		}
	} else {
		g.resetRunning()
		g.paneAsn.Panes(window.ID{Start: ws, End: we}, func(ps int64) bool {
			if p := g.panes[ps]; p != nil {
				exact = g.addPane(p)
			}
			return exact
		})
	}
	rw.valid, rw.next = exact, ws+g.spec.Slide
	if !exact {
		g.closes.full++
		g.emitWindow(ws, g.combineWindow(ws, we, nil), emit)
	} else {
		if aligned {
			g.closes.delta++
		} else {
			g.closes.rebuild++
		}
		if len(rw.fresh) > 0 {
			sortGroups(rw.fresh)
			rw.order, rw.spare = mergeGroups(rw.spare, rw.order, rw.fresh), rw.order
			clear(rw.fresh)
			rw.fresh = rw.fresh[:0]
		}
		if g.partial {
			g.emitPartialGroups(ws, we, rw.order, emit)
		} else {
			g.emitGroups(we, rw.order, emit)
		}
	}
	if p := g.panes[ws]; p != nil {
		// No open window covers the pane any more.
		delete(g.panes, ws)
		if g.lastPane == p {
			g.lastPane = nil
		}
		rw.expired = p
		if !exact {
			g.retireExpired() // nothing to subtract it from
		}
	}
}

// addPane merges pane p into the running table and reports whether
// every total stayed exact; on false the table is abandoned mid-merge.
func (g *GroupBy) addPane(p *paneTable) bool {
	rw := g.run
	for _, s := range p.slots {
		if s.grp == nil {
			continue
		}
		// The pane's probe is the running table's too.
		rg := g.locateGroup(&rw.tbl, s.grp.keys, s.h)
		if rg.refs == 0 {
			rw.fresh = append(rw.fresh, rg)
		}
		rg.refs++
		for i, st := range rg.states {
			_ = st.Merge(s.grp.states[i]) // the gate admits only states that always merge
			if !st.(invertible).exact() {
				return false
			}
		}
	}
	return true
}

// retireExpired subtracts the last closed window's oldest pane from the
// running table and recycles the pane. Push, ProcessBatch and Flush call
// it first, so on the serial loop it runs after the close's rows have
// been dispatched downstream.
func (g *GroupBy) retireExpired() {
	rw := g.run
	if rw == nil || rw.expired == nil {
		return
	}
	p := rw.expired
	rw.expired = nil
	if rw.valid {
		rw.valid = g.subtractPane(p)
	}
	recycleGroups(&p.groupTable, &g.groupFree)
	if len(g.paneFree) < 256 {
		g.paneFree = append(g.paneFree, p)
	}
}

// subtractPane unmerges pane p from the running table, dropping groups
// no held pane contains any more; false means p was not in the table.
func (g *GroupBy) subtractPane(p *paneTable) bool {
	rw := g.run
	left := false
	for _, s := range p.slots {
		if s.grp == nil {
			continue
		}
		i := rw.tbl.find(s.grp.keys, s.h)
		if i < 0 {
			return false
		}
		rg := rw.tbl.slots[i].grp
		for j, st := range rg.states {
			st.(invertible).unmerge(s.grp.states[j])
		}
		rg.refs--
		if rg.refs > 0 {
			continue
		}
		left = true
		rw.tbl.removeAt(i)
		if len(g.groupFree) < 1<<14 && resetStates(rg.states) {
			g.groupFree = append(g.groupFree, rg)
		}
	}
	if left {
		keep := rw.order[:0]
		for _, grp := range rw.order {
			if grp.refs > 0 {
				keep = append(keep, grp)
			}
		}
		clear(rw.order[len(keep):])
		rw.order = keep
	}
	return true
}

// resetRunning empties the running table for a rebuild.
func (g *GroupBy) resetRunning() {
	rw := g.run
	for _, s := range rw.tbl.slots {
		if s.grp != nil {
			s.grp.refs = 0
		}
	}
	recycleGroups(&rw.tbl, &g.groupFree)
	clear(rw.order)
	clear(rw.fresh)
	rw.order, rw.fresh = rw.order[:0], rw.fresh[:0]
}

// lateIntoPane drops the running table when a late tuple has landed in
// a pane the table already holds; the next close rebuilds it.
func (g *GroupBy) lateIntoPane(p *paneTable) {
	if rw := g.run; rw != nil && p.start < rw.next+g.spec.Range-g.spec.Slide {
		rw.valid = false
	}
}

// dropRunning invalidates the running table (punctuation-closed groups,
// Flush, Restore); a pending expired pane is simply recycled.
func (g *GroupBy) dropRunning() {
	if g.run != nil {
		g.run.valid = false
	}
}

// mergeGroups merges fresh (sorted, keys absent from order) into the
// key-ordered order, writing into dst: a binary search per fresh group
// and block copies in between.
func mergeGroups(dst, order, fresh []*group) []*group {
	dst = dst[:0]
	for _, f := range fresh {
		i := sort.Search(len(order), func(i int) bool { return compareGroups(order[i], f) > 0 })
		dst = append(dst, order[:i]...)
		dst = append(dst, f)
		order = order[i:]
	}
	return append(dst, order...)
}

// combineWindow folds the partials of every pane constituting window
// [ws, we) into per-group result states, visiting panes oldest first
// (the deterministic fold order). bounds, when non-nil, restricts the
// fold to groups matching a punctuation's patterns.
func (g *GroupBy) combineWindow(ws, we int64, bounds []keyBound) *groupTable {
	tbl := g.combTbl
	if tbl == nil {
		tbl = &groupTable{}
		g.combTbl = tbl
	}
	// Reclaim the previous close's out-groups; their keys alias pane
	// groups and are only ever replaced, never written through.
	recycleGroups(tbl, &g.combFree)
	tbl.end = we
	g.paneAsn.Panes(window.ID{Start: ws, End: we}, func(ps int64) bool {
		p := g.panes[ps]
		if p == nil {
			return true
		}
		for _, s := range p.slots {
			pg := s.grp
			if pg == nil || bounds != nil && !matchBounds(pg.keys, bounds) {
				continue
			}
			// The pane's probe is the combine table's too.
			var out *group
			if i := tbl.find(pg.keys, s.h); i >= 0 {
				out = tbl.slots[i].grp
			} else {
				if n := len(g.combFree); n > 0 {
					out = g.combFree[n-1]
					g.combFree = g.combFree[:n-1]
				} else {
					states := make([]State, len(g.aggs))
					for i, a := range g.aggs {
						states[i] = a.Fn.New()
					}
					out = &group{states: states}
				}
				// Keys are immutable values: share the pane group's
				// slice.
				out.keys = pg.keys
				tbl.insert(out, s.h)
			}
			for i := range g.aggs {
				// In-process panes merge states directly (no
				// serialization); the MergePartial wire form is for the
				// replica path. States of the same Fn merge without
				// error, but fall back through the partial encoding if
				// one ever refuses.
				if out.states[i].Merge(pg.states[i]) != nil {
					_ = out.states[i].(Partializable).MergePartial(
						pg.states[i].(Partializable).PartialVals())
				}
			}
		}
		return true
	})
	return tbl
}

// closeGroupsPanes is the pane path of closeGroups: for every open
// window (ascending start), fold the punctuation-matched groups from its
// panes and emit them with end = the punctuation's timestamp; then
// release the matched groups' pane state.
func (g *GroupBy) closeGroupsPanes(end int64, bounds []keyBound, emit ops.Emit) {
	var starts []int64
	for ws := range g.paneWins {
		starts = append(starts, ws)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, ws := range starts {
		tbl := g.combineWindow(ws, g.paneWins[ws], bounds)
		if tbl.n == 0 {
			continue
		}
		tbl.end = end
		g.emitWindow(ws, tbl, emit)
	}
	for _, p := range g.panes {
		p.removeMatching(bounds)
	}
	g.dropRunning() // its groups may just have lost pane state
	// Late-reopened windows keep legacy side tables; close matching
	// groups there too.
	var lateStarts []int64
	for ws := range g.windows {
		lateStarts = append(lateStarts, ws)
	}
	sort.Slice(lateStarts, func(i, j int) bool { return lateStarts[i] < lateStarts[j] })
	for _, ws := range lateStarts {
		tbl := g.windows[ws]
		done := tbl.removeMatching(bounds)
		if len(done) == 0 {
			continue
		}
		sortGroups(done)
		if g.partial {
			g.emitPartialGroups(ws, end, done, emit)
		} else {
			for _, grp := range done {
				g.emitGroup(end, grp, emit)
			}
		}
	}
}

// flushPanes emits every registered window (and late-reopened side
// table) and clears pane state. Like advancePanes, on a partial replica
// it removes no group without emitting it.
func (g *GroupBy) flushPanes(emit ops.Emit) {
	var starts []int64
	for ws := range g.paneWins {
		starts = append(starts, ws)
	}
	for ws := range g.windows {
		starts = append(starts, ws)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, ws := range starts {
		if tbl, ok := g.windows[ws]; ok {
			g.emitWindow(ws, tbl, emit)
			delete(g.windows, ws)
			continue
		}
		g.emitPaneWindow(ws, g.paneWins[ws], emit)
		delete(g.paneWins, ws)
	}
	g.panes = make(map[int64]*paneTable)
	g.lastPane = nil
	g.paneNext = math.MaxInt64
	g.dropRunning()
}

// ---- Partial-replica mode -------------------------------------------

// emitProgress forwards watermark progress to the downstream combiner,
// throttled to slide-boundary crossings so the per-tuple path stays
// punctuation-free. Every window end is a slide multiple (Range is a
// multiple of Slide), so the throttled mark still releases exactly the
// windows the replica has emitted.
func (g *GroupBy) emitProgress(emit ops.Emit) {
	if !g.partial {
		return
	}
	if m := (g.watermark / g.spec.Slide) * g.spec.Slide; m > g.partialMark {
		g.partialMark = m
		emit(stream.Punct(&stream.Punctuation{Ts: m}))
	}
}

// PartialSchema is the schema of partial-replica output:
// [wend, wstart, keys..., flattened partial columns]. wstart
// disambiguates punctuation-closed group records from different windows
// sharing the same close timestamp.
func (g *GroupBy) PartialSchema() *tuple.Schema {
	fields := make([]tuple.Field, 0, 2+len(g.groupBy)+len(g.aggs)*2)
	fields = append(fields,
		tuple.Field{Name: "wend", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "wstart", Kind: tuple.KindTime})
	for i, ge := range g.groupBy {
		fields = append(fields, tuple.Field{Name: g.groupName[i], Kind: ge.Kind()})
	}
	for _, a := range g.aggs {
		p := a.Fn.New().(Partializable)
		for j, k := range p.PartialKinds() {
			fields = append(fields, tuple.Field{Name: fmt.Sprintf("%s#%d", a.Name, j), Kind: k})
		}
	}
	return tuple.NewSchema(g.name+".partial", fields...)
}

// emitPartialTable serializes a combined window table as partial
// records for the downstream PaneCombiner.
func (g *GroupBy) emitPartialTable(ws int64, tbl *groupTable, emit ops.Emit) {
	g.emitPartialGroups(ws, tbl.end, sortedTableGroups(tbl), emit)
}

// emitPartialGroups emits one partial record per group, in the given
// (key) order.
func (g *GroupBy) emitPartialGroups(ws, end int64, grps []*group, emit ops.Emit) {
	for _, grp := range grps {
		vals := make([]tuple.Value, 0, 2+len(grp.keys)+len(grp.states)*2)
		vals = append(vals, tuple.Time(end), tuple.Time(ws))
		vals = append(vals, grp.keys...)
		for _, st := range grp.states {
			vals = append(vals, st.(Partializable).PartialVals()...)
		}
		g.emitted++
		emit(stream.Tup(tuple.New(end, vals...)))
	}
}

// CanPartial implements ops.PartialAggregable: the engine may run this
// operator as N partial-emitting replicas plus a final combiner only on
// the pane path, where every aggregate ships fixed-arity partials.
func (g *GroupBy) CanPartial() bool { return g.paneAsn != nil && !g.partial }

// ClonePartial implements ops.PartialAggregable: a fresh replica that
// emits partial records and progress punctuations instead of final
// rows. HAVING stays with the combiner, which sees merged totals.
func (g *GroupBy) ClonePartial() ops.Operator {
	clone := &GroupBy{
		name: g.name, groupBy: g.groupBy, groupName: g.groupName,
		keyCols: g.keyCols, aggs: g.aggs, spec: g.spec,
		wordKey: g.wordKey, groupSize: g.groupSize,
		out:      g.PartialSchema(),
		windows:  make(map[int64]*groupTable),
		scratch:  make([]tuple.Value, 0, len(g.groupBy)),
		paneAsn:  g.paneAsn,
		panes:    make(map[int64]*paneTable),
		paneWins: make(map[int64]int64),
		paneNext: math.MaxInt64,
		partial:  true,
	}
	if g.run != nil {
		clone.run = &runWindow{}
	}
	return clone
}

// Combiner implements ops.PartialAggregable: the node that merges the
// replicas' partial records back into the single-copy result stream.
func (g *GroupBy) Combiner() ops.Operator {
	return &PaneCombiner{
		name: g.name + ".combine", nkeys: len(g.groupBy),
		aggs: g.aggs, having: g.having, out: g.out,
		groups: make(map[uint64][]*cgroup),
	}
}

// PaneCombiner merges partial records produced by ClonePartial replicas:
// it re-groups on (window end, window start, keys), folds the
// fixed-arity partials, and finalizes windows as the merged watermark
// passes their ends — the high-level half of the two-level aggregation
// split (slide 37), here applied to intra-operator parallelism.
type PaneCombiner struct {
	name      string
	nkeys     int
	aggs      []Spec
	having    expr.Expr
	out       *tuple.Schema
	groups    map[uint64][]*cgroup
	n         int
	watermark int64
	emitted   int64
	mergeErrs int64
}

type cgroup struct {
	end, start int64
	keys       []tuple.Value
	states     []State
}

// Name implements ops.Operator.
func (c *PaneCombiner) Name() string { return c.name }

// OutSchema implements ops.Operator.
func (c *PaneCombiner) OutSchema() *tuple.Schema { return c.out }

// NumInputs implements ops.Operator.
func (c *PaneCombiner) NumInputs() int { return 1 }

// Push implements ops.Operator.
func (c *PaneCombiner) Push(_ int, e stream.Element, emit ops.Emit) {
	if e.IsPunct() {
		c.finalize(e.Punct.Ts, emit)
		return
	}
	t := e.Tuple
	end, _ := t.Vals[0].AsTime()
	start, _ := t.Vals[1].AsTime()
	keys := t.Vals[2 : 2+c.nkeys]
	h := (uint64(end)*1099511628211 ^ uint64(start)) * 1099511628211
	for _, k := range keys {
		h ^= k.Hash()
		h *= 1099511628211
	}
	var grp *cgroup
	for _, cand := range c.groups[h] {
		if cand.end == end && cand.start == start && keysEqual(cand.keys, keys) {
			grp = cand
			break
		}
	}
	if grp == nil {
		grp = &cgroup{
			end: end, start: start,
			keys:   append([]tuple.Value(nil), keys...),
			states: make([]State, len(c.aggs)),
		}
		for i, a := range c.aggs {
			grp.states[i] = a.Fn.New()
		}
		c.groups[h] = append(c.groups[h], grp)
		c.n++
	}
	off := 2 + c.nkeys
	for i := range c.aggs {
		st := grp.states[i].(Partializable)
		arity := len(st.PartialKinds())
		if err := st.MergePartial(t.Vals[off : off+arity]); err != nil {
			c.mergeErrs++
		}
		off += arity
	}
}

// finalize emits every group whose window has closed by now.
func (c *PaneCombiner) finalize(now int64, emit ops.Emit) {
	if now <= c.watermark {
		return
	}
	c.watermark = now
	c.emitUpTo(now, emit)
}

// emitUpTo releases groups with end <= now in (end, start, keys) order —
// the cumulative emission order of the single-copy operator.
func (c *PaneCombiner) emitUpTo(now int64, emit ops.Emit) {
	var due []*cgroup
	for h, chain := range c.groups {
		keep := chain[:0]
		for _, grp := range chain {
			if grp.end <= now {
				due = append(due, grp)
				c.n--
			} else {
				keep = append(keep, grp)
			}
		}
		if len(keep) == 0 {
			delete(c.groups, h)
		} else {
			c.groups[h] = keep
		}
	}
	sort.Slice(due, func(i, j int) bool {
		a, b := due[i], due[j]
		if a.end != b.end {
			return a.end < b.end
		}
		if a.start != b.start {
			return a.start < b.start
		}
		for k := range a.keys {
			if cv := a.keys[k].Compare(b.keys[k]); cv != 0 {
				return cv < 0
			}
		}
		return false
	})
	for _, grp := range due {
		vals := make([]tuple.Value, 0, 1+len(grp.keys)+len(grp.states))
		vals = append(vals, tuple.Time(grp.end))
		vals = append(vals, grp.keys...)
		for _, st := range grp.states {
			vals = append(vals, st.Result())
		}
		out := tuple.New(grp.end, vals...)
		if c.having != nil && !expr.EvalBool(c.having, out) {
			continue
		}
		c.emitted++
		emit(stream.Tup(out))
	}
}

// Flush implements ops.Operator.
func (c *PaneCombiner) Flush(emit ops.Emit) {
	c.emitUpTo(math.MaxInt64, emit)
}

// MemSize implements ops.Operator.
func (c *PaneCombiner) MemSize() int {
	n := 96
	for _, chain := range c.groups {
		for _, grp := range chain {
			n += 48
			for _, k := range grp.keys {
				n += k.MemSize()
			}
			for _, st := range grp.states {
				n += st.MemSize()
			}
		}
	}
	return n
}

// Emitted reports final rows produced.
func (c *PaneCombiner) Emitted() int64 { return c.emitted }

// MergeErrors reports partial records that failed to merge (malformed
// input, e.g. a stream not produced by matching replicas).
func (c *PaneCombiner) MergeErrors() int64 { return c.mergeErrs }
