package agg

import (
	"fmt"

	"streamdb/internal/ckpt"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// Partializable is implemented by aggregate states that can ship a
// fixed-arity partial representation to a higher-level combiner. Only
// distributive and algebraic aggregates qualify — holistic states have
// unbounded partials, which is exactly why Gigascope's low level cannot
// compute them (slides 34-37).
type Partializable interface {
	State
	// PartialVals serializes the accumulator into a fixed set of values.
	PartialVals() []tuple.Value
	// PartialKinds reports the serialized column kinds.
	PartialKinds() []tuple.Kind
	// MergePartial folds a serialized partial into the accumulator.
	MergePartial(vals []tuple.Value) error
}

// PartialVals implements Partializable for countState.
func (s *countState) PartialVals() []tuple.Value { return []tuple.Value{tuple.Int(s.n)} }

// PartialKinds implements Partializable for countState.
func (s *countState) PartialKinds() []tuple.Kind { return []tuple.Kind{tuple.KindInt} }

// MergePartial implements Partializable for countState.
func (s *countState) MergePartial(vals []tuple.Value) error {
	n, ok := vals[0].AsInt()
	if !ok {
		return fmt.Errorf("agg: bad count partial")
	}
	s.n += n
	return nil
}

// PartialVals implements Partializable for sumState.
func (s *sumState) PartialVals() []tuple.Value {
	return []tuple.Value{tuple.Float(s.sum), tuple.Bool(s.n > 0)}
}

// PartialKinds implements Partializable for sumState.
func (s *sumState) PartialKinds() []tuple.Kind {
	return []tuple.Kind{tuple.KindFloat, tuple.KindBool}
}

// MergePartial implements Partializable for sumState. The partial says
// only whether inputs were seen, so it counts as one: n > 0 still means
// "any input", which is all Result and PartialVals read.
func (s *sumState) MergePartial(vals []tuple.Value) error {
	f, ok1 := vals[0].AsFloat()
	a, ok2 := vals[1].AsBool()
	if !ok1 || !ok2 {
		return fmt.Errorf("agg: bad sum partial")
	}
	s.sum += f
	if a {
		s.n++
	}
	return nil
}

// PartialVals implements Partializable for minmaxState.
func (s *minmaxState) PartialVals() []tuple.Value { return []tuple.Value{s.best} }

// PartialKinds implements Partializable for minmaxState.
func (s *minmaxState) PartialKinds() []tuple.Kind { return []tuple.Kind{s.best.Kind} }

// MergePartial implements Partializable for minmaxState.
func (s *minmaxState) MergePartial(vals []tuple.Value) error {
	s.Add(vals[0])
	return nil
}

// PartialVals implements Partializable for avgState.
func (s *avgState) PartialVals() []tuple.Value {
	return []tuple.Value{tuple.Float(s.sum), tuple.Int(s.n)}
}

// PartialKinds implements Partializable for avgState.
func (s *avgState) PartialKinds() []tuple.Kind {
	return []tuple.Kind{tuple.KindFloat, tuple.KindInt}
}

// MergePartial implements Partializable for avgState.
func (s *avgState) MergePartial(vals []tuple.Value) error {
	f, ok1 := vals[0].AsFloat()
	n, ok2 := vals[1].AsInt()
	if !ok1 || !ok2 {
		return fmt.Errorf("agg: bad avg partial")
	}
	s.sum += f
	s.n += n
	return nil
}

// PartialVals implements Partializable for stddevState.
func (s *stddevState) PartialVals() []tuple.Value {
	return []tuple.Value{tuple.Float(s.sum), tuple.Float(s.sq), tuple.Int(s.n)}
}

// PartialKinds implements Partializable for stddevState.
func (s *stddevState) PartialKinds() []tuple.Kind {
	return []tuple.Kind{tuple.KindFloat, tuple.KindFloat, tuple.KindInt}
}

// MergePartial implements Partializable for stddevState.
func (s *stddevState) MergePartial(vals []tuple.Value) error {
	a, ok1 := vals[0].AsFloat()
	b, ok2 := vals[1].AsFloat()
	n, ok3 := vals[2].AsInt()
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("agg: bad stddev partial")
	}
	s.sum += a
	s.sq += b
	s.n += n
	return nil
}

// ---- Slot-bounded partial replica -------------------------------------
//
// The low-level half of Gigascope's two-level aggregation (slide 37):
// "bounded number of groups maintained at low level, unbounded number of
// groups maintainable at high level". A BoundedReplica is a partial
// replica (ClonePartial) whose live groups sit in a direct-mapped
// directory of fixed size. A tuple whose slot holds a different key, or a
// group of a different window, first evicts that occupant as a partial
// record; the PaneCombiner above merges every record of a (window, key)
// back into one row.

// BoundedReplica is a slot-bounded partial replica (see BoundedPartial).
// It drives its GroupBy only through the methods below; everything else
// (Flush, Snapshot, Emitted, MaxGroups, ...) is the GroupBy's own.
//
// The directory is derived from the group tables and never snapshotted:
// slot h % len(slots), with h the keys' FNV chain hash (chainHash, not
// the tables' probe, so which keys share a slot does not depend on the
// index), holds at
// most one live group. Apart from an eviction, a group leaves a partial
// replica's tables only as an emitted partial record (a window close in
// advancePanes, a punctuation close in closeGroups, flushPanes), so the
// directory is stale exactly when the emitted count has moved since it
// was last in step.
type BoundedReplica struct {
	*GroupBy
	slots     []slotEntry
	synced    int64 // the replica's emitted count when slots last matched its tables
	evictions int64
}

// slotEntry is one occupied slot: a live group and the table holding it.
type slotEntry struct {
	tbl *groupTable
	grp *group
}

// CheckBound reports why g cannot run as a replica bounded to slots
// live groups, or nil if it can. The window must be tumbling, so a
// group's window is its one pane; an unwindowed query has no pane to
// bound.
func (g *GroupBy) CheckBound(slots int) error {
	if slots <= 0 {
		return fmt.Errorf("agg: a bounded partial replica needs a positive slot count, got %d", slots)
	}
	for _, a := range g.aggs {
		if _, ok := a.Fn.New().(Partializable); !ok {
			return fmt.Errorf("agg: %s (%s) cannot be partially aggregated", a.Fn.Name, a.Fn.Class)
		}
	}
	if !g.CanPartial() || g.spec.Range != g.spec.Slide {
		return fmt.Errorf("agg: a slot bound needs a tumbling time window, got %s", g.spec)
	}
	return nil
}

// BoundedPartial returns a partial replica that holds at most slots live
// groups (see CheckBound).
func (g *GroupBy) BoundedPartial(slots int) (*BoundedReplica, error) {
	if err := g.CheckBound(slots); err != nil {
		return nil, err
	}
	// synced -1: the first fold builds the directory.
	return &BoundedReplica{GroupBy: g.ClonePartial().(*GroupBy), slots: make([]slotEntry, slots), synced: -1}, nil
}

// Evictions reports the partial records emitted early because another
// key or window took their slot.
func (b *BoundedReplica) Evictions() int64 { return b.evictions }

// MemSize is the GroupBy's estimate plus the directory.
func (b *BoundedReplica) MemSize() int { return b.GroupBy.MemSize() + 16*len(b.slots) }

// Push implements ops.Operator.
func (b *BoundedReplica) Push(port int, e stream.Element, emit ops.Emit) {
	if e.IsPunct() {
		b.GroupBy.Push(port, e, emit)
		return
	}
	b.pushRow(e.Tuple, emit)
}

// ProcessBatch implements ops.BatchOperator row by row: every row takes
// the slot fold.
func (b *BoundedReplica) ProcessBatch(_ int, bt *stream.Batch, _ ops.EmitBatch, emit ops.Emit) {
	if bt.Sel != nil {
		for _, r := range bt.Sel {
			b.pushRow(b.gatherColRow(bt, int(r)), emit)
		}
	} else {
		for r := 0; r < bt.Rows(); r++ {
			b.pushRow(b.gatherColRow(bt, r), emit)
		}
	}
	bt.Release()
}

// Restore restores the GroupBy; the next fold rebuilds the directory.
func (b *BoundedReplica) Restore(dec *ckpt.Decoder) error {
	b.synced = -1
	return b.GroupBy.Restore(dec)
}

// pushRow is GroupBy.pushRow with the slot fold. The tuple's group lives
// in the open pane or, once its window has closed, in the window's late
// side table, as on foldPane's path.
func (b *BoundedReplica) pushRow(t *tuple.Tuple, emit ops.Emit) {
	g := b.GroupBy
	if t.Ts > g.watermark {
		g.advance(t.Ts, emit)
	}
	if b.synced != g.emitted {
		b.syncSlots()
	}
	var tbl *groupTable
	if p := g.locatePane(t.Ts); p != nil {
		tbl = &p.groupTable
	} else {
		ws := g.paneAsn.Pane(t.Ts).Start
		if tbl = g.windows[ws]; tbl == nil {
			tbl = &groupTable{end: ws + g.spec.Range}
			g.windows[ws] = tbl
		}
	}
	keys := g.evalKeys(t)
	h := chainHash(keys)
	s := &b.slots[h%uint64(len(b.slots))]
	if s.grp != nil && (s.tbl != tbl || !keysEqual(s.grp.keys, keys)) {
		b.evict(s, emit)
	}
	if s.grp == nil {
		if g.wordKey {
			h = g.probe(keys)
		}
		s.tbl, s.grp = tbl, g.locateGroup(tbl, keys, h)
	}
	for i, a := range g.aggs {
		if a.Arg == nil {
			s.grp.states[i].Add(tuple.Int(1))
		} else {
			s.grp.states[i].Add(a.Arg.Eval(t))
		}
	}
	g.emitProgress(emit)
}

// evict emits a slot's occupant as a partial record and drops it from its
// table.
func (b *BoundedReplica) evict(s *slotEntry, emit ops.Emit) {
	g, tbl, grp := b.GroupBy, s.tbl, s.grp
	g.trackGroups()
	g.emitPartialGroups(tbl.end-g.spec.Range, tbl.end, []*group{grp}, emit)
	tbl.removeAt(tbl.find(grp.keys, g.probe(grp.keys)))
	if len(g.groupFree) < 1<<14 && resetStates(grp.states) {
		g.groupFree = append(g.groupFree, grp)
	}
	*s = slotEntry{}
	b.evictions++
	b.synced = g.emitted
}

// syncSlots rebuilds the directory from the live tables.
func (b *BoundedReplica) syncSlots() {
	clear(b.slots)
	n := uint64(len(b.slots))
	add := func(tbl *groupTable) {
		for _, s := range tbl.slots {
			if s.grp != nil {
				b.slots[chainHash(s.grp.keys)%n] = slotEntry{tbl: tbl, grp: s.grp}
			}
		}
	}
	for _, p := range b.panes {
		add(&p.groupTable)
	}
	for _, tbl := range b.windows {
		add(tbl)
	}
	b.synced = b.emitted
}
