// Checkpoint support (ckpt.Snapshotter) for the aggregation operators.
// A snapshot captures the complete logical state — group tables, pane
// partial tables, watermarks, counters — in a deterministic order, so
// identical runs produce identical checkpoint bytes. Restore rebuilds
// the tables' group indexes by recomputing the probes from the decoded
// key values; the recycling freelists, scratch buffers, the
// running window table and a bounded replica's slot directory are
// deliberately not captured (they are derived state, not logical
// state).
package agg

import (
	"fmt"
	"sort"

	"streamdb/internal/ckpt"
)

// State payload tags. The tag commits the concrete representation so a
// checkpoint taken with one aggregate spec fails loudly against
// another instead of misdecoding.
const (
	stateTagPartial  = 'p' // fixed-arity Partializable partial
	stateTagDistinct = 'd' // exact count-distinct hash multiset
	stateTagMedian   = 'm' // exact median value list
)

// encodeState serializes one accumulator. Synopsis-backed states
// (approximate count_distinct / median) have no faithful serialization
// — their sketches are pointer-graph internal to the synopsis package —
// so they abort the checkpoint epoch rather than silently degrading.
func encodeState(enc *ckpt.Encoder, st State) error {
	switch s := st.(type) {
	case *distinctState:
		enc.Uvarint(uint64(stateTagDistinct))
		hs := make([]uint64, 0, len(s.seen))
		for h := range s.seen {
			hs = append(hs, h)
		}
		sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
		enc.Uvarint(uint64(len(hs)))
		for _, h := range hs {
			enc.Uvarint(h)
			enc.Varint(s.seen[h])
		}
		return nil
	case *medianState:
		enc.Uvarint(uint64(stateTagMedian))
		enc.Uvarint(uint64(len(s.vals)))
		for _, v := range s.vals {
			enc.Float64(v)
		}
		return nil
	case *fmState:
		return fmt.Errorf("agg: approximate count_distinct state cannot be checkpointed")
	case *gkState:
		return fmt.Errorf("agg: approximate median state cannot be checkpointed")
	}
	p, ok := st.(Partializable)
	if !ok {
		return fmt.Errorf("agg: state %T cannot be checkpointed", st)
	}
	enc.Uvarint(uint64(stateTagPartial))
	enc.Values(p.PartialVals())
	return nil
}

// decodeState folds a serialized accumulator into a fresh state.
func decodeState(dec *ckpt.Decoder, st State) error {
	tag := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return err
	}
	switch s := st.(type) {
	case *distinctState:
		if tag != stateTagDistinct {
			return fmt.Errorf("agg: state tag %q, want count-distinct", tag)
		}
		n := dec.Uvarint()
		for i := uint64(0); i < n && dec.Err() == nil; i++ {
			h := dec.Uvarint()
			s.seen[h] = dec.Varint()
		}
		return dec.Err()
	case *medianState:
		if tag != stateTagMedian {
			return fmt.Errorf("agg: state tag %q, want median", tag)
		}
		n := dec.Uvarint()
		for i := uint64(0); i < n && dec.Err() == nil; i++ {
			s.vals = append(s.vals, dec.Float64())
		}
		return dec.Err()
	}
	p, ok := st.(Partializable)
	if !ok {
		return fmt.Errorf("agg: state %T cannot be restored", st)
	}
	if tag != stateTagPartial {
		return fmt.Errorf("agg: state tag %q, want partial", tag)
	}
	vals := dec.Values()
	if err := dec.Err(); err != nil {
		return err
	}
	return p.MergePartial(vals)
}

// encodeTable writes one group table (used for windows, panes, and the
// unbounded table alike).
func (g *GroupBy) encodeTable(enc *ckpt.Encoder, tbl *groupTable) error {
	enc.Varint(tbl.end)
	grps := sortedTableGroups(tbl)
	enc.Uvarint(uint64(len(grps)))
	for _, grp := range grps {
		enc.Values(grp.keys)
		for _, st := range grp.states {
			if err := encodeState(enc, st); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeTable reads one group table, rebuilding its index.
func (g *GroupBy) decodeTable(dec *ckpt.Decoder) (*groupTable, error) {
	tbl := &groupTable{end: dec.Varint()}
	n := dec.Uvarint()
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		keys := dec.Values()
		states := make([]State, len(g.aggs))
		for j, a := range g.aggs {
			states[j] = a.Fn.New()
			if err := decodeState(dec, states[j]); err != nil {
				return nil, err
			}
		}
		tbl.insert(&group{keys: keys, states: states}, g.probe(keys))
	}
	return tbl, dec.Err()
}

// Snapshot implements ckpt.Snapshotter.
func (g *GroupBy) Snapshot(enc *ckpt.Encoder) error {
	enc.Bool(g.paneAsn != nil)
	enc.Bool(g.unbounded != nil)
	enc.Bool(g.partial)
	enc.Varint(g.watermark)
	enc.Varint(g.emitted)
	enc.Int(g.maxGroups)
	enc.Varint(g.partialMark)

	starts := make([]int64, 0, len(g.windows))
	for ws := range g.windows {
		starts = append(starts, ws)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	enc.Uvarint(uint64(len(starts)))
	for _, ws := range starts {
		enc.Varint(ws)
		if err := g.encodeTable(enc, g.windows[ws]); err != nil {
			return err
		}
	}
	if g.unbounded != nil {
		if err := g.encodeTable(enc, g.unbounded); err != nil {
			return err
		}
	}
	if g.paneAsn == nil {
		return nil
	}
	ps := make([]int64, 0, len(g.panes))
	for s := range g.panes {
		ps = append(ps, s)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	enc.Uvarint(uint64(len(ps)))
	for _, s := range ps {
		p := g.panes[s]
		enc.Varint(p.start)
		if err := g.encodeTable(enc, &p.groupTable); err != nil {
			return err
		}
	}
	ws := make([]int64, 0, len(g.paneWins))
	for s := range g.paneWins {
		ws = append(ws, s)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	enc.Uvarint(uint64(len(ws)))
	for _, s := range ws {
		enc.Varint(s)
		enc.Varint(g.paneWins[s])
	}
	enc.Varint(g.paneNext)
	return nil
}

// Restore implements ckpt.Snapshotter. The receiver must be freshly
// constructed with the same specification (group exprs, aggregates,
// window, pane/legacy mode) as the snapshotted operator.
func (g *GroupBy) Restore(dec *ckpt.Decoder) error {
	if pane := dec.Bool(); pane != (g.paneAsn != nil) {
		return fmt.Errorf("agg: snapshot pane mode %v, operator %v", pane, g.paneAsn != nil)
	}
	if unb := dec.Bool(); unb != (g.unbounded != nil) {
		return fmt.Errorf("agg: snapshot unbounded mode %v, operator %v", unb, g.unbounded != nil)
	}
	if partial := dec.Bool(); partial != g.partial {
		return fmt.Errorf("agg: snapshot partial mode %v, operator %v", partial, g.partial)
	}
	g.watermark = dec.Varint()
	g.emitted = dec.Varint()
	g.maxGroups = dec.Int()
	g.partialMark = dec.Varint()

	nw := dec.Uvarint()
	for i := uint64(0); i < nw && dec.Err() == nil; i++ {
		ws := dec.Varint()
		tbl, err := g.decodeTable(dec)
		if err != nil {
			return err
		}
		g.windows[ws] = tbl
	}
	if g.unbounded != nil {
		tbl, err := g.decodeTable(dec)
		if err != nil {
			return err
		}
		g.unbounded = tbl
	}
	if g.paneAsn == nil {
		return dec.Err()
	}
	np := dec.Uvarint()
	for i := uint64(0); i < np && dec.Err() == nil; i++ {
		start := dec.Varint()
		tbl, err := g.decodeTable(dec)
		if err != nil {
			return err
		}
		g.panes[start] = &paneTable{groupTable: *tbl, start: start}
	}
	nwin := dec.Uvarint()
	for i := uint64(0); i < nwin && dec.Err() == nil; i++ {
		s := dec.Varint()
		g.paneWins[s] = dec.Varint()
	}
	g.paneNext = dec.Varint()
	g.lastPane = nil
	g.dropRunning() // derived state: the next close rebuilds it
	return dec.Err()
}

// Snapshot implements ckpt.Snapshotter for the partial-merge combiner.
func (c *PaneCombiner) Snapshot(enc *ckpt.Encoder) error {
	enc.Varint(c.watermark)
	enc.Varint(c.emitted)
	enc.Varint(c.mergeErrs)
	grps := make([]*cgroup, 0, c.n)
	for _, chain := range c.groups {
		grps = append(grps, chain...)
	}
	sort.Slice(grps, func(i, j int) bool {
		a, b := grps[i], grps[j]
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
	enc.Uvarint(uint64(len(grps)))
	for _, grp := range grps {
		enc.Varint(grp.end)
		enc.Varint(grp.start)
		enc.Values(grp.keys)
		for _, st := range grp.states {
			if err := encodeState(enc, st); err != nil {
				return err
			}
		}
	}
	return nil
}

// Restore implements ckpt.Snapshotter.
func (c *PaneCombiner) Restore(dec *ckpt.Decoder) error {
	c.watermark = dec.Varint()
	c.emitted = dec.Varint()
	c.mergeErrs = dec.Varint()
	n := dec.Uvarint()
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		grp := &cgroup{end: dec.Varint(), start: dec.Varint(), keys: dec.Values()}
		grp.states = make([]State, len(c.aggs))
		for j, a := range c.aggs {
			grp.states[j] = a.Fn.New()
			if err := decodeState(dec, grp.states[j]); err != nil {
				return err
			}
		}
		h := (uint64(grp.end)*1099511628211 ^ uint64(grp.start)) * 1099511628211
		for _, k := range grp.keys {
			h ^= k.Hash()
			h *= 1099511628211
		}
		c.groups[h] = append(c.groups[h], grp)
		c.n++
	}
	return dec.Err()
}
