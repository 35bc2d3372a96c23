package agg

import (
	"math"

	"streamdb/internal/expr"
	"streamdb/internal/tuple"
)

// groupTable is one table of groups — a pane, a window, the running
// window, the combine output — indexed by a flat open-addressed slot
// array on each group's probe hash (linear probing, backward-shift
// deletion, after window.Ring's chainIndex). Key equality decides a
// match, so colliding probes cost a comparison, never a wrong group.
// Every table of one GroupBy uses the operator's probe (GroupBy.probe),
// so a slot's stored hash can be carried from one table into another
// (pane → running window, pane → combined window) without recomputing
// it. The index is derived state: snapshots write groups in key order
// and Restore re-inserts them.
type groupTable struct {
	end   int64
	slots []groupSlot // power-of-two length once non-empty; grp == nil marks a free slot
	n     int
}

// groupSlot is one index slot: a group and its probe hash.
type groupSlot struct {
	h   uint64
	grp *group
}

type group struct {
	keys   []tuple.Value
	states []State
	// refs counts the held panes containing this key (running window
	// table only; zero everywhere else).
	refs int
}

// find returns the slot holding the group with keys (probe h), or -1.
func (t *groupTable) find(keys []tuple.Value, h uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.grp == nil {
			return -1
		}
		if s.h == h && keysEqual(s.grp.keys, keys) {
			return int(i)
		}
	}
}

// insert adds grp under probe h; no group with its keys may be present.
// The slot array doubles when it would pass half full.
func (t *groupTable) insert(grp *group, h uint64) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]groupSlot, max(16, 2*len(old)))
		for _, s := range old {
			if s.grp != nil {
				t.place(s)
			}
		}
	}
	t.place(groupSlot{h: h, grp: grp})
	t.n++
}

// place stores s in the first free slot of its probe sequence.
func (t *groupTable) place(s groupSlot) {
	mask := uint64(len(t.slots) - 1)
	i := s.h & mask
	for t.slots[i].grp != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// removeAt deletes the group in slot at, shifting later members of its
// probe run back so every lookup still reaches them. Only groups from
// later in the run move, into at or into slots after it.
func (t *groupTable) removeAt(at int) {
	mask := uint64(len(t.slots) - 1)
	i := uint64(at)
	for j := (i + 1) & mask; t.slots[j].grp != nil; j = (j + 1) & mask {
		// The group at j may fill hole i unless its home slot lies
		// cyclically within (i, j].
		home := t.slots[j].h & mask
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = groupSlot{}
	t.n--
}

// removeMatching extracts (and removes) every group whose keys satisfy
// the bounds.
func (t *groupTable) removeMatching(bounds []keyBound) []*group {
	var done []*group
	for i := 0; i < len(t.slots); {
		grp := t.slots[i].grp
		if grp == nil || !matchBounds(grp.keys, bounds) {
			i++
			continue
		}
		done = append(done, grp)
		// Revisit i: the shift may have moved a later group into it. A
		// group shifted in from a wrapped slot was already visited and
		// kept, so a second visit keeps it again.
		t.removeAt(i)
	}
	return done
}

// recycleGroups empties t for reuse: resettable groups go onto the
// freelist, and the slot array keeps its size so the next fill of a
// recycled table neither grows nor rehashes.
func recycleGroups(t *groupTable, free *[]*group) {
	for _, s := range t.slots {
		if s.grp != nil && len(*free) < 1<<14 && resetStates(s.grp.states) {
			*free = append(*free, s.grp)
		}
	}
	clear(t.slots)
	t.n = 0
}

// probe is the index hash of a key tuple, one function per GroupBy for
// all of its tables: the payload probe for a single bare integral key
// column, the FNV chain hash otherwise.
func (g *GroupBy) probe(keys []tuple.Value) uint64 {
	if g.wordKey {
		return payloadProbe(keys[0])
	}
	return chainHash(keys)
}

// wordKeyed reports whether a grouping is one bare column of a kind whose
// payload word is its value (INT, UINT, TIME, BOOL, IP), so the payload
// probe stands in for the FNV chain hash.
func wordKeyed(keyCols []int, groupBy []expr.Expr) bool {
	if len(keyCols) != 1 {
		return false
	}
	switch groupBy[0].Kind() {
	case tuple.KindInt, tuple.KindUint, tuple.KindTime, tuple.KindBool, tuple.KindIP:
		return true
	}
	return false
}

// payloadProbe hashes one key by a multiply-mix of its payload word.
// Values that Equal share a probe wherever Value.Hash gives them one
// hash: integral kinds compare by payload, an integral FLOAT takes the
// word of the INT it equals, and NULLs (all equal as keys) take word 0.
// A key column's runtime values need not be of its declared kind, which
// is why FLOATs and STRINGs are handled at all.
func payloadProbe(v tuple.Value) uint64 {
	w := v.Raw()
	if k := v.Kind; k == tuple.KindFloat || k == tuple.KindString || k == tuple.KindNull {
		w = oddWord(v)
	}
	w ^= w >> 32
	w *= 0x9e3779b97f4a7c15
	return w ^ w>>32
}

// oddWord is payloadProbe's word for the kinds whose payload is not
// their value.
func oddWord(v tuple.Value) uint64 {
	switch v.Kind {
	case tuple.KindNull:
		return 0
	case tuple.KindFloat:
		// Value.Hash's rule for integral floats.
		if f := v.Fl(); f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < math.MaxInt64 {
			return uint64(int64(f))
		}
	}
	return v.Hash()
}

// chainHash is the FNV fold of the keys' Value.Hash: the probe of every
// GroupBy not word-keyed, and a BoundedReplica's slot hash.
func chainHash(keys []tuple.Value) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range keys {
		h ^= v.Hash()
		h *= 1099511628211
	}
	return h
}

// keysEqual is group-key equality: Value.Equal per key, except that
// NULL keys equal each other.
func keysEqual(a, b []tuple.Value) bool {
	for i := range a {
		av, bv := a[i], b[i]
		if av.Kind == bv.Kind && av.Raw() == bv.Raw() && av.Kind != tuple.KindString {
			continue // same payload word: Equal, or both NULL
		}
		if av.IsNull() && bv.IsNull() {
			continue
		}
		if !av.Equal(bv) {
			return false
		}
	}
	return true
}

// fixedGroupSize is the MemSize of every group when each key and each
// state has a size its kind fixes (no STRING key or min/max argument, no
// holistic state), else 0.
func fixedGroupSize(groupBy []expr.Expr, aggs []Spec) int {
	n := 32
	for _, ge := range groupBy {
		if ge.Kind() == tuple.KindString {
			return 0
		}
		n += tuple.Null.MemSize()
	}
	for _, a := range aggs {
		st := a.Fn.New()
		switch st.(type) {
		case *countState, *sumState, *avgState, *stddevState:
		case *minmaxState:
			if a.Arg == nil || a.Arg.Kind() == tuple.KindString {
				return 0
			}
		default:
			return 0
		}
		n += st.MemSize()
	}
	return n
}

// groupMemSize is one group's MemSize: its header, keys and states.
func groupMemSize(grp *group) int {
	n := 32
	for _, k := range grp.keys {
		n += k.MemSize()
	}
	for _, st := range grp.states {
		n += st.MemSize()
	}
	return n
}
