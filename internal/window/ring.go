package window

import "streamdb/internal/tuple"

// ringMinCap is a new Ring's slot count; capacity doubles from here.
const ringMinCap = 64

// Ring is a window join's per-side state: a FIFO of rows kept column by
// column (a timestamp column, one value column per field, the row's key
// hash and a chain link), with an optional hash index over the key
// chains. Rows are addressed by absolute insert position: the first
// row pushed is position 1, and a position keeps naming the same row
// until it is popped, however often the ring grows. Slot pos & mask
// holds the row; capacity is a power of two and doubles when a push
// finds the ring full, so a window that stops growing stops allocating.
//
// The index maps each key hash to the {first, last} positions of its
// chain; next links the chain's rows in insertion order. Rows leave
// only from the front (expiry, row-count displacement and cap eviction
// all pop the oldest row), and the oldest row is always the first of
// its own chain, so a pop unlinks in O(1): no bucket search, no copy.
// A popped row's slot keeps its values until a later push reuses it,
// so positions collected during a probe stay readable until the next
// push, even if a sweep pops them in between.
type Ring struct {
	ts   []int64
	cols [][]tuple.Value
	hash []uint64 // key hash per slot; nil when the ring has no index
	next []int64  // next position in the same chain; 0 ends the chain
	mask int64
	// head is the oldest live position, tail the next one to fill.
	head, tail int64
	index      chainIndex
	indexed    bool
	strCols    []int // STRING columns, for the MemSize byte count
	strBytes   int
}

// NewRing builds an empty ring for rows of schema s. indexed enables
// the key-chain index (a hash-probed side); without it the ring is a
// plain FIFO scanned by nested loops.
func NewRing(s *tuple.Schema, indexed bool) *Ring {
	r := &Ring{cols: make([][]tuple.Value, s.Arity()), head: 1, tail: 1, indexed: indexed}
	for i, f := range s.Fields {
		if f.Kind == tuple.KindString {
			r.strCols = append(r.strCols, i)
		}
	}
	r.resize(ringMinCap)
	return r
}

// resize moves the live rows into fresh arrays of n slots (a power of
// two, at least Len). Positions are unchanged: only the mask widens.
func (r *Ring) resize(n int) {
	mask := int64(n - 1)
	ts := make([]int64, n)
	next := make([]int64, n)
	var hash []uint64
	if r.indexed {
		hash = make([]uint64, n)
	}
	cols := make([][]tuple.Value, len(r.cols))
	for c := range cols {
		cols[c] = make([]tuple.Value, n)
	}
	for pos := r.head; pos < r.tail; pos++ {
		o, s := pos&r.mask, pos&mask
		ts[s], next[s] = r.ts[o], r.next[o]
		if hash != nil {
			hash[s] = r.hash[o]
		}
		for c := range cols {
			cols[c][s] = r.cols[c][o]
		}
	}
	r.ts, r.next, r.hash, r.cols, r.mask = ts, next, hash, cols, mask
}

// Len reports the number of live rows.
func (r *Ring) Len() int { return int(r.tail - r.head) }

// Arity reports the number of fields per row.
func (r *Ring) Arity() int { return len(r.cols) }

// Head returns the oldest live position; Head() == Tail() when empty.
func (r *Ring) Head() int64 { return r.head }

// Tail returns the position the next push fills: live positions are
// [Head(), Tail()), oldest first.
func (r *Ring) Tail() int64 { return r.tail }

// Slot maps a position to its index in the columns Col and TsCol
// return. Valid until the next push.
func (r *Ring) Slot(pos int64) int { return int(pos & r.mask) }

// Ts returns the timestamp of the row at pos.
func (r *Ring) Ts(pos int64) int64 { return r.ts[pos&r.mask] }

// Value returns field c of the row at pos.
func (r *Ring) Value(pos int64, c int) tuple.Value { return r.cols[c][pos&r.mask] }

// Col returns field c's slot array, indexed by Slot. Valid until the
// next push.
func (r *Ring) Col(c int) []tuple.Value { return r.cols[c] }

// TsCol returns the timestamp slot array, indexed by Slot.
func (r *Ring) TsCol() []int64 { return r.ts }

// First returns the oldest position of the chain of key hash h, or 0
// when no live row has that hash. The ring must be indexed.
func (r *Ring) First(h uint64) int64 {
	if i := r.index.find(h); i >= 0 {
		return r.index.slots[i].first
	}
	return 0
}

// Next returns the position after pos in pos's chain, or 0 at its end.
func (r *Ring) Next(pos int64) int64 { return r.next[pos&r.mask] }

// reserve appends an empty row of key hash h at the tail, linking it
// into h's chain when indexed, and returns its slot.
func (r *Ring) reserve(ts int64, h uint64) int {
	if r.Len() == len(r.ts) {
		r.resize(2 * len(r.ts))
	}
	pos := r.tail
	r.tail++
	s := int(pos & r.mask)
	r.ts[s], r.next[s] = ts, 0
	if r.indexed {
		r.hash[s] = h
		if i := r.index.find(h); i >= 0 {
			e := &r.index.slots[i]
			r.next[e.last&r.mask] = pos
			e.last = pos
		} else {
			r.index.insert(h, pos)
		}
	}
	return s
}

// PushRow appends batch row row of cols (timestamp ts, key hash h,
// ignored when the ring has no index).
func (r *Ring) PushRow(ts int64, h uint64, cols [][]tuple.Value, row int32) {
	s := r.reserve(ts, h)
	for c, col := range cols {
		r.cols[c][s] = col[row]
	}
	r.strBytes += r.strLen(s)
}

// PushTuple appends a copy of t (key hash h, ignored when the ring has
// no index). The ring keeps no reference to t.
func (r *Ring) PushTuple(h uint64, t *tuple.Tuple) {
	s := r.reserve(t.Ts, h)
	for c, v := range t.Vals {
		r.cols[c][s] = v
	}
	r.strBytes += r.strLen(s)
}

// strLen sums the STRING bytes of slot s, for MemSize.
func (r *Ring) strLen(s int) int {
	n := 0
	for _, c := range r.strCols {
		n += len(r.cols[c][s].Str())
	}
	return n
}

// PopFront removes the oldest row, unlinking it from the head of its
// chain. It must not be called on an empty ring.
func (r *Ring) PopFront() {
	pos := r.head
	r.head++
	s := int(pos & r.mask)
	r.strBytes -= r.strLen(s)
	if !r.indexed {
		return
	}
	i := r.index.find(r.hash[s])
	if e := &r.index.slots[i]; e.last == pos {
		r.index.remove(i)
	} else {
		e.first = r.next[s]
	}
}

// Row copies the row at pos into dst, whose Vals must have the ring's
// arity.
func (r *Ring) Row(pos int64, dst *tuple.Tuple) {
	s := pos & r.mask
	dst.Ts = r.ts[s]
	for c := range r.cols {
		dst.Vals[c] = r.cols[c][s]
	}
}

// MemSize approximates the bytes the live rows hold, in the units of
// Tuple.MemSize, plus the slot and index overhead. It is O(1).
func (r *Ring) MemSize() int {
	return r.Len()*(16+24*len(r.cols)) + r.strBytes + 16*len(r.ts) + 24*len(r.index.slots)
}

// chainIndex is an open-addressing (linear probing) table from key
// hash to chain ends. It holds no pointers, so the collector never
// scans it, and backward-shift deletion leaves no tombstones, so a
// steady key population never makes it grow.
type chainIndex struct {
	slots []chain
	n     int
}

// chain is one key's live rows: first == 0 marks an empty slot.
type chain struct {
	h           uint64
	first, last int64
}

// find returns the slot of h's chain, or -1 when h has none.
func (x *chainIndex) find(h uint64) int {
	if x.n == 0 {
		return -1
	}
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := &x.slots[i]
		if e.first == 0 {
			return -1
		}
		if e.h == h {
			return int(i)
		}
	}
}

// insert adds a one-row chain for h, which must be absent.
func (x *chainIndex) insert(h uint64, pos int64) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		n := 2 * len(old)
		if n < 16 {
			n = 16
		}
		x.slots = make([]chain, n)
		for _, e := range old {
			if e.first != 0 {
				*x.place(e.h) = e
			}
		}
	}
	*x.place(h) = chain{h: h, first: pos, last: pos}
	x.n++
}

// place returns the empty slot h's probe sequence reaches first.
func (x *chainIndex) place(h uint64) *chain {
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for x.slots[i].first != 0 {
		i = (i + 1) & mask
	}
	return &x.slots[i]
}

// remove deletes the entry in slot at, shifting later members of its
// probe run back so every lookup still reaches them.
func (x *chainIndex) remove(at int) {
	mask := uint64(len(x.slots) - 1)
	i := uint64(at)
	for j := (i + 1) & mask; x.slots[j].first != 0; j = (j + 1) & mask {
		// The entry at j may fill hole i unless its home slot lies
		// cyclically within (i, j].
		home := x.slots[j].h & mask
		if (j-home)&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = chain{}
	x.n--
}
