package ops

import (
	"fmt"
	"math"
	"sync/atomic"

	"streamdb/internal/expr"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// JoinMethod selects how one side's window is probed [KNV03] (slide 33):
// a hash index (O(1) probes, extra memory) or indexed nested loops over
// the window buffer (no index memory, O(window) probes).
type JoinMethod uint8

// Join methods. The asymmetric combination — hash on one side, nested
// loops on the other — is the key observation of [KNV03]: "asymmetric
// join processing has advantages if arrival rates differ".
const (
	JoinHash JoinMethod = iota
	JoinNestedLoop
)

// String names the method.
func (m JoinMethod) String() string {
	if m == JoinHash {
		return "hash"
	}
	return "inl"
}

// sweepEvery bounds how long a sorted side defers its physical expiry
// sweep: at most this many watermark advances between sweeps, so key
// chains never accumulate more than a batch of expired-but-unswept rows
// between punctuations.
const sweepEvery = 128

// sideState is one input's window state: a window.Ring holding the
// rows column by column in insertion order, with a key-chain index on
// JoinHash sides. Inserts copy the arriving row's values into the ring,
// so no heap tuple outlives the call that delivered it. Expiry is
// watermark-batched: every opposite-port event advances wm (the [KNV03]
// invalidation rule — any arrival's timestamp is a promise about the
// opposite window), and the physical sweep that pops expired rows off
// the ring front runs only on punctuations, every sweepEvery advances,
// before a cap check, or when introspection needs exact counts. Expiry
// SEMANTICS are exact in every mode: probes skip candidates at or below
// wm - rng, so whether a row can still match depends only on (its
// timestamp, the watermark) — never on where the physical sweep
// happened to stop. That per-row rule is what lets key-partitioned
// replicas, each sweeping its own ring layout, stay byte-identical to
// the serial run. While inserts arrive in timestamp order (`sorted`),
// the deferred sweep reclaims everything: the expired set is precisely
// the ring prefix with Ts <= wm - rng. The first out-of-order insert
// flips the side to unsorted mode, which sweeps eagerly on every
// watermark advance but can only pop the expired prefix — an expired
// row parked behind a live front stays resident until the front
// drains, and the probe cutoff is what keeps it invisible meanwhile.
type sideState struct {
	method  JoinMethod
	rng     int64 // time-window range; <= 0 means no time expiry
	rows    int   // row-count window; 0 = none
	ring    *window.Ring
	key     []int
	fastKey int // column for the tuple.Key1 fast lane; -1 = generic hash
	// maxTuples caps the stored window for memory-limited operation;
	// 0 = unlimited. Overflow evicts the oldest live row (a form of
	// load shedding on join state).
	maxTuples int
	wm        int64 // max opposite-port event timestamp seen
	sorted    bool
	lastIns   int64
	pendingWM int // watermark advances since the last sweep (sorted mode)
	expired   int64
	evicted   int64
}

func (s *sideState) hashOf(t *tuple.Tuple) uint64 {
	if s.fastKey >= 0 {
		return t.Key1(s.fastKey)
	}
	return t.Key(s.key)
}

// advanceWM raises the watermark from an opposite-port event.
func (s *sideState) advanceWM(ts int64) {
	if ts <= s.wm {
		return
	}
	s.wm = ts
	if s.rng <= 0 {
		return
	}
	if !s.sorted {
		s.sweep()
		return
	}
	s.pendingWM++
	if s.pendingWM >= sweepEvery {
		s.sweep()
	}
}

// probeCutoff returns the liveness cutoff probe candidates must exceed,
// or MinInt64 when every stored row must be probed (no time window,
// or no opposite-port event seen yet).
func (s *sideState) probeCutoff() int64 {
	if s.rng <= 0 || s.wm == math.MinInt64 {
		return math.MinInt64
	}
	return s.wm - s.rng
}

// sweep pops expired rows off the ring front (slide 32: "invalidate
// all expired tuples in A's window"), stopping at the first live row —
// the same greedy front-pop the serial engine performs per arrival,
// batched.
func (s *sideState) sweep() {
	s.pendingWM = 0
	if s.rng <= 0 || s.wm == math.MinInt64 {
		return
	}
	cutoff := s.wm - s.rng
	r := s.ring
	for r.Len() > 0 && r.Ts(r.Head()) <= cutoff {
		r.PopFront()
		s.expired++
	}
}

// admit does an insert's bookkeeping before the row at ts lands: the
// sorted-mode flip, and the cap and row-count evictions that make room.
func (s *sideState) admit(ts int64) {
	if s.sorted && ts < s.lastIns {
		// Out-of-order insert: the deferred-sweep invariant (expired ==
		// ring prefix) no longer holds from here on. Catch the physical
		// state up once, then sweep eagerly on every watermark advance.
		s.sorted = false
		s.sweep()
	}
	s.lastIns = ts
	if s.maxTuples > 0 {
		// Expired rows must not be charged to the cap: sweeping first
		// keeps `evicted` counting only live rows genuinely shed, and
		// a row both expired and unlinked in one punctuation batch is
		// accounted exactly once (as expired).
		s.sweep()
		if s.ring.Len() >= s.maxTuples {
			s.ring.PopFront()
			s.evicted++
		}
	}
	// Row-count window: the oldest row leaves the window by definition —
	// window semantics, not load shedding. The pop unlinks it from its
	// key chain too, so a displaced row can never keep joining.
	for s.rows > 0 && s.ring.Len() >= s.rows {
		s.ring.PopFront()
		s.expired++
	}
}

// WindowJoin is the binary sliding-window join of [KNV03] (slides
// 30-33). A new tuple on one input probes the opposite window, is
// inserted into its own window, and expired tuples are invalidated.
// Each side's probe method is chosen independently, enabling the
// asymmetric configurations of slide 33.
type WindowJoin struct {
	name  string
	out   *tuple.Schema
	sides [2]*sideState
	// outCols maps each output column to a column of the (left, right)
	// concatenation: the identity unless FuseProject narrowed it. Both
	// paths build output through it — the row path per pair, the
	// columnar path one column at a time.
	outCols  []int
	residual expr.Expr // evaluated over concatenated (left, right) tuples
	probes   int64     // tuple comparisons performed (CPU cost proxy)
	emitted  int64
	received [2]int64
	leftSch  *tuple.Schema
	rightSch *tuple.Schema
	cfgs     [2]JoinConfig
	// parent is set on partition replicas: counters fold into it at
	// Flush so the original's introspection covers the whole run.
	parent *WindowJoin
	folded bool

	// Columnar state (joincol.go). colPlan gates the batch-native path
	// once per instance; colFallbacks counts batches/spans rerouted
	// through the row path, folded into the parent like the other
	// counters so the engine can surface fallback observability.
	colPlan      int8
	colPool      *stream.ColPool
	colKern      expr.ColumnKernel
	col          colJoinScratch
	colFallbacks int64
}

// JoinConfig configures one side of a WindowJoin.
type JoinConfig struct {
	Window window.Spec
	Method JoinMethod
	// Key lists this side's equijoin column indexes. Must have the
	// same length on both sides; may be empty for a pure
	// nested-loops theta join (both methods must then be NestedLoop).
	Key []int
	// MaxTuples caps the stored window (0 = unlimited).
	MaxTuples int
}

// NewWindowJoin builds a window join. residual may be nil; it is
// evaluated against the concatenation of (left, right) tuples.
func NewWindowJoin(name string, left, right *tuple.Schema, lcfg, rcfg JoinConfig, residual expr.Expr) (*WindowJoin, error) {
	if len(lcfg.Key) != len(rcfg.Key) {
		return nil, fmt.Errorf("ops: join key arity mismatch: %d vs %d", len(lcfg.Key), len(rcfg.Key))
	}
	if len(lcfg.Key) == 0 && (lcfg.Method == JoinHash || rcfg.Method == JoinHash) {
		return nil, fmt.Errorf("ops: hash join requires equijoin keys")
	}
	for i := range lcfg.Key {
		lk := left.Fields[lcfg.Key[i]].Kind
		rk := right.Fields[rcfg.Key[i]].Kind
		if lk.Numeric() != rk.Numeric() || (!lk.Numeric() && lk != rk) {
			return nil, fmt.Errorf("ops: join key %d type mismatch: %s vs %s", i, lk, rk)
		}
	}
	if residual != nil && residual.Kind() != tuple.KindBool {
		return nil, fmt.Errorf("ops: join residual must be boolean")
	}
	// Fast key lane: a single Int/Uint/Time/IP key column on BOTH sides
	// may hash by raw payload. Gating on both schemas at once is what
	// keeps the two sides' hash spaces aligned — per-side gating could
	// pair a payload hash with a generic hash and miss every match.
	fast := -1
	if len(lcfg.Key) == 1 &&
		tuple.FastKeyKind(left.Fields[lcfg.Key[0]].Kind) &&
		tuple.FastKeyKind(right.Fields[rcfg.Key[0]].Kind) {
		fast = 0
	}
	mk := func(sch *tuple.Schema, cfg JoinConfig) *sideState {
		st := &sideState{
			method:    cfg.Method,
			ring:      window.NewRing(sch, cfg.Method == JoinHash),
			key:       cfg.Key,
			fastKey:   -1,
			maxTuples: cfg.MaxTuples,
			wm:        math.MinInt64,
			sorted:    true,
			lastIns:   math.MinInt64,
		}
		if fast == 0 {
			st.fastKey = cfg.Key[0]
		}
		switch cfg.Window.Kind {
		case window.KindTime:
			if !cfg.Window.Landmark {
				st.rng = cfg.Window.Range
			}
		case window.KindRows:
			st.rows = int(cfg.Window.Range)
		}
		return st
	}
	out := left.Concat(right)
	j := &WindowJoin{
		name:     name,
		out:      out,
		outCols:  identityCols(out.Arity()),
		leftSch:  left,
		rightSch: right,
		residual: residual,
		cfgs:     [2]JoinConfig{lcfg, rcfg},
	}
	j.sides[0] = mk(left, lcfg)
	j.sides[1] = mk(right, rcfg)
	return j, nil
}

// identityCols is the output column map of an unprojected join.
func identityCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// FuseProject folds a bare-column projection into the join: from now
// on it emits, under schema out, only the listed columns of its (left,
// right) concatenation, in that order. Neither path then builds a
// column nobody reads. It must be called before the first element
// arrives, and a join with a residual cannot fuse — the residual reads
// the full concatenation.
func (j *WindowJoin) FuseProject(out *tuple.Schema, cols []int) error {
	full := j.leftSch.Concat(j.rightSch)
	switch {
	case j.residual != nil:
		return fmt.Errorf("ops: %s: a join with a residual cannot fuse its projection", j.name)
	case j.received[0]+j.received[1] != 0:
		return fmt.Errorf("ops: %s: projection fused after input arrived", j.name)
	case len(cols) != out.Arity():
		return fmt.Errorf("ops: %s: fused projection has %d columns for %d fields", j.name, len(cols), out.Arity())
	}
	for i, c := range cols {
		if c < 0 || c >= full.Arity() {
			return fmt.Errorf("ops: %s: fused column %d out of range", j.name, c)
		}
		if k := full.Fields[c].Kind; k != out.Fields[i].Kind {
			return fmt.Errorf("ops: %s: fused field %s is %s but column %d is %s",
				j.name, out.Fields[i].Name, out.Fields[i].Kind, c, k)
		}
	}
	j.out = out
	j.outCols = append([]int(nil), cols...)
	return nil
}

// NewSymmetricHashJoin builds the classic symmetric hash join [WA91]
// (slide 31): hash on both sides, unbounded windows.
func NewSymmetricHashJoin(name string, left, right *tuple.Schema, leftKey, rightKey []int) (*WindowJoin, error) {
	return NewWindowJoin(name, left, right,
		JoinConfig{Window: window.Spec{}, Method: JoinHash, Key: leftKey},
		JoinConfig{Window: window.Spec{}, Method: JoinHash, Key: rightKey},
		nil)
}

// Name implements Operator.
func (j *WindowJoin) Name() string { return j.name }

// OutSchema implements Operator.
func (j *WindowJoin) OutSchema() *tuple.Schema { return j.out }

// NumInputs implements Operator.
func (j *WindowJoin) NumInputs() int { return 2 }

// Push implements Operator. Port 0 is the left input.
func (j *WindowJoin) Push(port int, e stream.Element, emit Emit) {
	if port < 0 || port > 1 {
		return
	}
	me, opp := j.sides[port], j.sides[1-port]
	if e.IsPunct() {
		// A progress promise on this input lets the opposite window
		// discard tuples that can no longer join with future arrivals:
		// punctuations drive the physical reclaim.
		opp.advanceWM(e.Punct.Ts)
		opp.sweep()
		return
	}
	t := e.Tuple
	j.received[port]++

	// 1. This arrival's timestamp invalidates the opposite window
	//    (watermark advance; the sweep itself may be deferred).
	opp.advanceWM(t.Ts)

	// 2. Probe the opposite window.
	var h uint64
	if opp.method == JoinHash || me.method == JoinHash {
		h = me.hashOf(t) // probes opp's index and chains into ours: one hash space
	}
	r := opp.ring
	switch opp.method {
	case JoinHash:
		cutoff := opp.probeCutoff()
		for pos := r.First(h); pos != 0; pos = r.Next(pos) {
			if r.Ts(pos) <= cutoff {
				continue // expired; physical sweep deferred
			}
			j.probes++
			if opp.keyEqual(pos, t, me.key) {
				j.tryEmit(port, t, r, pos, emit)
			}
		}
	case JoinNestedLoop:
		// The O(window) scan dominates; sweep first so it mostly walks
		// live rows. The cutoff still applies: in unsorted mode the
		// sweep can strand expired rows behind a live front, and
		// counting or matching those would make results depend on the
		// physical layout (which differs per partition replica).
		opp.sweep()
		cutoff := opp.probeCutoff()
		for pos := r.Head(); pos < r.Tail(); pos++ {
			if r.Ts(pos) <= cutoff {
				continue
			}
			j.probes++
			if len(me.key) == 0 || opp.keyEqual(pos, t, me.key) {
				j.tryEmit(port, t, r, pos, emit)
			}
		}
	}

	// 3. Insert a copy into own window.
	me.admit(t.Ts)
	me.ring.PushTuple(h, t)
}

// keyEqual confirms a candidate: the row at pos of s's ring agrees with
// t, key column by key column (tkey lists t's key columns).
func (s *sideState) keyEqual(pos int64, t *tuple.Tuple, tkey []int) bool {
	for k, c := range s.key {
		if !s.ring.Value(pos, c).Equal(t.Vals[tkey[k]]) {
			return false
		}
	}
	return true
}

// tryEmit builds the output row of a matched pair — the arrived tuple
// and the row at pos of the opposite ring — through the column map,
// (left, right) field order regardless of arrival port, applies the
// residual predicate and emits it. The row carries the later of the
// two timestamps, as Tuple.Concat does. A residual implies the identity
// map (FuseProject refuses otherwise), so it sees the full concatenation.
func (j *WindowJoin) tryEmit(port int, arrived *tuple.Tuple, r *window.Ring, pos int64, emit Emit) {
	ts := arrived.Ts
	if m := r.Ts(pos); m > ts {
		ts = m
	}
	la := j.leftSch.Arity()
	vals := make([]tuple.Value, len(j.outCols))
	for i, c := range j.outCols {
		side := 0
		if c >= la {
			side, c = 1, c-la
		}
		if side == port {
			vals[i] = arrived.Vals[c]
		} else {
			vals[i] = r.Value(pos, c)
		}
	}
	out := &tuple.Tuple{Ts: ts, Vals: vals}
	if j.residual != nil && !expr.EvalBool(j.residual, out) {
		return
	}
	j.emitted++
	emit(stream.Tup(out))
}

// Flush implements Operator. A partition replica folds its counters
// into the parent here — Flush is each replica's single end-of-stream
// call, and the adds are atomic because sibling replicas flush
// concurrently.
func (j *WindowJoin) Flush(Emit) {
	p := j.parent
	if p == nil || j.folded {
		return
	}
	j.folded = true
	atomic.AddInt64(&p.probes, j.probes)
	atomic.AddInt64(&p.emitted, j.emitted)
	atomic.AddInt64(&p.colFallbacks, j.colFallbacks)
	for s := 0; s < 2; s++ {
		atomic.AddInt64(&p.received[s], j.received[s])
		atomic.AddInt64(&p.sides[s].expired, j.sides[s].expired)
		atomic.AddInt64(&p.sides[s].evicted, j.sides[s].evicted)
	}
}

// MemSize implements Operator.
func (j *WindowJoin) MemSize() int {
	return 128 + j.sides[0].ring.MemSize() + j.sides[1].ring.MemSize()
}

// CanPartition implements KeyPartitionable: key-partitioning is exact
// for equijoins whose per-side state is per-key — a global memory cap or
// a row-count window is shared state across keys and must decline.
func (j *WindowJoin) CanPartition() bool {
	return len(j.sides[0].key) > 0 &&
		j.sides[0].maxTuples == 0 && j.sides[1].maxTuples == 0 &&
		j.sides[0].rows == 0 && j.sides[1].rows == 0
}

// PartitionHash implements KeyPartitionable, reusing the side's own key
// hash (fast lane included) so router and index agree.
func (j *WindowJoin) PartitionHash(port int, t *tuple.Tuple) uint64 {
	return j.sides[port].hashOf(t)
}

// ClonePartition implements KeyPartitionable. Replicas emit through
// the parent's column map, so a fused projection survives every
// rebuild of the replica set (partitioned start, rescale, restore).
func (j *WindowJoin) ClonePartition() Operator {
	c, err := NewWindowJoin(j.name, j.leftSch, j.rightSch, j.cfgs[0], j.cfgs[1], j.residual)
	if err != nil {
		panic(err) // unreachable: the parent validated this config
	}
	c.out, c.outCols = j.out, j.outCols
	c.parent = j
	return c
}

// Probes returns the number of tuple comparisons performed: the CPU-cost
// proxy experiment E1 sweeps. After a partitioned run this is the fold
// of every replica's count.
func (j *WindowJoin) Probes() int64 { return j.probes }

// Emitted returns the number of join results produced.
func (j *WindowJoin) Emitted() int64 { return j.emitted }

// Evicted returns tuples dropped by the memory cap on each side —
// genuine load shedding, distinct from window expiry (Expired).
func (j *WindowJoin) Evicted() (left, right int64) {
	return j.sides[0].evicted, j.sides[1].evicted
}

// Expired returns tuples that left each side's window by expiry (time
// passing or row-count displacement), as opposed to cap eviction.
func (j *WindowJoin) Expired() (left, right int64) {
	return j.sides[0].expired, j.sides[1].expired
}

// WindowSizes reports the live tuple count per side, forcing any
// deferred expiry sweep first so the counts are exact. Unlike the
// folded counters, sizes are per-instance: a partition replica's sizes
// describe only its key slice.
func (j *WindowJoin) WindowSizes() (left, right int) {
	j.sides[0].sweep()
	j.sides[1].sweep()
	return j.sides[0].ring.Len(), j.sides[1].ring.Len()
}

// Selectivity implements Costs (observed).
func (j *WindowJoin) Selectivity() float64 {
	in := j.received[0] + j.received[1]
	if in == 0 {
		return 1
	}
	return float64(j.emitted) / float64(in)
}

// UnitCost implements Costs: average probes per input tuple.
func (j *WindowJoin) UnitCost() float64 {
	in := j.received[0] + j.received[1]
	if in == 0 {
		return 1
	}
	c := float64(j.probes) / float64(in)
	if c < 1 {
		return 1
	}
	return c
}
