package agg

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// Spec describes one aggregate column: fn(arg) AS name.
type Spec struct {
	Fn   *Func
	Arg  expr.Expr // nil for count(*)
	Name string
}

// GroupBy is the windowed grouped aggregation operator implementing the
// general form of slide 34:
//
//	select G, F1 from S where P group by G having F2 op theta
//
// Results for a window instance are emitted when the operator's notion
// of time passes the window's end — time advances with tuple timestamps
// and with progress punctuations (slide 28's "similar utility in query
// processing"). For unbounded (no-window) queries results appear only at
// Flush, the blocking behaviour that motivates windows in the first
// place.
type GroupBy struct {
	name      string
	groupBy   []expr.Expr
	groupName []string
	keyCols   []int // fast lane: group-by is all bare columns; nil = generic
	aggs      []Spec
	having    expr.Expr // evaluated over the output schema; may be nil
	spec      window.Spec
	assigner  *window.Assigner
	out       *tuple.Schema
	// windows maps window start -> group table (legacy per-window path).
	windows   map[int64]*groupTable
	unbounded *groupTable
	watermark int64
	emitted   int64
	maxGroups int           // high-water mark of concurrent group states
	scratch   []tuple.Value // reusable key buffer for fold

	// Pane path (see pane.go): active when paneAsn != nil. Each tuple
	// updates exactly one slide-aligned pane; windows are folded from
	// pane partials at close time.
	paneAsn  *window.PaneAssigner
	panes    map[int64]*paneTable
	paneWins map[int64]int64 // window start -> end, registered by panes
	lastPane *paneTable      // fast path for in-order arrivals
	paneNext int64           // earliest open window end; advance fast exit

	// Recycling (see pane.go): pane lifetime is bounded and partial
	// arity fixed, so retired pane tables and their groups are reused
	// instead of reallocated. groupFree holds groups with owned key
	// slices (overwritten in place); combFree holds combine out-groups
	// whose keys alias pane groups (only ever replaced by assignment).
	paneFree  []*paneTable
	groupFree []*group
	combFree  []*group
	combTbl   *groupTable // reusable combine output table
	dueBuf    []int64     // reusable due-window scratch

	// Running window (see pane.go): nil unless the window slides and
	// every aggregate is exactly invertible. Derived state, never
	// snapshotted. closes tallies how sliding windows closed.
	run    *runWindow
	closes closeStats

	// Partial-replica mode (engine-internal; see ClonePartial): emit
	// fixed-arity partial records plus progress punctuations instead of
	// final rows, for a downstream PaneCombiner.
	partial     bool
	partialMark int64

	// Group index (see table.go): wordKey selects the payload probe over
	// the FNV chain hash for every table; groupSize is each group's
	// MemSize when the key and state kinds fix it (0: walk the groups).
	wordKey   bool
	groupSize int

	// Columnar fast path (see colfold.go), planned lazily on the first
	// ProcessBatch. colRow/colVals are the gather scratch for rows that
	// must take the tuple path (late arrivals, unplanned shapes).
	colPlan int8
	colAggs []colAgg
	colRow  tuple.Tuple
	colVals []tuple.Value
	// Run-fold scratch (colfold.go): resolved group pointers for one
	// equal-timestamp run, and a dense row-index ramp for batches
	// without a selection vector.
	runGroups []*group
	runRows   []int32
}

// NewGroupBy builds a grouped aggregate. groupBy expressions become the
// leading output fields with the given names; each agg spec appends one
// field. A zero window.Spec (KindNone) aggregates the whole stream.
func NewGroupBy(name string, in *tuple.Schema, groupBy []expr.Expr, groupNames []string, aggs []Spec, spec window.Spec, having func(out *tuple.Schema) (expr.Expr, error)) (*GroupBy, error) {
	if len(groupBy) != len(groupNames) {
		return nil, fmt.Errorf("agg: %d group exprs, %d names", len(groupBy), len(groupNames))
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	fields := make([]tuple.Field, 0, len(groupBy)+len(aggs)+1)
	fields = append(fields, tuple.Field{Name: "wend", Kind: tuple.KindTime, Ordering: true})
	for i, g := range groupBy {
		fields = append(fields, tuple.Field{Name: groupNames[i], Kind: g.Kind()})
	}
	for _, a := range aggs {
		if a.Fn.NeedsArg && a.Arg == nil {
			return nil, fmt.Errorf("agg: %s requires an argument", a.Fn.Name)
		}
		argKind := tuple.KindInt
		if a.Arg != nil {
			argKind = a.Arg.Kind()
		}
		fields = append(fields, tuple.Field{Name: a.Name, Kind: a.Fn.Result(argKind)})
	}
	out := tuple.NewSchema(name, fields...)
	g := &GroupBy{
		name: name, groupBy: groupBy, groupName: groupNames, aggs: aggs,
		spec: spec, out: out, windows: make(map[int64]*groupTable),
		keyCols: expr.CompileCols(groupBy),
		scratch: make([]tuple.Value, 0, len(groupBy)),
	}
	g.wordKey = wordKeyed(g.keyCols, groupBy)
	g.groupSize = fixedGroupSize(groupBy, aggs)
	if spec.Kind == window.KindTime {
		if window.PaneCompatible(spec) && allPartializable(aggs) {
			// Pane path: O(1) state updates per tuple, windows folded
			// from shared sub-aggregates (see pane.go). Holistic
			// aggregates (median, ...) cannot merge fixed-arity partials
			// and keep the legacy per-window path.
			pa, err := window.NewPaneAssigner(spec)
			if err != nil {
				return nil, err
			}
			g.paneAsn = pa
			g.panes = make(map[int64]*paneTable)
			g.paneWins = make(map[int64]int64)
			g.paneNext = math.MaxInt64
			if runningGate(spec, groupBy, aggs) {
				g.run = &runWindow{}
			}
		} else {
			g.assigner = window.NewAssigner(spec)
		}
	} else {
		g.unbounded = &groupTable{}
	}
	if having != nil {
		h, err := having(out)
		if err != nil {
			return nil, err
		}
		if h != nil && h.Kind() != tuple.KindBool {
			return nil, fmt.Errorf("agg: HAVING must be boolean")
		}
		g.having = h
	}
	return g, nil
}

// Name implements ops.Operator.
func (g *GroupBy) Name() string { return g.name }

// OutSchema implements ops.Operator.
func (g *GroupBy) OutSchema() *tuple.Schema { return g.out }

// NumInputs implements ops.Operator.
func (g *GroupBy) NumInputs() int { return 1 }

// Push implements ops.Operator.
func (g *GroupBy) Push(_ int, e stream.Element, emit ops.Emit) {
	g.retireExpired()
	if e.IsPunct() {
		g.advance(e.Punct.Ts, emit)
		g.closeGroups(e.Punct, emit)
		if g.partial && e.Punct.Ts > g.partialMark {
			// Forward the time advance so the downstream combiner can
			// finalize windows (and punctuation-closed groups) we have
			// already accounted for.
			g.partialMark = e.Punct.Ts
			emit(stream.Punct(&stream.Punctuation{Ts: g.partialMark}))
		}
		return
	}
	g.pushRow(e.Tuple, emit)
}

// pushRow routes one data tuple, shared by the row path (Push) and the
// columnar path's fallback lane (ProcessBatch, colfold.go).
func (g *GroupBy) pushRow(t *tuple.Tuple, emit ops.Emit) {
	if t.Ts > g.watermark {
		g.advance(t.Ts, emit)
	}
	switch {
	case g.paneAsn != nil:
		g.foldPane(t)
		g.emitProgress(emit)
	case g.assigner == nil:
		g.fold(g.unbounded, t)
		return
	default:
		for _, id := range g.assigner.Assign(t.Ts) {
			tbl, ok := g.windows[id.Start]
			if !ok {
				tbl = &groupTable{end: id.End}
				g.windows[id.Start] = tbl
			}
			g.fold(tbl, t)
		}
	}
}

// trackGroups samples the live-group high-water mark. Group counts only
// grow between removal events (a due window in advance, closeGroups,
// Flush), so sampling right before each removal — and in MaxGroups —
// observes the exact maximum without an O(windows) scan per tuple.
func (g *GroupBy) trackGroups() {
	if n := g.liveGroups(); n > g.maxGroups {
		g.maxGroups = n
	}
}

// evalKeys extracts the tuple's grouping-key values into the reusable
// scratch buffer. Bare-column groupings take the compiled fast lane (no
// interface dispatch).
func (g *GroupBy) evalKeys(t *tuple.Tuple) []tuple.Value {
	keys := g.scratch[:0]
	if g.keyCols != nil {
		for _, idx := range g.keyCols {
			keys = append(keys, t.Vals[idx])
		}
	} else {
		for _, ge := range g.groupBy {
			keys = append(keys, ge.Eval(t))
		}
	}
	g.scratch = keys
	return keys
}

// locateGroup resolves keys (with their probe h) to the table's group,
// creating one — recycled when possible — on first sight.
func (g *GroupBy) locateGroup(tbl *groupTable, keys []tuple.Value, h uint64) *group {
	if i := tbl.find(keys, h); i >= 0 {
		return tbl.slots[i].grp
	}
	var grp *group
	if n := len(g.groupFree); n > 0 {
		// Recycled group (states already reset): overwrite the owned
		// key slice in place.
		grp = g.groupFree[n-1]
		g.groupFree = g.groupFree[:n-1]
		grp.keys = append(grp.keys[:0], keys...)
	} else {
		// Keys live as long as the group: copy them out of the
		// scratch buffer.
		kc := make([]tuple.Value, len(keys))
		copy(kc, keys)
		states := make([]State, len(g.aggs))
		for i, a := range g.aggs {
			states[i] = a.Fn.New()
		}
		grp = &group{keys: kc, states: states}
	}
	tbl.insert(grp, h)
	return grp
}

func (g *GroupBy) fold(tbl *groupTable, t *tuple.Tuple) {
	keys := g.evalKeys(t)
	grp := g.locateGroup(tbl, keys, g.probe(keys))
	for i, a := range g.aggs {
		if a.Arg == nil {
			grp.states[i].Add(tuple.Int(1))
		} else {
			grp.states[i].Add(a.Arg.Eval(t))
		}
	}
}

// advance moves the watermark and emits every window whose end has
// passed.
func (g *GroupBy) advance(now int64, emit ops.Emit) {
	if now <= g.watermark {
		return
	}
	g.watermark = now
	if g.paneAsn != nil {
		g.advancePanes(now, emit)
		return
	}
	if g.assigner == nil {
		return
	}
	if g.spec.Landmark {
		// Agglomerative windows emit a snapshot at every slide boundary
		// but keep accumulating (slide 27).
		tbl, ok := g.windows[0]
		if !ok {
			return
		}
		for tbl.end <= now {
			g.emitTable(tbl, emit)
			tbl.end += g.spec.Slide
		}
		return
	}
	var due []int64
	for start, tbl := range g.windows {
		if tbl.end <= now {
			due = append(due, start)
		}
	}
	if len(due) == 0 {
		return
	}
	g.trackGroups() // groups are about to leave
	// Deterministic output order across runs.
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, start := range due {
		g.emitTable(g.windows[start], emit)
		delete(g.windows, start)
	}
}

func (g *GroupBy) emitTable(tbl *groupTable, emit ops.Emit) {
	if tbl.n == 0 {
		return
	}
	// Deterministic group order: sort by key values.
	g.emitGroups(tbl.end, sortedTableGroups(tbl), emit)
}

// emitGroups emits one result row per group, in the given (key) order,
// honoring HAVING.
func (g *GroupBy) emitGroups(end int64, grps []*group, emit ops.Emit) {
	// One backing array for the whole table: emission allocates O(1)
	// slices regardless of group count. Rows escape downstream and are
	// never reused.
	arity := 1 + len(g.groupBy) + len(g.aggs)
	rows := make([]tuple.Tuple, len(grps))
	buf := make([]tuple.Value, 0, len(grps)*arity)
	for i, grp := range grps {
		start := len(buf)
		buf = append(buf, tuple.Time(end))
		buf = append(buf, grp.keys...)
		for _, st := range grp.states {
			buf = append(buf, st.Result())
		}
		rows[i] = tuple.Tuple{Ts: end, Vals: buf[start:len(buf):len(buf)]}
	}
	for i := range rows {
		out := &rows[i]
		if g.having != nil && !expr.EvalBool(g.having, out) {
			continue
		}
		g.emitted++
		emit(stream.Tup(out))
	}
}

// sortGroups orders groups by key values for deterministic output.
// Groups of one table have distinct keys, so the order is total and any
// sort yields the same rows.
func sortGroups(grps []*group) {
	if len(grps) < 2 || sortByPayload(grps) {
		return
	}
	slices.SortFunc(grps, compareGroups)
}

// sortedTableGroups lists a table's groups in deterministic key order.
func sortedTableGroups(tbl *groupTable) []*group {
	grps := make([]*group, 0, tbl.n)
	for _, s := range tbl.slots {
		if s.grp != nil {
			grps = append(grps, s.grp)
		}
	}
	sortGroups(grps)
	return grps
}

// compareGroups orders groups by key values (Value.Compare per key).
func compareGroups(a, b *group) int {
	for k := range a.keys {
		if c := a.keys[k].Compare(b.keys[k]); c != 0 {
			return c
		}
	}
	return 0
}

// sortByPayload is sortGroups for the common single-key case — an
// address, a port, a protocol number, a time bucket: when every group's
// one key is of the same integral kind with a payload below 2^32,
// Value.Compare orders the groups by payload, so it packs (payload,
// position) into one word per group and sorts the words — no pointer
// chase and no 24-byte value copies per comparison. It reports false,
// leaving grps as it was, for any other key shape.
func sortByPayload(grps []*group) bool {
	if len(grps[0].keys) != 1 || uint64(len(grps)) > math.MaxUint32 {
		return false
	}
	kind := grps[0].keys[0].Kind
	switch kind {
	case tuple.KindUint, tuple.KindTime, tuple.KindIP, tuple.KindInt:
	default:
		return false
	}
	packed := make([]uint64, len(grps))
	for i, grp := range grps {
		k := &grp.keys[0]
		if k.Kind != kind || k.Raw() > math.MaxUint32 {
			return false // mixed kinds, a negative INT, a wide payload
		}
		packed[i] = k.Raw()<<32 | uint64(i)
	}
	slices.Sort(packed)
	sorted := make([]*group, len(grps))
	for i, w := range packed {
		sorted[i] = grps[uint32(w)]
	}
	copy(grps, sorted)
	return true
}

// emitGroup produces one result row for a finished group, honoring
// HAVING.
func (g *GroupBy) emitGroup(end int64, grp *group, emit ops.Emit) {
	vals := make([]tuple.Value, 0, 1+len(grp.keys)+len(grp.states))
	vals = append(vals, tuple.Time(end))
	vals = append(vals, grp.keys...)
	for _, st := range grp.states {
		vals = append(vals, st.Result())
	}
	out := tuple.New(end, vals...)
	if g.having != nil && !expr.EvalBool(g.having, out) {
		return
	}
	g.emitted++
	emit(stream.Tup(out))
}

// closeGroups applies data-dependent punctuations [TMSF03] (slide 28's
// auction-close idiom): when a punctuation's constant patterns are all
// on plain grouping columns, every group matching them is complete —
// emit it immediately and release its state, without waiting for a
// window boundary. Only exact-column group expressions participate;
// computed groupings are conservatively left open. Like advancePanes, on
// a partial replica it removes no group without emitting it.
func (g *GroupBy) closeGroups(p *stream.Punctuation, emit ops.Emit) {
	if len(p.Fields) == 0 || len(g.groupBy) == 0 {
		return
	}
	g.trackGroups()
	bounds, ok := g.punctBounds(p)
	if !ok {
		return
	}
	if g.paneAsn != nil {
		g.closeGroupsPanes(p.Ts, bounds, emit)
		return
	}
	closeIn := func(tbl *groupTable, end int64) {
		done := tbl.removeMatching(bounds)
		sortGroups(done)
		for _, grp := range done {
			g.emitGroup(end, grp, emit)
		}
	}
	if g.unbounded != nil {
		closeIn(g.unbounded, p.Ts)
	}
	for _, tbl := range g.windows {
		closeIn(tbl, p.Ts)
	}
}

// keyBound binds one punctuation pattern to a group-by key position.
type keyBound struct {
	groupIdx int
	pat      stream.Pattern
}

// punctBounds maps each punctuation pattern to a group-by position;
// ok=false when any pattern is on a column the grouping does not
// preserve (computed groupings are conservatively left open).
func (g *GroupBy) punctBounds(p *stream.Punctuation) ([]keyBound, bool) {
	var bounds []keyBound
	for col, pat := range p.Fields {
		matched := false
		for gi, ge := range g.groupBy {
			if c, ok := ge.(*expr.Col); ok && c.Index == col {
				bounds = append(bounds, keyBound{groupIdx: gi, pat: pat})
				matched = true
				break
			}
		}
		if !matched {
			return nil, false
		}
	}
	return bounds, true
}

// matchBounds reports whether a group's keys satisfy every bound.
func matchBounds(keys []tuple.Value, bounds []keyBound) bool {
	for _, b := range bounds {
		if !b.pat.Matches(keys[b.groupIdx]) {
			return false
		}
	}
	return true
}

// Flush implements ops.Operator: emits all open windows (or the
// unbounded table).
func (g *GroupBy) Flush(emit ops.Emit) {
	g.retireExpired()
	g.trackGroups()
	if g.paneAsn != nil {
		g.flushPanes(emit)
		return
	}
	if g.assigner == nil {
		if g.unbounded != nil && g.unbounded.n > 0 {
			g.unbounded.end = g.watermark
			g.emitTable(g.unbounded, emit)
			g.unbounded = &groupTable{}
		}
		return
	}
	var due []int64
	for start := range g.windows {
		due = append(due, start)
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, start := range due {
		g.emitTable(g.windows[start], emit)
		delete(g.windows, start)
	}
}

// MemSize implements ops.Operator. With a fixed group size it is
// O(tables); otherwise it walks every group.
func (g *GroupBy) MemSize() int {
	n := 128 + 16*len(g.paneWins)
	count := func(tbl *groupTable) {
		if g.groupSize > 0 {
			n += tbl.n * g.groupSize
			return
		}
		for _, s := range tbl.slots {
			if s.grp != nil {
				n += groupMemSize(s.grp)
			}
		}
	}
	for _, tbl := range g.windows {
		count(tbl)
	}
	for _, p := range g.panes {
		count(&p.groupTable)
	}
	if g.run != nil {
		count(&g.run.tbl)
	}
	if g.unbounded != nil {
		count(g.unbounded)
	}
	return n
}

// liveGroups counts group states across all open windows: the
// bounded-memory quantity [ABB+02] analyzes (slides 35-36).
func (g *GroupBy) liveGroups() int {
	n := 0
	for _, tbl := range g.windows {
		n += tbl.n
	}
	for _, p := range g.panes {
		n += p.n
	}
	if g.unbounded != nil {
		n += g.unbounded.n
	}
	return n
}

// MaxGroups reports the high-water mark of concurrent group states.
func (g *GroupBy) MaxGroups() int {
	g.trackGroups() // fold in groups created since the last boundary
	return g.maxGroups
}

// Emitted reports the number of result rows produced.
func (g *GroupBy) Emitted() int64 { return g.emitted }

// Selectivity implements ops.Costs: aggregation is data-reducing; the
// precise ratio is workload-dependent, so report observed behaviour.
func (g *GroupBy) Selectivity() float64 { return 0.1 }

// UnitCost implements ops.Costs.
func (g *GroupBy) UnitCost() float64 {
	return float64(len(g.groupBy) + len(g.aggs))
}
