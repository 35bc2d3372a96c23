// Package ops implements the physical stream operators of slides 29-33:
// per-element selection and projection, duplicate elimination, stream
// merge, the symmetric hash join [WA91], the windowed binary join in its
// hash and indexed-nested-loops variants [KNV03], and XJoin's
// memory-overflow processing [UF00].
//
// Operators are event-driven: the engine pushes one element at a time
// into a numbered input port and collects outputs via an emit callback.
// This keeps operators schedulable (slide 43's FIFO/Greedy/Chain policies
// need explicit queues between operators) and deterministic under
// virtual time.
package ops

import (
	"fmt"

	"streamdb/internal/expr"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// Emit receives operator output elements.
type Emit func(stream.Element)

// Operator is an event-driven stream operator.
type Operator interface {
	// Name identifies the operator instance in plans and introspection.
	Name() string
	// OutSchema describes the output tuples.
	OutSchema() *tuple.Schema
	// NumInputs reports the number of input ports (1 or 2).
	NumInputs() int
	// Push processes one element arriving on the given port.
	Push(port int, e stream.Element, emit Emit)
	// Flush finalizes state at end-of-stream (e.g. closes open windows).
	Flush(emit Emit)
	// MemSize reports the operator's state footprint in bytes; the
	// memory-based optimizer and load shedder read it (slide 42).
	MemSize() int
}

// Costs optionally exposes an operator's unit cost and selectivity for
// rate-based optimization (slide 40). Operators that know their
// per-tuple cost implement it.
type Costs interface {
	// Selectivity is the expected output/input tuple ratio.
	Selectivity() float64
	// UnitCost is the relative per-tuple processing cost (1 = a simple
	// predicate evaluation).
	UnitCost() float64
}

// Replicable marks stateless operators the concurrent engine may
// transparently replicate N-ways for operator parallelism: per-tuple
// output depends only on that tuple, and Flush emits nothing. Clone
// returns an independent instance safe to drive from another goroutine
// (observation counters are per-clone).
type Replicable interface {
	Operator
	Clone() Operator
}

// KeyPartitionable marks equality-keyed two-input operators (joins) the
// concurrent engine may scale out by hash partitioning the key space: P
// replicas each own the slice hash(key) % P == k, a router sends every
// data element to the replica owning its key (both ports agree on the
// hash, so matching tuples always meet in the same replica) and
// broadcasts punctuations to all replicas. Contract: Push on a
// punctuation must emit nothing (progress signals drive state reclaim
// only), and the router may synthesize progress punctuations at
// timestamps already observed as data on the same port — sound for
// operators that treat every arrival's timestamp as an implicit
// watermark for the opposite window, which is exactly the [KNV03]
// invalidation rule. CanPartition gates the capability at the value
// level: a join whose state is global rather than per-key (a shared
// memory cap, a row-count window) must decline. PartitionHash returns
// the routing hash of a tuple arriving on the given port, reusing the
// operator's own key hash so router and index agree. ClonePartition
// returns an independent replica safe to drive from another goroutine;
// replicas fold their observation counters back into the original on
// Flush, so post-run introspection on the original stays meaningful.
//
// The router moves column batches whole: it hashes a batch's key column
// once on arrival (PartitionHashCol), builds per-replica row spans over
// the same retained batch, and replicas run ProcessColSpan on them
// instead of materializing rows. Row elements (punctuations, restored
// or row-fed data) still go through PartitionHash and Push.
type KeyPartitionable interface {
	Operator
	CanPartition() bool
	PartitionHash(port int, t *tuple.Tuple) uint64
	ClonePartition() Operator

	// PartitionHashCol writes PartitionHash of each listed row into the
	// parallel out slice (len(out) >= len(rows)). It must be a pure
	// function of the batch contents — the splitter calls it outside
	// the replica goroutines.
	PartitionHashCol(port int, b *stream.Batch, rows []int32, out []uint64)

	// ProcessColSpan pushes the listed rows of b through the operator,
	// appending join output rows densely to out and, per input row, the
	// cumulative output row count to ends (the sequence-restoring merge
	// maps each input row to its output span). Unlike ProcessBatch it
	// does NOT consume a reference on b: the caller owns batch
	// lifetime. Returns the extended ends slice.
	ProcessColSpan(port int, b *stream.Batch, rows []int32, out *stream.Batch, ends []int32) []int32
}

// PartialAggregable marks stateful aggregation operators the concurrent
// engine may run as N partial-emitting replicas feeding one combiner
// node — the two-level (partial/final) aggregation split applied to
// intra-operator parallelism. CanPartial gates the capability at the
// value level: an operator type may implement the interface yet decline
// for configurations whose aggregates cannot ship fixed-arity partials.
// ClonePartial returns an independent replica emitting partial records
// plus progress punctuations; Combiner returns the node that merges the
// replicas' outputs into the exact single-copy result stream.
type PartialAggregable interface {
	Operator
	CanPartial() bool
	ClonePartial() Operator
	Combiner() Operator
}

// Select filters tuples by a predicate: a local per-element operator
// (slide 29). Punctuations pass through unchanged — a punctuation's
// promise survives filtering.
type Select struct {
	name string
	pred expr.Expr
	fast expr.Pred         // compiled fast lane; nil when the shape has no specialization
	kern expr.ColumnKernel // columnar kernel, compiled lazily (stateful: one per instance)
	sch  *tuple.Schema
	in   int64
	out  int64
	sel  float64 // declared selectivity estimate; <0 means "observe"
	cost float64
}

// NewSelect builds a filter. The declared selectivity seeds the
// rate-based optimizer; pass a negative value to use observed counts.
func NewSelect(name string, sch *tuple.Schema, pred expr.Expr, sel, cost float64) (*Select, error) {
	if pred.Kind() != tuple.KindBool {
		return nil, fmt.Errorf("ops: selection predicate must be boolean, got %s", pred.Kind())
	}
	if cost <= 0 {
		cost = 1
	}
	return &Select{name: name, sch: sch, pred: pred, fast: expr.CompilePredicate(pred), sel: sel, cost: cost}, nil
}

// Name implements Operator.
func (s *Select) Name() string { return s.name }

// OutSchema implements Operator.
func (s *Select) OutSchema() *tuple.Schema { return s.sch }

// NumInputs implements Operator.
func (s *Select) NumInputs() int { return 1 }

// Push implements Operator.
func (s *Select) Push(_ int, e stream.Element, emit Emit) {
	if e.IsPunct() {
		emit(e)
		return
	}
	s.in++
	var pass bool
	if s.fast != nil {
		pass = s.fast(e.Tuple)
	} else {
		pass = expr.EvalBool(s.pred, e.Tuple)
	}
	if pass {
		s.out++
		emit(e)
	}
}

// Flush implements Operator.
func (s *Select) Flush(Emit) {}

// MemSize implements Operator.
func (s *Select) MemSize() int { return 64 }

// Selectivity implements Costs: declared if provided, else observed.
func (s *Select) Selectivity() float64 {
	if s.sel >= 0 {
		return s.sel
	}
	if s.in == 0 {
		return 1
	}
	return float64(s.out) / float64(s.in)
}

// UnitCost implements Costs.
func (s *Select) UnitCost() float64 { return s.cost }

// Predicate returns the selection predicate (plan introspection).
func (s *Select) Predicate() expr.Expr { return s.pred }

// Clone implements Replicable: selection is stateless apart from its
// observation counters, which start fresh on the clone. The column
// kernel carries private scratch buffers, so the clone compiles its
// own on first use.
func (s *Select) Clone() Operator {
	c := *s
	c.in, c.out = 0, 0
	c.kern = nil
	return &c
}

// Project evaluates one expression per output field (slide 29,
// duplicate-preserving). The planner is responsible for including the
// ordering attribute when downstream operators need it [JMS95].
type Project struct {
	name  string
	exprs []expr.Expr
	sch   *tuple.Schema

	// Columnar path state (see batch.go).
	colIdx  []int // bare-column projection indexes; nil when any expr computes
	pool    *stream.ColPool
	srow    tuple.Tuple
	scratch []tuple.Value
}

// NewProject builds a projection. Output field i is exprs[i] named
// outSchema.Fields[i].
func NewProject(name string, out *tuple.Schema, exprs []expr.Expr) (*Project, error) {
	if len(exprs) != out.Arity() {
		return nil, fmt.Errorf("ops: projection has %d exprs for %d fields", len(exprs), out.Arity())
	}
	for i, e := range exprs {
		if e.Kind() != out.Fields[i].Kind && e.Kind() != tuple.KindNull {
			return nil, fmt.Errorf("ops: projection field %s is %s but expression yields %s",
				out.Fields[i].Name, out.Fields[i].Kind, e.Kind())
		}
	}
	return &Project{name: name, exprs: exprs, sch: out, colIdx: expr.CompileCols(exprs)}, nil
}

// Name implements Operator.
func (p *Project) Name() string { return p.name }

// OutSchema implements Operator.
func (p *Project) OutSchema() *tuple.Schema { return p.sch }

// NumInputs implements Operator.
func (p *Project) NumInputs() int { return 1 }

// Push implements Operator.
func (p *Project) Push(_ int, e stream.Element, emit Emit) {
	if e.IsPunct() {
		// Field patterns no longer line up after projection; forward
		// only the progress information (wildcards elsewhere).
		emit(stream.Punct(&stream.Punctuation{Ts: e.Punct.Ts}))
		return
	}
	vals := make([]tuple.Value, len(p.exprs))
	for i, ex := range p.exprs {
		vals[i] = ex.Eval(e.Tuple)
	}
	emit(stream.Tup(tuple.New(e.Tuple.Ts, vals...)))
}

// Flush implements Operator.
func (p *Project) Flush(Emit) {}

// MemSize implements Operator.
func (p *Project) MemSize() int { return 64 }

// Selectivity implements Costs.
func (p *Project) Selectivity() float64 { return 1 }

// UnitCost implements Costs.
func (p *Project) UnitCost() float64 { return float64(len(p.exprs)) }

// Clone implements Replicable: projection holds no per-tuple state.
// The columnar scratch row is per-instance; the clone grows its own.
func (p *Project) Clone() Operator {
	c := *p
	c.pool = nil
	c.srow = tuple.Tuple{}
	c.scratch = nil
	return &c
}

// DupElim is duplicate-eliminating projection, "like grouping"
// (slide 29): it tracks the keys seen in the current tumbling window and
// suppresses repeats. Window boundaries (by element time) reset state,
// keeping memory bounded for bounded windows.
type DupElim struct {
	name   string
	sch    *tuple.Schema
	keyIdx []int
	winLen int64 // 0 = whole stream (unbounded state!)
	winEnd int64
	seen   map[uint64][]*tuple.Tuple
	bytes  int
}

// NewDupElim builds a distinct operator over the given key fields with a
// tumbling window of winLen timestamp units (0 = unbounded).
func NewDupElim(name string, sch *tuple.Schema, keyIdx []int, winLen int64) *DupElim {
	return &DupElim{
		name: name, sch: sch, keyIdx: keyIdx, winLen: winLen,
		seen: make(map[uint64][]*tuple.Tuple),
	}
}

// Name implements Operator.
func (d *DupElim) Name() string { return d.name }

// OutSchema implements Operator.
func (d *DupElim) OutSchema() *tuple.Schema { return d.sch }

// NumInputs implements Operator.
func (d *DupElim) NumInputs() int { return 1 }

// Push implements Operator.
func (d *DupElim) Push(_ int, e stream.Element, emit Emit) {
	if e.IsPunct() {
		emit(e)
		return
	}
	t := e.Tuple
	if d.winLen > 0 {
		if t.Ts >= d.winEnd {
			d.seen = make(map[uint64][]*tuple.Tuple)
			d.bytes = 0
			d.winEnd = (t.Ts/d.winLen + 1) * d.winLen
		}
	}
	h := t.Key(d.keyIdx)
	for _, prev := range d.seen[h] {
		if prev.KeyEqual(t, d.keyIdx, d.keyIdx) {
			return // duplicate
		}
	}
	d.seen[h] = append(d.seen[h], t)
	d.bytes += t.MemSize()
	emit(e)
}

// Flush implements Operator.
func (d *DupElim) Flush(Emit) {}

// MemSize implements Operator.
func (d *DupElim) MemSize() int { return 64 + d.bytes }

// Union interleaves two streams with identical schemas (slide 13:
// "merging data streams"). Elements pass through in arrival order; the
// engine is responsible for arrival-order interleaving across ports.
type Union struct {
	name string
	sch  *tuple.Schema
}

// NewUnion builds a union operator.
func NewUnion(name string, sch *tuple.Schema) *Union {
	return &Union{name: name, sch: sch}
}

// Name implements Operator.
func (u *Union) Name() string { return u.name }

// OutSchema implements Operator.
func (u *Union) OutSchema() *tuple.Schema { return u.sch }

// NumInputs implements Operator.
func (u *Union) NumInputs() int { return 2 }

// Push implements Operator.
func (u *Union) Push(_ int, e stream.Element, emit Emit) {
	// A punctuation from one input does not bound the merged stream;
	// only tuples pass through. (A punctuation-correct union would
	// need to intersect promises across ports.)
	if e.IsPunct() {
		return
	}
	emit(e)
}

// Flush implements Operator.
func (u *Union) Flush(Emit) {}

// MemSize implements Operator.
func (u *Union) MemSize() int { return 32 }
