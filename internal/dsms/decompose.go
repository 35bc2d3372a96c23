// Package dsms implements the tutorial's end-to-end 3-level
// architecture (slides 14-15, 54-55): resource-limited low-level DSMS
// nodes at the observation points, a resource-rich high-level node, and
// a DBMS behind it. It provides query decomposition across levels
// (slide 54), a fault-tolerant session transport for distributed
// evaluation (slide 55), and the adaptive-filter protocol for
// continuous distributed aggregation [OJW03].
package dsms

import (
	"fmt"

	"streamdb/internal/agg"
	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// Decomposition splits one aggregate query across the 3-level
// architecture (slide 54: "which sub-queries are evaluated by which
// level?"): each low-level node runs a filter plus a bounded-slot
// partial aggregation (data reduction at the observation point,
// slide 15); the high-level node merges the partial records into final
// results.
type Decomposition struct {
	filter     expr.Expr
	groupBy    []expr.Expr
	groupNames []string
	aggs       []agg.Spec
	slots      int
	bucketLen  int64
	inSchema   *tuple.Schema
	proto      *agg.PartialAgg // prototype for schema derivation
}

// NewDecomposition validates and builds a decomposition. filter may be
// nil. Every aggregate must be distributive or algebraic — the same
// restriction Gigascope's LFTA imposes (slide 37).
func NewDecomposition(in *tuple.Schema, filter expr.Expr, groupBy []expr.Expr, groupNames []string, aggs []agg.Spec, slots int, bucketLen int64) (*Decomposition, error) {
	if filter != nil && filter.Kind() != tuple.KindBool {
		return nil, fmt.Errorf("dsms: filter must be boolean")
	}
	proto, err := agg.NewPartialAgg("lfta", in, groupBy, groupNames, aggs, slots, bucketLen)
	if err != nil {
		return nil, err
	}
	return &Decomposition{
		filter: filter, groupBy: groupBy, groupNames: groupNames,
		aggs: aggs, slots: slots, bucketLen: bucketLen, inSchema: in,
		proto: proto,
	}, nil
}

// PartialSchema is the wire schema between levels.
func (d *Decomposition) PartialSchema() *tuple.Schema { return d.proto.OutSchema() }

// NewLowLevel builds one observation point's operator pipeline: it
// consumes raw tuples and emits partial-aggregate records.
type LowLevel struct {
	filter  *ops.Select
	partial *agg.PartialAgg
	// Columnar scratch: survivors of the filter kernel are gathered one
	// row at a time into colRow for the partial fold.
	colRow  tuple.Tuple
	colVals []tuple.Value
	// Reduction statistics.
	RawIn       int64
	PartialsOut int64
}

// NewLowLevel instantiates the low-level pipeline (one per node).
func (d *Decomposition) NewLowLevel(name string) (*LowLevel, error) {
	partial, err := agg.NewPartialAgg(name, d.inSchema, d.groupBy, d.groupNames, d.aggs, d.slots, d.bucketLen)
	if err != nil {
		return nil, err
	}
	ll := &LowLevel{partial: partial}
	if d.filter != nil {
		sel, err := ops.NewSelect(name+"_filter", d.inSchema, d.filter, -1, 1)
		if err != nil {
			return nil, err
		}
		ll.filter = sel
	}
	return ll, nil
}

// Push processes one raw element, forwarding partial records to emit.
func (l *LowLevel) Push(e stream.Element, emit ops.Emit) {
	l.RawIn++
	count := func(out stream.Element) {
		l.PartialsOut++
		emit(out)
	}
	if l.filter != nil {
		l.filter.Push(0, e, func(passed stream.Element) {
			l.partial.Push(0, passed, count)
		})
		return
	}
	l.partial.Push(0, e, count)
}

// PushBatch processes a column batch of raw tuples: the filter runs its
// selection-vector kernel straight over the columns (rejected tuples are
// never materialized as rows), and each survivor is gathered into a
// scratch row for the partial fold. Consumes the caller's batch
// reference; partial records leave through emit. Equivalent to calling
// Push for every row in order.
func (l *LowLevel) PushBatch(b *stream.Batch, emit ops.Emit) {
	l.RawIn += int64(b.N())
	count := func(out stream.Element) {
		l.PartialsOut++
		emit(out)
	}
	fold := func(fb *stream.Batch) {
		if cap(l.colVals) < len(fb.Cols) {
			l.colVals = make([]tuple.Value, len(fb.Cols))
		}
		l.colRow.Vals = l.colVals[:len(fb.Cols)]
		row := func(r int) {
			fb.GatherRow(r, &l.colRow)
			// PartialAgg copies keys and aggregate inputs by value, so
			// the scratch row can be reused immediately.
			l.partial.Push(0, stream.Tup(&l.colRow), count)
		}
		if fb.Sel != nil {
			for _, r := range fb.Sel {
				row(int(r))
			}
		} else {
			for r := 0; r < fb.Rows(); r++ {
				row(r)
			}
		}
		fb.Release()
	}
	if l.filter != nil {
		l.filter.ProcessBatch(0, b, fold, count)
		return
	}
	fold(b)
}

// Flush drains remaining partial state.
func (l *LowLevel) Flush(emit ops.Emit) {
	l.partial.Flush(func(out stream.Element) {
		l.PartialsOut++
		emit(out)
	})
}

// ReductionFactor reports raw tuples per emitted partial record: the
// data reduction the architecture exists to provide (slide 14
// "(voluminous) streams-in, (data reduced) streams-out").
func (l *LowLevel) ReductionFactor() float64 {
	if l.PartialsOut == 0 {
		return 0
	}
	return float64(l.RawIn) / float64(l.PartialsOut)
}

// NewHighLevel builds the merging aggregator all nodes feed.
func (d *Decomposition) NewHighLevel(name string) (*agg.FinalAgg, error) {
	return agg.NewFinalAgg(name, d.proto)
}
