package query

import (
	"fmt"

	"streamdb/internal/agg"
	"streamdb/internal/exec"
	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// Decomposition is an aggregate query split across the 3-level
// architecture's two DSMS levels (slides 37, 54). Each low-level node
// runs the WHERE filter and a slot-bounded partial replica of the
// query's GroupBy; the high level merges the nodes' partial records
// with that GroupBy's PaneCombiner. The wire between them carries
// partial records of PartialSchema.
type Decomposition struct {
	q     *Query // its FROM item carries the window the levels use
	in    *tuple.Schema
	pred  expr.Expr    // WHERE; nil without one
	gb    *agg.GroupBy // the query's aggregate, only ever cloned
	slots int
}

// Decompose splits a single-stream aggregate query across the 3-level
// architecture (slide 54: "how do we decompose a declarative (SQL)
// query?" — "Gigascope does some automatic decomposition"). The query
// is planned like any aggregate (Compile); the low level is its WHERE
// filter plus a partial replica of its GroupBy holding at most slots
// groups, and the high level is the GroupBy's combiner. Requirements:
// one stream, GROUP BY with only distributive/algebraic aggregates, no
// HAVING (a HAVING can only be evaluated on final groups; apply it
// downstream of the high level), and a tumbling window or none, which
// aggregates per 60-second tumbling window.
func Decompose(text string, cat *Catalog, slots int) (*Decomposition, error) {
	q, err := Parse(text)
	if err != nil {
		return nil, err
	}
	if len(q.From) != 1 {
		return nil, fmt.Errorf("query: decomposition needs a single stream")
	}
	if q.Having != nil {
		return nil, fmt.Errorf("query: HAVING cannot be decomposed; evaluate it above the high level")
	}
	if q.Distinct {
		return nil, fmt.Errorf("query: DISTINCT cannot be decomposed")
	}
	sch, ok := cat.Lookup(q.From[0].Stream)
	if !ok {
		return nil, fmt.Errorf("query: unknown stream %q", q.From[0].Stream)
	}
	item := &q.From[0]
	switch w := item.Window; {
	case w.Kind == window.KindNone:
		item.Window = window.Tumbling(60 * stream.Second)
	case w.Kind != window.KindTime || w.Landmark || w.Slide != w.Range:
		return nil, fmt.Errorf("query: only tumbling windows decompose (got %s)", w)
	}
	pred, gb, _, _, err := bindAggregate(q, &boundStream{item: *item, schema: sch})
	if err != nil {
		return nil, err
	}
	if err := gb.CheckBound(slots); err != nil {
		return nil, err
	}
	return &Decomposition{q: q, in: sch, pred: pred, gb: gb, slots: slots}, nil
}

// PartialSchema is the wire schema between the levels: [wend, wstart,
// group keys..., partial columns].
func (d *Decomposition) PartialSchema() *tuple.Schema { return d.gb.PartialSchema() }

// NewHigh returns a fresh high-level merge operator. Its rows are the
// query's GroupBy rows, [wend, group keys..., aggregates...]; it closes a
// window when a progress punctuation or Flush passes its end: a
// partial record's timestamp is its window end, so the stream.Progress
// a dsms.SessionSource applies to the merged streams supplies them.
func (d *Decomposition) NewHigh() ops.Operator { return d.gb.Combiner() }

// Low returns a fresh low-level plan for one observation point: the
// WHERE filter, then a slot-bounded partial replica of the GroupBy,
// then out. Its rows are partial records of PartialSchema; its
// progress punctuations stay behind, because the wire carries tuples
// only. Each Execute builds fresh operators, but a plan holds one run's
// Stats, so give each concurrent node its own. The first node's In
// counts the raw elements the node read.
func (d *Decomposition) Low() *Plan {
	p := &Plan{Q: d.q, OutSchema: d.PartialSchema(), Streamable: true, IsAgg: true,
		Bounded: BoundedMemory{OK: true, Reasons: []string{fmt.Sprintf("at most %d partial groups", d.slots)}}}
	if d.pred != nil {
		p.steps = append(p.steps, fmt.Sprintf("select %s", d.pred))
	}
	p.steps = append(p.steps, fmt.Sprintf("bounded partial group-by window %s, %d slots", d.q.From[0].Window, d.slots))
	p.build = func(g *exec.Graph, sources map[string]stream.Source) error {
		chain, err := whereOps(d.in, d.pred)
		if err != nil {
			return err
		}
		low, err := d.gb.BoundedPartial(d.slots)
		if err != nil {
			return err
		}
		return wireChain(g, sources, d.q.From[0].Stream, append(chain, low))
	}
	return p
}
