package query

import (
	"fmt"
	"strings"

	"streamdb/internal/agg"
	"streamdb/internal/exec"
	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// Plan is a compiled query: a recipe for wiring operators into an
// execution graph, plus the analysis results the tutorial highlights
// (bounded-memory verdict, streamability).
type Plan struct {
	Q          *Query
	OutSchema  *tuple.Schema
	Bounded    BoundedMemory
	Streamable bool
	IsJoin     bool
	IsAgg      bool
	steps      []string
	build      func(g *exec.Graph, sources map[string]stream.Source) error
	// partitionable: the plan's join (if any) can run behind the
	// key-partition router, the only concurrent lane that reproduces the
	// serial loop's cross-port arrival order.
	partitionable bool
	stats         []exec.NamedStats
}

// Explain renders the physical plan.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for: %s\n", p.Q.Text)
	for i, s := range p.steps {
		fmt.Fprintf(&b, "  %d. %s\n", i+1, s)
	}
	fmt.Fprintf(&b, "  bounded-memory: %v (%s)\n", p.Bounded.OK, strings.Join(p.Bounded.Reasons, "; "))
	return b.String()
}

// Build wires the plan into an execution graph. sources maps stream
// names (as written in FROM) to their sources.
func (p *Plan) Build(g *exec.Graph, sources map[string]stream.Source) error {
	return p.build(g, sources)
}

// executeBatch is the edge batch size of Execute's batch lane. A batch
// never waits to fill (see Execute), so the size only bounds how much
// one bulk read takes; 256 is what the wire path and the benchmark's
// engine-lane rungs run at.
const executeBatch = 256

// Execute is the one way a compiled plan runs to completion: it wires
// the plan into a fresh graph over sources, runs it until the sources
// end or maxElements source elements have been consumed (< 0 = no
// budget; with several sources the budget counts across all of them in
// arrival order), flushes, and returns the first operator failure.
// Every result tuple goes to sink; the tuples are heap rows the caller
// may keep.
//
// The engine lane follows from what the bound sources can do. When
// every FROM source is a stream.BulkSource — "hand over what is
// available now; a short read means momentarily idle" — the plan runs
// on the batched columnar engine (exec.RunWith, width 1): bulk reads
// never wait for a batch to fill, so no result is held back. sink is
// then called from an engine goroutine: calls are serial and the last
// one happens before Execute returns. A plain stream.Source may block
// in Next with elements already handed over, so such plans run on the
// per-arrival serial loop (Graph.Run), which pushes each element to
// completion before asking for the next; sink then runs on the calling
// goroutine. Both lanes produce the same rows in the same order.
func (p *Plan) Execute(sources map[string]stream.Source, sink func(*tuple.Tuple), maxElements int64) error {
	g := exec.NewGraph(func(e stream.Element) {
		if !e.IsPunct() {
			sink(e.Tuple)
		}
	})
	if err := p.Build(g, sources); err != nil {
		return err
	}
	if p.batchLane(sources, maxElements) {
		g.RunWith(maxElements, exec.RunOptions{
			Columnar:  true,
			BatchSize: executeBatch,
			// Two sources feed two goroutines; the partition router's
			// timestamp merge restores the serial cross-port order.
			PartitionJoins: len(p.Q.From) > 1,
		})
	} else {
		g.Run(maxElements)
	}
	p.stats = g.AllStats()
	return g.Err()
}

// batchLane reports whether Execute may run the plan on the batched
// engine and still produce exactly the serial loop's output.
func (p *Plan) batchLane(sources map[string]stream.Source, maxElements int64) bool {
	from := p.Q.From
	if len(from) > 1 {
		switch {
		case maxElements >= 0:
			// RunWith budgets each source separately; the serial loop
			// counts one budget over the timestamp merge of all of them.
			return false
		case !p.partitionable:
			// Only the key-partitioned lane re-derives that merge order.
			return false
		case from[0].Stream == from[1].Stream:
			// A self-join binds one source to both ports, which two source
			// goroutines must not share.
			return false
		}
	}
	for _, fi := range from {
		if _, ok := sources[fi.Stream].(stream.BulkSource); !ok {
			return false
		}
	}
	return true
}

// Stats returns the per-operator counters of the last Execute, in
// graph order: Batches > 0 on a node means the batched lane ran it.
func (p *Plan) Stats() []exec.NamedStats { return p.stats }

// Run compiles and executes a query over the given sources, returning
// up to limit result tuples (limit < 0 = all, sources must be finite).
func Run(text string, cat *Catalog, sources map[string]stream.Source, limit int) ([]*tuple.Tuple, *Plan, error) {
	q, err := Parse(text)
	if err != nil {
		return nil, nil, err
	}
	plan, err := Compile(q, cat)
	if err != nil {
		return nil, nil, err
	}
	var out []*tuple.Tuple
	err = plan.Execute(sources, func(t *tuple.Tuple) {
		if limit < 0 || len(out) < limit {
			out = append(out, t)
		}
	}, -1)
	if err != nil {
		return nil, nil, err
	}
	return out, plan, nil
}

// Compile analyzes and plans a parsed query.
func Compile(q *Query, cat *Catalog) (*Plan, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("query: FROM is required")
	}
	var streams []*boundStream
	offset := 0
	for _, fi := range q.From {
		sch, ok := cat.Lookup(fi.Stream)
		if !ok {
			return nil, fmt.Errorf("query: unknown stream %q", fi.Stream)
		}
		streams = append(streams, &boundStream{item: fi, schema: sch, offset: offset})
		offset += sch.Arity()
	}

	hasAggs := queryHasAggregates(q)
	switch {
	case len(q.From) == 2 && !hasAggs && len(q.GroupBy) == 0:
		return compileJoin(q, streams)
	case len(q.From) == 2:
		return nil, fmt.Errorf("query: aggregation over joins is not supported in one query; compose two queries")
	case hasAggs || len(q.GroupBy) > 0:
		return compileAggregate(q, streams)
	default:
		return compileSimple(q, streams)
	}
}

func queryHasAggregates(q *Query) bool {
	found := false
	var walk func(n Node)
	walk = func(n Node) {
		switch v := n.(type) {
		case *CallExpr:
			if _, err := agg.Lookup(v.Name, false); err == nil {
				found = true
				return
			}
			for _, a := range v.Args {
				walk(a)
			}
		case *BinExpr:
			walk(v.L)
			walk(v.R)
		case *NotExpr:
			walk(v.E)
		case *NegExpr:
			walk(v.E)
		case *IsNullExpr:
			walk(v.E)
		}
	}
	for _, it := range q.Select {
		if it.Expr != nil {
			walk(it.Expr)
		}
	}
	if q.Having != nil {
		walk(q.Having)
	}
	return found
}

// itemName derives an output column name.
func itemName(it SelectItem, i int) string {
	if it.As != "" {
		return it.As
	}
	if id, ok := it.Expr.(*Ident); ok {
		return id.Name
	}
	return fmt.Sprintf("col%d", i)
}

// compileSimple plans select/project queries (slide 29).
func compileSimple(q *Query, streams []*boundStream) (*Plan, error) {
	s := streams[0]
	b := &binder{streams: streams}
	var pred expr.Expr
	if q.Where != nil {
		e, err := b.bind(q.Where)
		if err != nil {
			return nil, err
		}
		if e.Kind() != tuple.KindBool {
			return nil, fmt.Errorf("query: WHERE must be boolean")
		}
		pred = e
	}
	if q.Having != nil {
		return nil, fmt.Errorf("query: HAVING without GROUP BY")
	}

	star := len(q.Select) == 1 && q.Select[0].Star
	var exprs []expr.Expr
	var fields []tuple.Field
	if !star {
		for i, it := range q.Select {
			if it.Star {
				return nil, fmt.Errorf("query: * must be the only select item")
			}
			e, err := b.bind(it.Expr)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, e)
			fields = append(fields, tuple.Field{Name: itemName(it, i), Kind: e.Kind()})
		}
	}
	var outSchema *tuple.Schema
	if star {
		outSchema = s.schema
	} else {
		outSchema = tuple.NewSchema("result", fields...)
	}

	plan := &Plan{Q: q, OutSchema: outSchema, Bounded: BoundedMemory{OK: true,
		Reasons: []string{"per-element operators only"}}, Streamable: true}
	if pred != nil {
		plan.steps = append(plan.steps, fmt.Sprintf("select %s", pred))
	}
	if !star {
		plan.steps = append(plan.steps, fmt.Sprintf("project %d columns", len(exprs)))
	}
	if q.Distinct {
		plan.steps = append(plan.steps, "duplicate-eliminate (windowed)")
	}
	winLen := int64(0)
	if s.item.HasWindow && s.item.Window.Kind == window.KindTime {
		winLen = s.item.Window.Range
	}

	plan.build = func(g *exec.Graph, sources map[string]stream.Source) error {
		chain, err := whereOps(s.schema, pred)
		if err != nil {
			return err
		}
		if !star {
			op, err := ops.NewProject("project", outSchema, exprs)
			if err != nil {
				return err
			}
			chain = append(chain, op)
		}
		if q.Distinct {
			keys := make([]int, outSchema.Arity())
			for i := range keys {
				keys[i] = i
			}
			chain = append(chain, ops.NewDupElim("distinct", outSchema, keys, winLen))
		}
		if len(chain) == 0 {
			// SELECT * FROM s with no predicates: pass through a no-op
			// filter so the graph has a node to connect.
			op, err := ops.NewSelect("pass", s.schema, expr.Constant(tuple.Bool(true)), 1, 1)
			if err != nil {
				return err
			}
			chain = append(chain, op)
		}
		return wireChain(g, sources, s.item.Stream, chain)
	}
	return plan, nil
}

// whereOps returns the head of an operator chain: the WHERE filter, or
// nothing without a predicate.
func whereOps(sch *tuple.Schema, pred expr.Expr) ([]ops.Operator, error) {
	if pred == nil {
		return nil, nil
	}
	op, err := ops.NewSelect("where", sch, pred, -1, 1)
	if err != nil {
		return nil, err
	}
	return []ops.Operator{op}, nil
}

// wireChain adds the named stream's source to g and connects it through
// each operator of chain, which must not be empty, in turn to the graph
// output.
func wireChain(g *exec.Graph, sources map[string]stream.Source, name string, chain []ops.Operator) error {
	src, ok := sources[name]
	if !ok {
		return fmt.Errorf("query: no source for stream %q", name)
	}
	last := g.AddOp(chain[0])
	if err := g.ConnectSource(g.AddSource(src), last, 0); err != nil {
		return err
	}
	for _, op := range chain[1:] {
		id := g.AddOp(op)
		if err := g.Connect(last, id, 0); err != nil {
			return err
		}
		last = id
	}
	return g.ConnectOut(last)
}

// groupItemName derives the output name of a GROUP BY item.
func groupItemName(gi GroupItem, i int) string {
	if gi.As != "" {
		return gi.As
	}
	if id, ok := gi.Expr.(*Ident); ok {
		return id.Name
	}
	return fmt.Sprintf("g%d", i)
}

// rewriteForOutput replaces aggregate calls and group expressions in a
// SELECT/HAVING AST with references to the aggregation output columns.
func rewriteForOutput(n Node, groups []GroupItem, groupNames []string, aggNames map[string]string) Node {
	// Whole-node matches first.
	r := Render(n)
	for i, gi := range groups {
		if Render(gi.Expr) == r {
			return &Ident{Name: groupNames[i]}
		}
		if id, ok := n.(*Ident); ok && id.Qualifier == "" && id.Name == groupNames[i] {
			return n
		}
	}
	if name, ok := aggNames[strings.ToLower(r)]; ok {
		if _, isCall := n.(*CallExpr); isCall {
			return &Ident{Name: name}
		}
	}
	switch v := n.(type) {
	case *BinExpr:
		return &BinExpr{Op: v.Op,
			L: rewriteForOutput(v.L, groups, groupNames, aggNames),
			R: rewriteForOutput(v.R, groups, groupNames, aggNames)}
	case *NotExpr:
		return &NotExpr{E: rewriteForOutput(v.E, groups, groupNames, aggNames)}
	case *NegExpr:
		return &NegExpr{E: rewriteForOutput(v.E, groups, groupNames, aggNames)}
	case *IsNullExpr:
		return &IsNullExpr{E: rewriteForOutput(v.E, groups, groupNames, aggNames), Negate: v.Negate}
	case *CallExpr:
		args := make([]Node, len(v.Args))
		for i, a := range v.Args {
			args[i] = rewriteForOutput(a, groups, groupNames, aggNames)
		}
		return &CallExpr{Name: v.Name, Args: args, Star: v.Star}
	}
	return n
}

// bindAggregate binds an aggregate query over its one stream s: the WHERE
// predicate (nil without one), the GroupBy over s's window, the binder
// holding the aggregate calls, and the output column name of each call.
// Compile plans through it, and so does Decompose.
func bindAggregate(q *Query, s *boundStream) (pred expr.Expr, gb *agg.GroupBy, aggBinder *binder, aggNames map[string]string, err error) {
	inputBinder := &binder{streams: []*boundStream{s}}
	if q.Where != nil {
		if pred, err = inputBinder.bind(q.Where); err != nil {
			return nil, nil, nil, nil, err
		}
		if pred.Kind() != tuple.KindBool {
			return nil, nil, nil, nil, fmt.Errorf("query: WHERE must be boolean")
		}
	}

	// Bind grouping expressions against the input.
	groupNames := make([]string, len(q.GroupBy))
	groupExprs := make([]expr.Expr, len(q.GroupBy))
	for i, gi := range q.GroupBy {
		e, err := inputBinder.bind(gi.Expr)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		groupExprs[i] = e
		groupNames[i] = groupItemName(gi, i)
	}

	// Collect aggregate calls from SELECT and HAVING. Only the calls are
	// bound here (their arguments reference the input schema); the
	// surrounding expressions are bound later against the aggregation
	// output, where grouping aliases like "tb" become real columns.
	aggBinder = &binder{streams: []*boundStream{s}, approx: q.Approx}
	for _, it := range q.Select {
		if it.Star {
			return nil, nil, nil, nil, fmt.Errorf("query: * is not valid with GROUP BY")
		}
		if err := collectAggs(it.Expr, aggBinder); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	if q.Having != nil {
		if err := collectAggs(q.Having, aggBinder); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	if len(aggBinder.aggSpecs) == 0 {
		return nil, nil, nil, nil, fmt.Errorf("query: GROUP BY without aggregates; use SELECT DISTINCT")
	}
	aggNames = make(map[string]string, len(aggBinder.aggCalls))
	for i, c := range aggBinder.aggCalls {
		aggNames[strings.ToLower(Render(c))] = aggBinder.aggNames[i]
	}

	// Window from the FROM item (time windows only for aggregation).
	spec := s.item.Window
	if spec.Kind == window.KindRows {
		return nil, nil, nil, nil, fmt.Errorf("query: row windows are not supported for aggregation")
	}

	havingBuilder := func(out *tuple.Schema) (expr.Expr, error) {
		if q.Having == nil {
			return nil, nil
		}
		rewritten := rewriteForOutput(q.Having, q.GroupBy, groupNames, aggNames)
		hb := &binder{streams: []*boundStream{{
			item:   FromItem{Stream: out.Name},
			schema: out,
		}}}
		return hb.bind(rewritten)
	}

	gb, err = agg.NewGroupBy("aggregate", s.schema, groupExprs, groupNames,
		aggBinder.aggSpecs, spec, havingBuilder)
	return pred, gb, aggBinder, aggNames, err
}

// compileAggregate plans windowed grouped aggregation (slides 34-38).
func compileAggregate(q *Query, streams []*boundStream) (*Plan, error) {
	s := streams[0]
	if q.Distinct {
		return nil, fmt.Errorf("query: DISTINCT with aggregation is not supported")
	}
	pred, gb, aggBinder, aggNames, err := bindAggregate(q, s)
	if err != nil {
		return nil, err
	}
	groupNames := make([]string, len(q.GroupBy))
	groupASTs := make([]Node, len(q.GroupBy))
	for i, gi := range q.GroupBy {
		groupNames[i] = groupItemName(gi, i)
		groupASTs[i] = gi.Expr
	}
	gbOut := gb.OutSchema()

	// Final projection: SELECT items over the aggregation output.
	outBinder := &binder{streams: []*boundStream{{
		item:   FromItem{Stream: gbOut.Name},
		schema: gbOut,
	}}}
	var exprs []expr.Expr
	var fields []tuple.Field
	for i, it := range q.Select {
		rewritten := rewriteForOutput(it.Expr, q.GroupBy, groupNames, aggNames)
		e, err := outBinder.bind(rewritten)
		if err != nil {
			return nil, fmt.Errorf("query: select item %d must be a grouping expression or aggregate: %w", i, err)
		}
		exprs = append(exprs, e)
		fields = append(fields, tuple.Field{Name: itemName(it, i), Kind: e.Kind()})
	}
	outSchema := tuple.NewSchema("result", fields...)

	plan := &Plan{
		Q:          q,
		OutSchema:  outSchema,
		Bounded:    analyzeBoundedMemory(q, streams, groupASTs, aggBinder.aggSpecs),
		Streamable: streamable(groupASTs, streams),
		IsAgg:      true,
	}
	if pred != nil {
		plan.steps = append(plan.steps, fmt.Sprintf("select %s", pred))
	}
	plan.steps = append(plan.steps,
		fmt.Sprintf("group-by %v window %s aggregates %d, %s", groupNames, s.item.Window, len(aggBinder.aggSpecs), gb.CloseStrategy()),
		"project result columns")

	plan.build = func(g *exec.Graph, sources map[string]stream.Source) error {
		chain, err := whereOps(s.schema, pred)
		if err != nil {
			return err
		}
		proj, err := ops.NewProject("project", outSchema, exprs)
		if err != nil {
			return err
		}
		return wireChain(g, sources, s.item.Stream, append(chain, gb, proj))
	}
	return plan, nil
}

// compileJoin plans binary windowed joins (slides 30-33), with
// single-side predicates pushed below the join.
func compileJoin(q *Query, streams []*boundStream) (*Plan, error) {
	left, right := streams[0], streams[1]
	if q.Distinct {
		return nil, fmt.Errorf("query: DISTINCT over joins is not supported")
	}
	lb := &binder{streams: []*boundStream{{item: left.item, schema: left.schema}}}
	rb := &binder{streams: []*boundStream{{item: right.item, schema: right.schema}}}
	both := &binder{streams: streams}

	var leftKey, rightKey []int
	var pushLeft, pushRight, residual []expr.Expr
	for _, conj := range conjuncts(q.Where) {
		// Equi-join conjunct?
		if be, ok := conj.(*BinExpr); ok && be.Op == "=" {
			lid, lok := be.L.(*Ident)
			rid, rok := be.R.(*Ident)
			if lok && rok {
				le, errL := lb.resolve(lid)
				re, errR := rb.resolve(rid)
				if errL == nil && errR == nil {
					leftKey = append(leftKey, le.(*expr.Col).Index)
					rightKey = append(rightKey, re.(*expr.Col).Index)
					continue
				}
				// Mirrored: right stream column = left stream column.
				le2, errL2 := lb.resolve(rid)
				re2, errR2 := rb.resolve(lid)
				if errL2 == nil && errR2 == nil {
					leftKey = append(leftKey, le2.(*expr.Col).Index)
					rightKey = append(rightKey, re2.(*expr.Col).Index)
					continue
				}
			}
		}
		// Single-side pushdown?
		if e, err := lb.bind(conj); err == nil {
			pushLeft = append(pushLeft, e)
			continue
		}
		if e, err := rb.bind(conj); err == nil {
			pushRight = append(pushRight, e)
			continue
		}
		e, err := both.bind(conj)
		if err != nil {
			return nil, err
		}
		residual = append(residual, e)
	}

	var residualPred expr.Expr
	for _, e := range residual {
		if residualPred == nil {
			residualPred = e
		} else {
			combined, err := expr.NewBin(expr.OpAnd, residualPred, e)
			if err != nil {
				return nil, err
			}
			residualPred = combined
		}
	}

	method := ops.JoinHash
	if len(leftKey) == 0 {
		method = ops.JoinNestedLoop
	}
	join, err := ops.NewWindowJoin("join", left.schema, right.schema,
		ops.JoinConfig{Window: left.item.Window, Method: method, Key: leftKey},
		ops.JoinConfig{Window: right.item.Window, Method: method, Key: rightKey},
		residualPred)
	if err != nil {
		return nil, err
	}
	joinOut := join.OutSchema()

	// Bind the select list against the concatenated row using the
	// two-stream binder (qualifier-aware), not the concat schema names.
	star := len(q.Select) == 1 && q.Select[0].Star
	var exprs []expr.Expr
	var fields []tuple.Field
	if !star {
		for i, it := range q.Select {
			if it.Star {
				return nil, fmt.Errorf("query: * must be the only select item")
			}
			e, err := both.bind(it.Expr)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, e)
			fields = append(fields, tuple.Field{Name: itemName(it, i), Kind: e.Kind()})
		}
	}
	outSchema := joinOut
	if !star {
		outSchema = tuple.NewSchema("result", fields...)
	}
	joinStep := fmt.Sprintf("window join on %d keys, windows %s / %s, %d pushdowns",
		len(leftKey), left.item.Window, right.item.Window, len(pushLeft)+len(pushRight))
	// A select list of plain columns folds into the join: it gathers
	// only those columns and the plan needs no Project node. A residual
	// reads the full concatenated row, so it keeps the Project.
	project := !star
	if project && residualPred == nil {
		if cols := expr.CompileCols(exprs); cols != nil {
			if err := join.FuseProject(outSchema, cols); err != nil {
				return nil, err
			}
			project = false
			joinStep += fmt.Sprintf(", emits %d of %d columns, project fused", len(cols), joinOut.Arity())
		}
	}

	plan := &Plan{
		Q:             q,
		OutSchema:     outSchema,
		IsJoin:        true,
		partitionable: join.CanPartition(),
		Bounded: BoundedMemory{
			OK: left.item.HasWindow && right.item.HasWindow,
			Reasons: []string{
				"join state is bounded iff both inputs carry windows (slide 30)"},
		},
		Streamable: true,
	}
	plan.steps = append(plan.steps, joinStep)
	if project {
		plan.steps = append(plan.steps, fmt.Sprintf("project %d columns", len(exprs)))
	}

	plan.build = func(g *exec.Graph, sources map[string]stream.Source) error {
		ls, ok := sources[left.item.Stream]
		if !ok {
			return fmt.Errorf("query: no source for stream %q", left.item.Stream)
		}
		rs, ok := sources[right.item.Stream]
		if !ok {
			return fmt.Errorf("query: no source for stream %q", right.item.Stream)
		}
		lsi := g.AddSource(ls)
		rsi := g.AddSource(rs)
		jid := g.AddOp(join)

		wire := func(si int, preds []expr.Expr, sch *tuple.Schema, port int) error {
			if len(preds) == 0 {
				return g.ConnectSource(si, jid, port)
			}
			var last exec.NodeID = -1
			for i, p := range preds {
				op, err := ops.NewSelect(fmt.Sprintf("push%d_%d", port, i), sch, p, -1, 1)
				if err != nil {
					return err
				}
				id := g.AddOp(op)
				if last < 0 {
					if err := g.ConnectSource(si, id, 0); err != nil {
						return err
					}
				} else if err := g.Connect(last, id, 0); err != nil {
					return err
				}
				last = id
			}
			return g.Connect(last, jid, port)
		}
		if err := wire(lsi, pushLeft, left.schema, 0); err != nil {
			return err
		}
		if err := wire(rsi, pushRight, right.schema, 1); err != nil {
			return err
		}
		last := jid
		if project {
			proj, err := ops.NewProject("project", outSchema, exprs)
			if err != nil {
				return err
			}
			pid := g.AddOp(proj)
			if err := g.Connect(last, pid, 0); err != nil {
				return err
			}
			last = pid
		}
		return g.ConnectOut(last)
	}
	return plan, nil
}

// collectAggs walks an AST registering every aggregate call with the
// binder without binding the surrounding expression.
func collectAggs(n Node, b *binder) error {
	switch v := n.(type) {
	case *CallExpr:
		if fn, err := agg.Lookup(v.Name, b.approx); err == nil {
			return b.bindAggCall(v, fn)
		}
		for _, a := range v.Args {
			if err := collectAggs(a, b); err != nil {
				return err
			}
		}
	case *BinExpr:
		if err := collectAggs(v.L, b); err != nil {
			return err
		}
		return collectAggs(v.R, b)
	case *NotExpr:
		return collectAggs(v.E, b)
	case *NegExpr:
		return collectAggs(v.E, b)
	case *IsNullExpr:
		return collectAggs(v.E, b)
	}
	return nil
}

// conjuncts flattens an AND tree.
func conjuncts(n Node) []Node {
	if n == nil {
		return nil
	}
	if be, ok := n.(*BinExpr); ok && be.Op == "AND" {
		return append(conjuncts(be.L), conjuncts(be.R)...)
	}
	return []Node{n}
}
