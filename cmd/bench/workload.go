package main

import (
	"fmt"

	"streamdb/internal/agg"
	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// shape is the operator chain a workload's query plans to; the
// reference evaluator and the hand-built twins switch on it.
type shape int

const (
	shapeFilter shape = iota // select -> project
	shapeAgg                 // select -> group-by -> project
	shapeJoin                // window join -> project
)

// door is the user-facing entry point a workload drives.
type door int

const (
	doorQuery door = iota // streamdb.Engine.QueryInto over pull sources
	doorFeed              // streamdb.Engine.RegisterContinuous + Feed per tuple
	doorWire              // dsms.ReconnectWriter -> SessionSource -> exec.RunWith
)

// spec fixes one workload: its query, its input and the open-loop
// rates. Everything here is frozen so parent and change do identical
// work; see README.md for why each value was chosen.
type spec struct {
	name string
	why  string
	sql  string
	shape
	door

	slabLog2 int // tuples per stream slab
	addrPool int // distinct addresses the generator draws from

	refRate float64 // open-loop reference rate (rung x1), tuples/s over all streams
	limitUs float64 // p99 latency a rung must stay within

	// Predicate and window, repeated from sql for the twins and the
	// reference evaluator.
	tcpOnly    bool
	minLen     uint64
	rng, slide int64 // aggregate window; join window range (slide unused)
	avg        bool
}

const (
	cqSQL   = "select srcIP, count(*) as pkts, sum(length) as bytes from Traffic [range 0.1] where length > 512 group by srcIP"
	joinSQL = "select T.srcIP, T.length as tlen, O.length as olen from Traffic [range 250000 ns] T, Other [range 250000 ns] O where T.srcIP = O.destIP"
)

var specs = []spec{
	{
		name:  "gsql_filter",
		why:   "stateless GSQL filter through Engine.QueryInto: expr, ops.Select/Project and the serial exec loop do all the work; agg, joins and dsms are idle",
		sql:   "select srcIP, length from Traffic where protocol = 6 and length > 512",
		shape: shapeFilter, door: doorQuery,
		slabLog2: 18, addrPool: 1000,
		refRate: 500e3, limitUs: 1000,
		tcpOnly: true, minLen: 512,
	},
	{
		name:  "gsql_pane_agg",
		why:   "sliding grouped aggregate (10 panes per window, at most 1000 groups): agg and window dominate, the predicate is nearly free, so an expr speed-up should not show here",
		sql:   "select srcIP, count(*) as c, sum(length) as b, avg(length) as a from Traffic [range 1 slide 0.1] where length > 100 group by srcIP",
		shape: shapeAgg, door: doorQuery,
		slabLog2: 18, addrPool: 1000,
		refRate: 60e3, limitUs: 10000,
		minLen: 100, rng: stream.Second, slide: stream.Second / 10, avg: true,
	},
	{
		name:  "gsql_window_join",
		why:   "two-stream window equijoin sized so output rows are about the input rows: ops.WindowJoin insert, probe and expiry dominate; expr and agg are idle",
		sql:   joinSQL,
		shape: shapeJoin, door: doorQuery,
		slabLog2: 16, addrPool: 100000,
		refRate: 200e3, limitUs: 5000,
		rng: 250000,
	},
	{
		name:  "cq_feed",
		why:   "standing query fed one tuple per Feed with a Pump per arrival: the same layers as the gsql workloads used per tuple, so batching the front door cannot buy throughput with latency unseen",
		sql:   cqSQL,
		shape: shapeAgg, door: doorFeed,
		slabLog2: 18, addrPool: 1000,
		refRate: 500e3, limitUs: 5000,
		minLen: 512, rng: stream.Second / 10, slide: stream.Second / 10,
	},
	{
		name:  "wire_ingest",
		why:   "one TCP sender through the v3 batch wire into exec.RunWith columnar at parallelism 2: the tuple codec, dsms and the concurrent lanes work and the serial front door is not on the path",
		sql:   cqSQL,
		shape: shapeAgg, door: doorWire,
		slabLog2: 18, addrPool: 1000,
		refRate: 150e3, limitUs: 150000,
		minLen: 512, rng: stream.Second / 10, slide: stream.Second / 10,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// streams names the FROM streams in port order.
func (s *spec) streams() []string {
	if s.shape == shapeJoin {
		return []string{"Traffic", "Other"}
	}
	return []string{"Traffic"}
}

// genRate is the generator's own arrival rate per stream: the closed
// loop replays these timestamps, so windows see 1e5 tuples per second
// of stream time.
const genRate = 1e5

// slab is one stream's input, generated once and replayed so timed
// sections measure the engine and not the generator.
type slab struct {
	sch    *tuple.Schema
	tuples []*tuple.Tuple
	elems  []stream.Element
	orig   []int64 // generator timestamps, to undo open-loop re-stamping
	mem    []byte  // the off-heap mapping tuples and elems live in
}

func newSlab(name string, seed int64, n, addrPool int) *slab {
	gen := stream.NewTrafficStream(seed, genRate, addrPool)
	s := &slab{sch: stream.TrafficSchema(name), orig: make([]int64, n)}
	s.tuples, s.elems, s.mem = offHeap(n, s.sch.Arity())
	for i := range s.tuples {
		e, _ := gen.Next() // the generator is unbounded
		t := s.tuples[i]
		t.Ts = e.Tuple.Ts
		for c, v := range e.Tuple.Vals {
			if v.Kind == tuple.KindString {
				panic("bench: off-heap slab cannot hold string values")
			}
			t.Vals[c] = v
		}
		s.orig[i] = t.Ts
	}
	return s
}

// stamp overwrites tuple i's timestamp and ordering attribute with its
// scheduled creation time, so a result's Ts gives its latency.
func (s *slab) stamp(i int, ts int64) *tuple.Tuple {
	t := s.tuples[i]
	t.Ts = ts
	t.Vals[0] = tuple.Time(ts)
	return t
}

func (s *slab) restore() {
	for i, ts := range s.orig {
		s.stamp(i, ts)
	}
}

// Column positions in Traffic(time, srcIP, destIP, protocol, length).
const (
	colSrc   = 1
	colDst   = 2
	colProto = 3
	colLen   = 4
)

// twin is a hand-built copy of the operators the planner wires for a
// spec's query, so the harness can drive each layer through its public
// Push/ProcessBatch surface. Operators hold state: build one per pass.
type twin struct {
	sel  *ops.Select
	gb   *agg.GroupBy
	join *ops.WindowJoin
	proj *ops.Project
}

func (s *spec) predicate(sch *tuple.Schema) (expr.Expr, error) {
	pred, err := expr.NewBin(expr.OpGt, expr.MustColumn(sch, "length"), expr.Constant(tuple.Int(int64(s.minLen))))
	if err != nil || !s.tcpOnly {
		return pred, err
	}
	tcp, err := expr.NewBin(expr.OpEq, expr.MustColumn(sch, "protocol"), expr.Constant(tuple.Int(6)))
	if err != nil {
		return nil, err
	}
	return expr.NewBin(expr.OpAnd, tcp, pred)
}

func (s *spec) newTwin() (*twin, error) {
	in := stream.TrafficSchema("Traffic")
	tw := &twin{}
	var projIn *tuple.Schema
	var names []string
	switch s.shape {
	case shapeFilter:
		projIn, names = in, []string{"srcIP", "length"}
	case shapeAgg:
		aggs := []agg.Spec{{Name: "n"}, {Name: "total", Arg: expr.MustColumn(in, "length")}}
		fns := []string{"count", "sum"}
		if s.avg {
			aggs = append(aggs, agg.Spec{Name: "mean", Arg: expr.MustColumn(in, "length")})
			fns = append(fns, "avg")
		}
		names = []string{"srcIP"}
		for i, fn := range fns {
			f, err := agg.Lookup(fn, false)
			if err != nil {
				return nil, err
			}
			aggs[i].Fn = f
			names = append(names, aggs[i].Name)
		}
		gb, err := agg.NewGroupBy("aggregate", in, []expr.Expr{expr.MustColumn(in, "srcIP")},
			[]string{"srcIP"}, aggs, window.Time(s.rng, s.slide), nil)
		if err != nil {
			return nil, err
		}
		tw.gb, projIn = gb, gb.OutSchema()
	case shapeJoin:
		w := window.Time(s.rng, s.rng)
		j, err := ops.NewWindowJoin("join", in, stream.TrafficSchema("Other"),
			ops.JoinConfig{Window: w, Method: ops.JoinHash, Key: []int{colSrc}},
			ops.JoinConfig{Window: w, Method: ops.JoinHash, Key: []int{colDst}}, nil)
		if err != nil {
			return nil, err
		}
		tw.join, projIn = j, j.OutSchema()
		names = []string{"srcIP", "length", "Other.length"}
	}
	if s.shape != shapeJoin {
		pred, err := s.predicate(in)
		if err != nil {
			return nil, err
		}
		if tw.sel, err = ops.NewSelect("where", in, pred, -1, 1); err != nil {
			return nil, err
		}
	}
	exprs := make([]expr.Expr, len(names))
	fields := make([]tuple.Field, len(names))
	for i, n := range names {
		c, err := expr.Column(projIn, n)
		if err != nil {
			return nil, err
		}
		exprs[i] = c
		fields[i] = tuple.Field{Name: fmt.Sprintf("c%d", i), Kind: c.Kind()}
	}
	var err error
	tw.proj, err = ops.NewProject("project", tuple.NewSchema("result", fields...), exprs)
	return tw, err
}
