package streamdb

// The join door: every equijoin the front door runs must take the
// vectorized join core, whatever its key kind or width, and must say so
// in its counters — a span that silently falls back to the row path is
// exactly how a 10x gap hides. Each case runs on the serial Graph.Run
// oracle, then on the partitioned columnar lane at every width × batch
// size, then through Engine.QueryInto; rows must be byte-identical and
// the join node must report Batches > 0 and RowFallbacks == 0.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"streamdb/internal/exec"
	"streamdb/internal/stream"
)

// joinDoorCase is one join query over two streams.
type joinDoorCase struct {
	name    string
	sql     string
	schemas map[string]*Schema
	input   map[string][]Element
	// fused: the select list is plain columns and there is no residual,
	// so the planner folds the projection into the join.
	fused bool
}

// keyedElems builds n tuples (time, k, v) one microsecond apart, k
// drawn through key, with a progress punctuation every 64 tuples.
func keyedElems(seed int64, n int, key func(r *rand.Rand) Value) []Element {
	r := rand.New(rand.NewSource(seed))
	var out []Element
	for i := 0; i < n; i++ {
		ts := int64(i)*1000 + r.Int63n(1000)
		out = append(out, stream.Tup(NewTuple(ts, Time(ts), key(r), Int(int64(i)))))
		if i%64 == 63 {
			out = append(out, stream.Punct(stream.ProgressPunct(ts, 0, Time(ts))))
		}
	}
	return out
}

func keyedSchema(name string, k Kind) *Schema {
	return NewSchema(name,
		Field{Name: "time", Kind: KindTime, Ordering: true},
		Field{Name: "k", Kind: k},
		Field{Name: "v", Kind: KindInt})
}

func joinDoorCorpus() []joinDoorCase {
	// The benchmark's shape: Traffic ⋈ Other on an IP key, 250 µs
	// windows, 1e5 tuples per second of stream time.
	traffic := func(seed int64) []Element {
		return stream.Drain(stream.WithProgressPunctuation(stream.NewTrafficStream(seed, 1e5, 100), 100000), 1500)
	}
	two := map[string]*Schema{"Traffic": stream.TrafficSchema("Traffic"), "Other": stream.TrafficSchema("Other")}
	trafficIn := map[string][]Element{"Traffic": traffic(11), "Other": traffic(12)}

	keyed := func(lk, rk Kind, lkey, rkey func(r *rand.Rand) Value) (map[string]*Schema, map[string][]Element) {
		return map[string]*Schema{"L": keyedSchema("L", lk), "R": keyedSchema("R", rk)},
			map[string][]Element{"L": keyedElems(21, 1500, lkey), "R": keyedElems(22, 1500, rkey)}
	}
	intKey := func(r *rand.Rand) Value { return Int(r.Int63n(10)) }
	intSch, intIn := keyed(KindInt, KindInt, intKey, intKey)
	strKey := func(r *rand.Rand) Value { return Str(fmt.Sprintf("key-%d", r.Intn(10))) }
	strSch, strIn := keyed(KindString, KindString, strKey, strKey)
	floatSch, floatIn := keyed(KindFloat, KindInt, func(r *rand.Rand) Value { return Float(float64(r.Intn(10))) }, intKey)

	const keyedJoin = "from L [range 20000 ns], R [range 20000 ns] where L.k = R.k"
	return []joinDoorCase{
		{name: "ip key (benchmark shape)", schemas: two, input: trafficIn, fused: true,
			sql: "select T.srcIP, T.length as tlen, O.length as olen from Traffic [range 250000 ns] T, Other [range 250000 ns] O where T.srcIP = O.destIP"},
		{name: "two-column key", schemas: two, input: trafficIn, fused: true,
			sql: "select T.srcIP, O.length, T.protocol from Traffic [range 250000 ns] T, Other [range 250000 ns] O where T.srcIP = O.destIP and T.protocol = O.protocol"},
		{name: "int key", schemas: intSch, input: intIn, fused: true,
			sql: "select L.k, L.v, R.v as rv " + keyedJoin},
		{name: "string key", schemas: strSch, input: strIn, fused: true,
			sql: "select R.v, L.k, L.time " + keyedJoin},
		{name: "float = int key", schemas: floatSch, input: floatIn, fused: true,
			sql: "select L.k, R.k as rk, L.v, R.v as rv " + keyedJoin},
		{name: "residual keeps its project", schemas: two, input: trafficIn, fused: false,
			sql: "select T.srcIP, T.length as tlen, O.length as olen from Traffic [range 250000 ns] T, Other [range 250000 ns] O where T.srcIP = O.destIP and T.length < O.length"},
	}
}

// engine registers the case's schemas and binds fresh bulk sources.
func (c joinDoorCase) engine(t *testing.T) *Engine {
	t.Helper()
	eng := New()
	for name, sch := range c.schemas {
		eng.RegisterSchema(name, sch)
		if err := eng.SetSource(name, stream.FromElements(sch, c.input[name]...)); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// runGraph builds the case's plan into a graph and runs it serially
// (opts == nil) or on RunWith; it returns the rendered rows and the
// per-node counters.
func (c joinDoorCase) runGraph(t *testing.T, opts *exec.RunOptions) ([]string, *Plan, []exec.NamedStats) {
	t.Helper()
	eng := c.engine(t)
	plan, err := eng.Compile(c.sql)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var rows []string
	g := exec.NewGraph(func(e Element) {
		if !e.IsPunct() {
			rows = append(rows, e.Tuple.String())
		}
	})
	if err := plan.Build(g, eng.sources); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if opts == nil {
		g.Run(-1)
	} else {
		g.RunWith(-1, *opts)
	}
	if err := g.Err(); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return rows, plan, g.AllStats()
}

// checkJoinNode requires the join node to have run batched without a
// single row fallback, and a Project node exactly when not fused.
func (c joinDoorCase) checkJoinNode(t *testing.T, what string, stats []exec.NamedStats) {
	t.Helper()
	joins, projects := 0, 0
	for _, st := range stats {
		switch st.Op {
		case "join":
			joins++
			if st.Batches == 0 {
				t.Errorf("%s: join node saw no column batch", what)
			}
			if st.RowFallbacks != 0 {
				t.Errorf("%s: join node fell back to the row path %d times", what, st.RowFallbacks)
			}
		case "project":
			projects++
		}
	}
	if joins != 1 {
		t.Errorf("%s: %d join nodes, want 1", what, joins)
	}
	wantProjects := 1
	if c.fused {
		wantProjects = 0
	}
	if projects != wantProjects {
		t.Errorf("%s: %d project nodes, want %d", what, projects, wantProjects)
	}
}

func sameJoinRows(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, serial oracle %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: row %d is %s, serial oracle %s", what, i, got[i], want[i])
			return
		}
	}
}

// TestJoinDoorLaneMatrix: the partitioned columnar lane at P ∈ {1, 2, 4}
// × batch ∈ {1, 7, 256} reproduces the serial oracle for every key
// shape, with the join vectorized throughout.
func TestJoinDoorLaneMatrix(t *testing.T) {
	for _, c := range joinDoorCorpus() {
		want, plan, _ := c.runGraph(t, nil)
		if len(want) < 100 {
			t.Fatalf("%s: serial oracle gave %d rows, too few to check anything", c.name, len(want))
		}
		if fused := strings.Contains(plan.Explain(), "project fused"); fused != c.fused {
			t.Errorf("%s: Explain says fused=%v, want %v:\n%s", c.name, fused, c.fused, plan.Explain())
		}
		for _, p := range []int{1, 2, 4} {
			for _, bs := range []int{1, 7, 256} {
				what := fmt.Sprintf("%s P=%d batch=%d", c.name, p, bs)
				got, _, stats := c.runGraph(t, &exec.RunOptions{
					Columnar: true, BatchSize: bs, Parallelism: p, ForceParallelism: true, PartitionJoins: true})
				sameJoinRows(t, what, got, want)
				c.checkJoinNode(t, what, stats)
			}
		}
	}
}

// TestJoinDoorQueryInto: the same through the user's door, read back
// from Plan().Stats().
func TestJoinDoorQueryInto(t *testing.T) {
	for _, c := range joinDoorCorpus() {
		want, _, _ := c.runGraph(t, nil)
		var got []string
		plan, err := c.engine(t).QueryInto(c.sql, -1, func(r *Tuple) { got = append(got, r.String()) })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameJoinRows(t, c.name+" via QueryInto", got, want)
		c.checkJoinNode(t, c.name+" via QueryInto", plan.Stats())
	}
}
