package streamdb

// The pull front door (Engine.Query, Engine.QueryInto, query.Run) has
// one executor, query.Plan.Execute, which picks the engine lane from
// what the bound sources can do. These tests pin that rule and that
// the lanes are indistinguishable by their output.

import (
	"strings"
	"sync"
	"testing"

	"streamdb/internal/stream"
)

// blocking hides a source's bulk capability: all the engine may assume
// of the result is a Next that can block.
func blocking(src stream.Source) stream.Source {
	return &stream.FuncSource{Sch: src.Schema(), Fn: src.Next}
}

// bulk leaves a source as it is.
func bulk(src stream.Source) stream.Source { return src }

// doorCase is one query with the input elements of each stream it reads.
type doorCase struct {
	name    string
	sql     string
	schemas map[string]*Schema
	input   map[string][]Element
	// serialOnly: the plan cannot keep the serial order on the batched
	// engine, so bulk sources must not move it there.
	serialOnly bool
}

// trafficElems drains n generated Traffic tuples (1000 per second of
// stream time over 20 addresses) with a progress punctuation every
// quarter second, so windows close mid-stream on both lanes.
func trafficElems(seed int64, n int) []Element {
	gen := stream.WithProgressPunctuation(stream.NewTrafficStream(seed, 1000, 20), Second/4)
	return stream.Drain(gen, n)
}

func doorCorpus() []doorCase {
	traffic := map[string]*Schema{"Traffic": stream.TrafficSchema("Traffic")}
	two := map[string]*Schema{"Traffic": stream.TrafficSchema("Traffic"), "Other": stream.TrafficSchema("Other")}
	tIn := map[string][]Element{"Traffic": trafficElems(1, 4000)}
	joinIn := map[string][]Element{"Traffic": trafficElems(2, 1500), "Other": trafficElems(3, 1500)}

	bids := NewSchema("Bids",
		Field{Name: "time", Kind: KindTime, Ordering: true},
		Field{Name: "auction", Kind: KindInt},
		Field{Name: "bid", Kind: KindFloat},
	)
	var bidIn []Element
	for i := int64(0); i < 600; i++ {
		bidIn = append(bidIn, stream.Tup(NewTuple(i, Time(i), Int(i%7+i/100*7), Float(float64(i%13)))))
		if i%100 == 99 { // the seven auctions of this round close
			for a := int64(0); a < 7; a++ {
				bidIn = append(bidIn, stream.Punct(stream.EndGroupPunct(i, 1, Int(a+i/100*7))))
			}
		}
	}

	return []doorCase{
		{name: "filter", schemas: traffic, input: tIn,
			sql: "select srcIP, length from Traffic where protocol = 6 and length > 512"},
		{name: "pass-through", schemas: traffic, input: tIn,
			sql: "select * from Traffic"},
		{name: "computed projection", schemas: traffic, input: tIn,
			sql: "select srcIP, length * 8 as bits, length + 40 from Traffic where length > 100"},
		{name: "tumbling group-by having", schemas: traffic, input: tIn,
			sql: "select srcIP, count(*) as c, sum(length) as b from Traffic [range 1] group by srcIP having count(*) > 40"},
		{name: "sliding group-by having", schemas: traffic, input: tIn,
			sql: "select srcIP, count(*) as c, avg(length) as a, max(length) from Traffic [range 1 slide 0.25] where length > 100 group by srcIP having sum(length) > 20000"},
		{name: "unwindowed group-by", schemas: traffic, input: tIn,
			sql: "select protocol, count(*), min(length) from Traffic group by protocol"},
		{name: "distinct", schemas: traffic, input: tIn,
			sql: "select distinct srcIP, protocol from Traffic [range 1]"},
		{name: "window join", schemas: two, input: joinIn,
			sql: "select T.srcIP, T.length as tlen, O.length as olen from Traffic [range 0.05] T, Other [range 0.05] O where T.srcIP = O.destIP"},
		{name: "window join with pushdown and residual", schemas: two, input: joinIn,
			sql: "select T.time as tt, O.time as ot, T.srcIP from Traffic [range 0.05] T, Other [range 0.05] O where T.srcIP = O.destIP and T.length > 300 and O.protocol = 6 and T.length < O.length"},
		{name: "punctuated groups", schemas: map[string]*Schema{"Bids": bids}, input: map[string][]Element{"Bids": bidIn},
			sql: "select auction, max(bid) as winning, count(*) from Bids [punctuated] group by auction"},
		{name: "band join", schemas: two, input: joinIn, serialOnly: true,
			sql: "select T.length as tlen, O.length as olen from Traffic [range 0.002] T, Other [range 0.002] O where T.length < O.length and T.length > 1400"},
		{name: "self join", schemas: traffic, input: tIn, serialOnly: true,
			sql: "select A.srcIP, B.length from Traffic [range 0.01] A, Traffic [range 0.01] B where A.srcIP = B.destIP"},
	}
}

// run executes c over fresh sources, wrapped by wrap, and reports the
// rendered result rows and whether the batched lane ran.
func (c doorCase) run(t *testing.T, wrap func(stream.Source) stream.Source, maxElements int64) (rows []string, res *Result, batched bool) {
	t.Helper()
	eng := New()
	for name, sch := range c.schemas {
		eng.RegisterSchema(name, sch)
		if err := eng.SetSource(name, wrap(stream.FromElements(sch, c.input[name]...))); err != nil {
			t.Fatal(err)
		}
	}
	var plan *Plan
	var err error
	if maxElements < 0 {
		if res, err = eng.Query(c.sql); err == nil {
			plan = res.Plan
			for _, r := range res.Rows {
				rows = append(rows, r.String())
			}
		}
	} else {
		plan, err = eng.QueryInto(c.sql, maxElements, func(r *Tuple) { rows = append(rows, r.String()) })
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	for _, st := range plan.Stats() {
		if st.Batches > 0 {
			batched = true
		}
	}
	return rows, res, batched
}

func sameRows(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows on the batched lane, %d per arrival", what, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: row %d is %s on the batched lane, %s per arrival", what, i, got[i], want[i])
			return
		}
	}
}

// Bulk sources take the batched columnar engine, sources whose Next may
// block take the per-arrival loop, and nobody can tell from the rows.
func TestFrontDoorLaneEquivalence(t *testing.T) {
	for _, c := range doorCorpus() {
		bulkRows, bulkRes, batched := c.run(t, bulk, -1)
		pullRows, _, pullBatched := c.run(t, blocking, -1)
		if len(pullRows) == 0 {
			t.Errorf("%s: no result rows, the case checks nothing", c.name)
		}
		if batched == c.serialOnly {
			t.Errorf("%s: bulk sources ran batched=%v, want %v", c.name, batched, !c.serialOnly)
		}
		if pullBatched {
			t.Errorf("%s: a source that may block ran on the batched lane, which holds elements until a read returns", c.name)
		}
		sameRows(t, c.name, bulkRows, pullRows)

		// Result rows are heap rows: another query's pooled batches do not
		// show through them.
		c.run(t, bulk, -1)
		for i, r := range bulkRes.Rows {
			if r.String() != bulkRows[i] {
				t.Errorf("%s: row %d read %s before a second query ran and %s after", c.name, i, bulkRows[i], r)
				break
			}
		}
	}
}

// maxElements means one thing on both lanes: source elements consumed,
// counted across all sources in arrival order.
func TestFrontDoorElementBudget(t *testing.T) {
	corpus := doorCorpus()
	for _, c := range corpus[:8] {
		for _, budget := range []int64{0, 1, 255, 256, 257, 1000} {
			bulkRows, _, batched := c.run(t, bulk, budget)
			pullRows, _, _ := c.run(t, blocking, budget)
			if multi := len(c.schemas) > 1; batched == multi && budget > 0 {
				t.Errorf("%s budget %d: ran batched=%v: a budget over several sources needs the serial merge", c.name, budget, batched)
			}
			sameRows(t, c.name, bulkRows, pullRows)
		}
	}
	// The budget counts punctuations too, so a pass-through of 1000
	// elements yields exactly the tuples among the first 1000.
	want := 0
	for _, e := range corpus[1].input["Traffic"][:1000] {
		if !e.IsPunct() {
			want++
		}
	}
	if rows, _, _ := corpus[1].run(t, blocking, 1000); len(rows) != want {
		t.Errorf("budget 1000 over the pass-through gave %d rows, want %d", len(rows), want)
	}
}

// A failing operator must surface as the query's error, not as a short
// result: the tuple below is one value short of its schema, and the
// predicate reads the missing column.
func TestFrontDoorReportsNodeFailure(t *testing.T) {
	sch := trafficSchema()
	var rows []*Tuple
	for i := int64(0); i < 100; i++ {
		rows = append(rows, NewTuple(i, Time(i), IP(uint32(i%4)), Uint(uint64(100+i))))
	}
	rows[60] = NewTuple(60, Time(60), IP(1))
	for lane, wrap := range map[string]func(stream.Source) stream.Source{
		"batched":     bulk,
		"per-arrival": blocking,
	} {
		eng := New()
		eng.RegisterSchema("Traffic", sch)
		if err := eng.SetSource("Traffic", wrap(FromTuples(sch, rows...))); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query("select srcIP from Traffic where length > 0")
		if err == nil {
			t.Errorf("%s: Query returned %d rows and no error over a tuple that crashes the filter", lane, len(res.Rows))
		} else if !strings.Contains(err.Error(), "panicked") {
			t.Errorf("%s: error %q does not name the failure", lane, err)
		}
		if err := eng.SetSource("Traffic", wrap(FromTuples(sch, rows...))); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.QueryInto("select srcIP from Traffic where length > 0", -1, func(*Tuple) {}); err == nil {
			t.Errorf("%s: QueryInto swallowed the failure", lane)
		}
	}
}

// The sink may run on an engine goroutine, but never concurrently with
// itself, and its last call happens before QueryInto returns: the
// unsynchronized counter below is race-clean and complete.
func TestFrontDoorSinkIsSerial(t *testing.T) {
	c := doorCorpus()[1]
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := New()
			eng.RegisterSchema("Traffic", c.schemas["Traffic"])
			if err := eng.SetSource("Traffic", stream.FromElements(c.schemas["Traffic"], c.input["Traffic"]...)); err != nil {
				t.Error(err)
				return
			}
			n, want := 0, 0
			for _, e := range c.input["Traffic"] {
				if !e.IsPunct() {
					want++
				}
			}
			if _, err := eng.QueryInto(c.sql, -1, func(*Tuple) { n++ }); err != nil {
				t.Error(err)
			}
			if n != want {
				t.Errorf("sink counted %d rows when QueryInto returned, want %d", n, want)
			}
		}()
	}
	wg.Wait()
}
