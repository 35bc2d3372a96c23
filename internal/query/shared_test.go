package query

import (
	"fmt"
	"testing"

	"streamdb/internal/exec"
	"streamdb/internal/optimizer/share"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

func trafficElems(n int) []stream.Element {
	elems := make([]stream.Element, 0, n)
	for i := 0; i < n; i++ {
		elems = append(elems, stream.Tup(trafficTuple(int64(i),
			uint32(i%7), uint32(i%3), uint64(6+(i%2)*11), uint64(i*100))))
	}
	return elems
}

func sharedRowSink(dst *[]string) share.Sinks {
	return share.Sinks{Row: func(e stream.Element) {
		if e.IsPunct() {
			return
		}
		*dst = append(*dst, fmt.Sprintf("%v", e.Tuple.Vals))
	}}
}

// Queries over the same stream merge into one shared fan-out node, and
// each query's output matches a standalone Run of the same text.
func TestSharedPlanMergesAndMatchesStandalone(t *testing.T) {
	cat := testCatalog()
	texts := []string{
		"select * from Traffic where length > 500",
		"select srcIP, length from Traffic where length > 500",
		"select srcIP from Traffic where protocol = 17",
		"select * from Traffic",
	}
	sp := NewSharedPlan(cat)
	got := make([][]string, len(texts))
	for i, text := range texts {
		if _, err := sp.Register(text, sharedRowSink(&got[i])); err != nil {
			t.Fatalf("register %q: %v", text, err)
		}
	}
	node := sp.Node("Traffic")
	if node == nil {
		t.Fatal("no shared node for Traffic")
	}
	// Two TRUE-predicate queries and two distinct WHEREs... the two
	// length>500 spellings share one kernel.
	if d := node.DistinctPredicates(); d != 3 {
		t.Errorf("distinct predicates = %d, want 3", d)
	}

	elems := trafficElems(30)
	g := exec.NewGraph(func(stream.Element) {})
	err := sp.Build(g, map[string]stream.Source{
		"Traffic": stream.FromElements(cat.schemas["Traffic"], elems...),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(-1)

	for i, text := range texts {
		rows, _, err := Run(text, cat,
			map[string]stream.Source{"Traffic": stream.FromElements(cat.schemas["Traffic"], elems...)}, -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatalf("standalone %q produced nothing; bad test data", text)
		}
		if len(rows) != len(got[i]) {
			t.Errorf("query %d: shared emitted %d rows, standalone %d", i, len(got[i]), len(rows))
			continue
		}
		for j, r := range rows {
			if want := fmt.Sprintf("%v", r.Vals); want != got[i][j] {
				t.Errorf("query %d row %d: shared %q, standalone %q", i, j, got[i][j], want)
				break
			}
		}
	}
}

// Register after Build attaches to the live node; Drop detaches without
// disturbing co-resident queries. The schedule runs through two doors,
// the serial loop pumped over a Queue and RunWith over a PushSource
// with a Flush at each boundary, and each query gets the same rows from
// both.
func TestSharedPlanRuntimeRegisterDrop(t *testing.T) {
	cat := testCatalog()
	sch := cat.schemas["Traffic"]
	elems := trafficElems(30)
	// A door wires sp into g and returns feed, which returns once what
	// it was given has been processed, and end, which ends the run.
	type door func(sp *SharedPlan, g *exec.Graph) (feed func([]stream.Element), end func())
	pump := func(sp *SharedPlan, g *exec.Graph) (func([]stream.Element), func()) {
		q := stream.NewQueue(sch)
		if err := sp.Build(g, map[string]stream.Source{"Traffic": q}); err != nil {
			t.Fatal(err)
		}
		return func(es []stream.Element) {
			for _, e := range es {
				q.Feed(e)
			}
			g.Pump(-1)
		}, g.Finish
	}
	push := func(sp *SharedPlan, g *exec.Graph) (func([]stream.Element), func()) {
		in := stream.NewPushSource(sch, 0)
		if err := sp.Build(g, map[string]stream.Source{"Traffic": in}); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			g.RunWith(-1, exec.RunOptions{Columnar: true, BatchSize: 256})
			in.Stop(g.Err())
		}()
		feed := func(es []stream.Element) {
			for _, e := range es {
				if err := in.Push(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := in.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		return feed, func() {
			in.End()
			<-done
		}
	}
	run := func(label string, through door) (resident, late []string) {
		sp := NewSharedPlan(cat)
		if _, err := sp.Register("select * from Traffic where length > 500", sharedRowSink(&resident)); err != nil {
			t.Fatal(err)
		}
		g := exec.NewGraph(func(stream.Element) {})
		feed, end := through(sp, g)
		feed(elems[:10])

		lateID, err := sp.Register("select * from Traffic where length > 500", sharedRowSink(&late))
		if err != nil {
			t.Fatal(err)
		}
		feed(elems[10:20])
		if len(late) != 10 {
			t.Errorf("%s: late query saw %d rows of its 10-row window", label, len(late))
		}
		if err := sp.Drop(lateID); err != nil {
			t.Fatal(err)
		}
		feed(elems[20:])
		end()
		if err := g.Err(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(late) != 10 {
			t.Errorf("%s: dropped query kept receiving: %d rows", label, len(late))
		}
		if len(resident) != 24 { // length > 500 passes ts 6..29
			t.Errorf("%s: co-resident query saw %d rows, want 24", label, len(resident))
		}
		if sp.Queries() != 1 {
			t.Errorf("%s: live queries = %d, want 1", label, sp.Queries())
		}

		// A stream never wired at Build time cannot join the running graph.
		var none []string
		if _, err := sp.Register("select * from S", sharedRowSink(&none)); err == nil {
			t.Errorf("%s: register on unwired stream after Build should fail", label)
		}
		return resident, late
	}
	pumpResident, pumpLate := run("pump", pump)
	pushResident, pushLate := run("push", push)
	if fmt.Sprint(pushResident) != fmt.Sprint(pumpResident) || fmt.Sprint(pushLate) != fmt.Sprint(pumpLate) {
		t.Errorf("push door diverges from pump\nresident: %v\nwant      %v\nlate: %v\nwant  %v",
			pushResident, pumpResident, pushLate, pumpLate)
	}
}

func TestSharedPlanRejectsUnshareable(t *testing.T) {
	cat := testCatalog()
	sp := NewSharedPlan(cat)
	for _, text := range []string{
		"select count(*) from Traffic",
		"select srcIP from Traffic group by srcIP",
		"select distinct srcIP from Traffic [range 60]",
		"select * from Traffic, S where Traffic.srcIP = S.srcIP",
		"select * from Nope",
	} {
		var sink []string
		if _, err := sp.Register(text, sharedRowSink(&sink)); err == nil {
			t.Errorf("%q should not be shareable", text)
		}
	}
	if err := sp.Drop(99); err == nil {
		t.Error("dropping unknown id should fail")
	}
}

// The columnar engine lane delivers borrowed batch views per query with
// projections applied, byte-identical to the row lane.
func TestSharedPlanColumnarLane(t *testing.T) {
	cat := testCatalog()
	elems := trafficElems(64)
	texts := []string{
		"select * from Traffic where length > 500",
		"select srcIP, length from Traffic where protocol = 6",
	}
	run := func(columnar bool) [][]string {
		sp := NewSharedPlan(cat)
		out := make([][]string, len(texts))
		for i, text := range texts {
			ii := i
			sinks := share.Sinks{Row: func(e stream.Element) {
				if !e.IsPunct() {
					out[ii] = append(out[ii], fmt.Sprintf("%v", e.Tuple.Vals))
				}
			}}
			if columnar {
				sinks.Col = func(b *stream.Batch) {
					n := b.N()
					row := tuple.Tuple{Vals: make([]tuple.Value, len(b.Cols))}
					for r := 0; r < n; r++ {
						pr := r
						if b.Sel != nil {
							pr = int(b.Sel[r])
						}
						b.GatherRow(pr, &row)
						out[ii] = append(out[ii], fmt.Sprintf("%v", row.Vals))
					}
				}
			}
			if _, err := sp.Register(text, sinks); err != nil {
				t.Fatal(err)
			}
		}
		g := exec.NewGraph(func(stream.Element) {})
		err := sp.Build(g, map[string]stream.Source{
			"Traffic": stream.FromElements(cat.schemas["Traffic"], elems...),
		})
		if err != nil {
			t.Fatal(err)
		}
		g.RunWith(-1, exec.RunOptions{Columnar: columnar, BatchSize: 16})
		return out
	}
	rowOut := run(false)
	colOut := run(true)
	for i := range texts {
		if len(rowOut[i]) == 0 {
			t.Fatalf("query %d produced nothing; bad test data", i)
		}
		if fmt.Sprint(rowOut[i]) != fmt.Sprint(colOut[i]) {
			t.Errorf("query %d: columnar lane diverges from row lane\nrow: %v\ncol: %v",
				i, rowOut[i], colOut[i])
		}
	}
}
