package query

import (
	"reflect"
	"strings"
	"testing"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

func testCatalog() *Catalog {
	cat := NewCatalog()
	cat.Register("Traffic", tuple.NewSchema("Traffic",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "srcIP", Kind: tuple.KindIP},
		tuple.Field{Name: "destIP", Kind: tuple.KindIP},
		tuple.Field{Name: "protocol", Kind: tuple.KindUint, Bounded: true},
		tuple.Field{Name: "length", Kind: tuple.KindUint},
	))
	cat.Register("S", tuple.NewSchema("S",
		tuple.Field{Name: "tstmp", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "srcIP", Kind: tuple.KindIP},
		tuple.Field{Name: "srcPort", Kind: tuple.KindUint},
	))
	cat.Register("A", tuple.NewSchema("A",
		tuple.Field{Name: "tstmp", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "destIP", Kind: tuple.KindIP},
		tuple.Field{Name: "destPort", Kind: tuple.KindUint},
	))
	return cat
}

func trafficTuple(ts int64, src, dst uint32, proto, length uint64) *tuple.Tuple {
	return tuple.New(ts,
		tuple.Time(ts), tuple.IP(src), tuple.IP(dst), tuple.Uint(proto), tuple.Uint(length))
}

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT x, time/60 AS tb FROM s [RANGE 60] WHERE y >= 1.5 AND name = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF")
	}
	// The escaped string must be unescaped.
	found := false
	for _, tk := range toks {
		if tk.kind == tokString && tk.text == "it's" {
			found = true
		}
	}
	if !found {
		t.Error("string escape broken")
	}
	if _, err := lex("a ; b"); err == nil {
		t.Error("bad character accepted")
	}
	if _, err := lex("'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
}

func TestParseSlide13Query(t *testing.T) {
	// The GSQL example of slide 13.
	q, err := Parse(`select tb, srcIP, sum(length) from Traffic [range 60 seconds]
		where protocol = 6 group by time/60 as tb, srcIP having count(*) > 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 3 || len(q.GroupBy) != 2 || q.Having == nil {
		t.Fatalf("parsed shape: %+v", q)
	}
	if q.GroupBy[0].As != "tb" {
		t.Errorf("group alias = %q", q.GroupBy[0].As)
	}
	if !q.From[0].HasWindow || q.From[0].Window.Range != 60*stream.Second {
		t.Errorf("window = %+v", q.From[0].Window)
	}
}

func TestParseWindows(t *testing.T) {
	cases := map[string]window.Spec{
		"select * from Traffic [rows 100]":                 window.Rows(100),
		"select * from Traffic [range 60]":                 window.Tumbling(60 * stream.Second),
		"select * from Traffic [range 60 slide 10]":        window.Time(60*stream.Second, 10*stream.Second),
		"select * from Traffic [range 500 ms]":             window.Tumbling(stream.Second / 2),
		"select * from Traffic [range 2 minutes]":          window.Tumbling(120 * stream.Second),
		"select * from Traffic [landmark slide 5 seconds]": window.Landmark(5 * stream.Second),
		"select * from Traffic [unbounded]":                {},
	}
	for src, want := range cases {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if !reflect.DeepEqual(q.From[0].Window, want) {
			t.Errorf("%s: window = %+v, want %+v", src, q.From[0].Window, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select * from",
		"select * from Traffic [range 0]",
		"select * from Traffic [range 10 slide 60]",
		"select * from Traffic where",
		"select * from A, S, Traffic",
		"select a from Traffic group by",
		"select count(* from Traffic",
		"select * from Traffic [rows -1]",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	q, err := Parse("select a + b * c - d from Traffic")
	if err != nil {
		t.Fatal(err)
	}
	// (a + (b*c)) - d
	if got := Render(q.Select[0].Expr); got != "((a + (b * c)) - d)" {
		t.Errorf("precedence rendering = %q", got)
	}
	q2, _ := Parse("select * from Traffic where not a = 1 or b = 2 and c = 3")
	want := "(NOT (a = 1) OR ((b = 2) AND (c = 3)))"
	if got := Render(q2.Where); got != want {
		t.Errorf("boolean precedence = %q, want %q", got, want)
	}
}

func TestRunSimpleSelect(t *testing.T) {
	cat := testCatalog()
	src := stream.FromTuples(cat.schemas["Traffic"],
		trafficTuple(1, 1, 2, 6, 100),
		trafficTuple(2, 3, 4, 17, 800),
		trafficTuple(3, 5, 6, 6, 900),
	)
	rows, plan, err := Run(
		"select srcIP, length from Traffic where protocol = 6 and length > 512",
		cat, map[string]stream.Source{"Traffic": src}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if v, _ := rows[0].Vals[1].AsUint(); v != 900 {
		t.Errorf("length = %d", v)
	}
	if plan.OutSchema.Arity() != 2 || plan.OutSchema.Fields[0].Name != "srcIP" {
		t.Errorf("schema = %s", plan.OutSchema)
	}
	if !strings.Contains(plan.Explain(), "select") {
		t.Error("explain missing selection")
	}
}

func TestRunSelectStar(t *testing.T) {
	cat := testCatalog()
	src := stream.FromTuples(cat.schemas["Traffic"], trafficTuple(1, 1, 2, 6, 100))
	rows, plan, err := Run("select * from Traffic", cat,
		map[string]stream.Source{"Traffic": src}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Vals) != 5 {
		t.Fatalf("rows = %v", rows)
	}
	if plan.OutSchema.Name != "Traffic" {
		t.Errorf("schema = %s", plan.OutSchema)
	}
}

func TestRunDistinct(t *testing.T) {
	cat := testCatalog()
	src := stream.FromTuples(cat.schemas["Traffic"],
		trafficTuple(1, 1, 2, 6, 700),
		trafficTuple(2, 1, 2, 6, 700),
		trafficTuple(3, 9, 2, 6, 700),
	)
	rows, _, err := Run("select distinct srcIP from Traffic where length > 512",
		cat, map[string]stream.Source{"Traffic": src}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("distinct rows = %d, want 2", len(rows))
	}
}

func TestRunAggregateQuery(t *testing.T) {
	cat := testCatalog()
	// Two tumbling 60s windows of traffic.
	var tuples []*tuple.Tuple
	for i := int64(0); i < 10; i++ {
		tuples = append(tuples, trafficTuple(i*stream.Second, uint32(i%2), 9, 6, 100))
	}
	tuples = append(tuples, trafficTuple(61*stream.Second, 0, 9, 6, 500))
	src := stream.FromTuples(cat.schemas["Traffic"], tuples...)
	rows, plan, err := Run(
		"select srcIP, count(*) as cnt, sum(length) as bytes from Traffic [range 60] group by srcIP",
		cat, map[string]stream.Source{"Traffic": src}, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Window 1: srcIP 0 (5 tuples) and 1 (5 tuples); window 2: srcIP 0 (1).
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if c, _ := rows[0].Vals[1].AsInt(); c != 5 {
		t.Errorf("first count = %d", c)
	}
	if b, _ := rows[2].Vals[2].AsFloat(); b != 500 {
		t.Errorf("second window bytes = %v", b)
	}
	if !plan.IsAgg {
		t.Error("plan not marked aggregate")
	}
}

func TestRunSlide13HavingQuery(t *testing.T) {
	cat := testCatalog()
	var tuples []*tuple.Tuple
	// srcIP 1: 7 packets; srcIP 2: 3 packets, all in one minute bucket.
	for i := int64(0); i < 7; i++ {
		tuples = append(tuples, trafficTuple(i*stream.Second, 1, 9, 6, 100))
	}
	for i := int64(0); i < 3; i++ {
		tuples = append(tuples, trafficTuple((10+i)*stream.Second, 2, 9, 6, 100))
	}
	src := stream.FromTuples(cat.schemas["Traffic"], tuples...)
	rows, _, err := Run(
		`select tb, srcIP, sum(length) as bytes from Traffic [range 60]
		 where protocol = 6 group by time/60000000000 as tb, srcIP having count(*) > 5`,
		cat, map[string]stream.Source{"Traffic": src}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1 (only srcIP 1 exceeds 5)", len(rows))
	}
	if ip, _ := rows[0].Vals[1].AsUint(); ip != 1 {
		t.Errorf("srcIP = %d", ip)
	}
	if b, _ := rows[0].Vals[2].AsFloat(); b != 700 {
		t.Errorf("bytes = %v", b)
	}
}

func TestRunJoinQuery(t *testing.T) {
	cat := testCatalog()
	sSch, _ := cat.Lookup("S")
	aSch, _ := cat.Lookup("A")
	mkS := func(ts int64, ip uint32, port uint64) *tuple.Tuple {
		return tuple.New(ts, tuple.Time(ts), tuple.IP(ip), tuple.Uint(port))
	}
	mkA := func(ts int64, ip uint32, port uint64) *tuple.Tuple {
		return tuple.New(ts, tuple.Time(ts), tuple.IP(ip), tuple.Uint(port))
	}
	syn := stream.FromTuples(sSch,
		mkS(1*stream.Second, 10, 80),
		mkS(2*stream.Second, 11, 443),
	)
	ack := stream.FromTuples(aSch,
		mkA(3*stream.Second, 10, 80),  // matches first syn: rtt 2s
		mkA(4*stream.Second, 12, 443), // no match
	)
	// The slide-13 RTT query shape.
	rows, plan, err := Run(
		`select S.tstmp, A.tstmp - S.tstmp as rtt from S [range 30], A [range 30]
		 where S.srcIP = A.destIP and S.srcPort = A.destPort`,
		cat, map[string]stream.Source{"S": syn, "A": ack}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.IsJoin {
		t.Error("plan not marked join")
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rtt, _ := rows[0].Vals[1].AsInt(); rtt != 2*stream.Second {
		t.Errorf("rtt = %d", rtt)
	}
	// A computed select item cannot fold into the join's column map.
	if ex := plan.Explain(); !strings.Contains(ex, "project 2 columns") || strings.Contains(ex, "fused") {
		t.Errorf("computed projection must stay a project step: %s", ex)
	}
}

func TestJoinPushdown(t *testing.T) {
	cat := testCatalog()
	q, err := Parse(`select * from S [range 30], A [range 30]
		where S.srcIP = A.destIP and S.srcPort > 1024 and A.destPort < 80`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "2 pushdowns") {
		t.Errorf("pushdowns missing: %s", plan.Explain())
	}
	if strings.Contains(plan.Explain(), "project") {
		t.Errorf("select * needs no projection: %s", plan.Explain())
	}

	// A select list of plain columns with no residual folds into the join.
	q, err = Parse(`select S.srcIP, A.destPort, S.tstmp from S [range 30], A [range 30]
		where S.srcIP = A.destIP and S.srcPort > 1024`)
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = Compile(q, cat); err != nil {
		t.Fatal(err)
	}
	ex := plan.Explain()
	if !strings.Contains(ex, "1 pushdowns, emits 3 of 6 columns, project fused") {
		t.Errorf("fused projection not named on the join step: %s", ex)
	}
	if strings.Contains(ex, "project 3 columns") {
		t.Errorf("fused plan still lists a project step: %s", ex)
	}
}

// The group-by step names how a window's result is produced at close.
func TestExplainCloseStrategy(t *testing.T) {
	cat := testCatalog()
	cases := map[string]string{
		"select srcIP, count(*) as c, sum(length) as b, avg(length) as a from Traffic [range 1 slide 0.1] where length > 100 group by srcIP": "close: running window",
		"select srcIP, max(length) from Traffic [range 1 slide 0.1] group by srcIP":                                                          "close: full fold",
		"select srcIP, sum(length) from Traffic [range 1] group by srcIP":                                                                    "close: tumbling pane",
		"select srcIP, median(length) from Traffic [range 1 slide 0.1] group by srcIP":                                                       "legacy per-window",
	}
	for src, want := range cases {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Compile(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		ex := plan.Explain()
		var step string
		for _, line := range strings.Split(ex, "\n") {
			if strings.Contains(line, "group-by") {
				step = line
			}
		}
		if !strings.HasSuffix(step, ", "+want) {
			t.Errorf("%s: group-by step %q, want it to end with %q", src, step, want)
		}
	}
}

func TestBoundedMemoryAnalysisSlide36(t *testing.T) {
	cat := testCatalog()
	// First slide-36 query: group by length with only a lower bound —
	// unbounded memory.
	q1, err := Parse("select length, count(*) from Traffic [range 60] where length > 512 group by length")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Compile(q1, cat)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Bounded.OK {
		t.Errorf("q1 should be unbounded: %v", p1.Bounded)
	}
	// Second slide-36 query: two-sided range — bounded.
	q2, err := Parse("select length, count(*) from Traffic [range 60] where length > 512 and length < 1024 group by length")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(q2, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Bounded.OK {
		t.Errorf("q2 should be bounded: %v", p2.Bounded)
	}
	// Grouping on a Bounded-flagged column is bounded.
	q3, _ := Parse("select protocol, count(*) from Traffic [range 60] group by protocol")
	p3, err := Compile(q3, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !p3.Bounded.OK {
		t.Errorf("q3 should be bounded: %v", p3.Bounded)
	}
	// Exact holistic aggregate: unbounded; WITH APPROX: bounded.
	q4, _ := Parse("select protocol, median(length) from Traffic [range 60] group by protocol")
	p4, err := Compile(q4, cat)
	if err != nil {
		t.Fatal(err)
	}
	if p4.Bounded.OK {
		t.Error("exact median should be unbounded")
	}
	q5, _ := Parse("select protocol, median(length) from Traffic [range 60] group by protocol with approx")
	p5, err := Compile(q5, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !p5.Bounded.OK {
		t.Errorf("approx median should be bounded: %v", p5.Bounded)
	}
}

func TestStreamableAnalysis(t *testing.T) {
	cat := testCatalog()
	// Grouping includes time bucketing: streamable [JMS95].
	q1, _ := Parse("select tb, count(*) from Traffic group by time/60 as tb")
	p1, err := Compile(q1, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Streamable {
		t.Error("time-bucketed aggregate should be streamable")
	}
	q2, _ := Parse("select srcIP, count(*) from Traffic group by srcIP")
	p2, err := Compile(q2, cat)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Streamable {
		t.Error("srcIP grouping should not be streamable")
	}
}

func TestCompileErrors(t *testing.T) {
	cat := testCatalog()
	bad := []string{
		"select * from Nope",
		"select nosuchcol from Traffic",
		"select srcIP from S, A where S.srcIP = A.destIP group by srcIP",
		"select count(*) from Traffic [rows 10]",
		"select length from Traffic group by length",              // no aggregates
		"select median(length, 2) from Traffic group by protocol", // arity
		"select sum(*) from Traffic",
		"select * from Traffic group by srcIP",
		"select srcIP from Traffic having count(*) > 1",
		"select distinct srcIP, count(*) from Traffic group by srcIP",
		"select length from Traffic where count(*) > 1",
		"select srcPort from S, A where S.srcIP = A.destIP and srcPort > 1", // srcPort unambiguous but fine... keep valid ones out
	}
	for _, src := range bad[:11] {
		q, err := Parse(src)
		if err != nil {
			continue // parse-time rejection also acceptable
		}
		if _, err := Compile(q, cat); err == nil {
			t.Errorf("compiled %q", src)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	cat := NewCatalog()
	cat.Register("X", tuple.NewSchema("X",
		tuple.Field{Name: "t", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindInt}))
	cat.Register("Y", tuple.NewSchema("Y",
		tuple.Field{Name: "t", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindInt}))
	q, err := Parse("select k from X, Y where X.k = Y.k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(q, cat); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column accepted: %v", err)
	}
}

func TestRunApproxAggregate(t *testing.T) {
	cat := testCatalog()
	var tuples []*tuple.Tuple
	for i := int64(0); i < 1000; i++ {
		tuples = append(tuples, trafficTuple(i, 1, 2, 6, uint64(i%100)))
	}
	src := stream.FromTuples(cat.schemas["Traffic"], tuples...)
	rows, _, err := Run(
		"select protocol, count_distinct(length) as d from Traffic group by protocol with approx",
		cat, map[string]stream.Source{"Traffic": src}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	d, _ := rows[0].Vals[1].AsInt()
	if d < 60 || d > 160 {
		t.Errorf("approx distinct = %d, want ~100", d)
	}
}

func TestAggregateExpressionOverAggregates(t *testing.T) {
	cat := testCatalog()
	var tuples []*tuple.Tuple
	for i := int64(0); i < 4; i++ {
		tuples = append(tuples, trafficTuple(i, 1, 2, 6, 100))
	}
	src := stream.FromTuples(cat.schemas["Traffic"], tuples...)
	// Arithmetic over aggregate results in the SELECT list.
	rows, _, err := Run(
		"select sum(length) / count(*) as avg_len from Traffic group by protocol",
		cat, map[string]stream.Source{"Traffic": src}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if v, _ := rows[0].Vals[0].AsFloat(); v != 100 {
		t.Errorf("avg_len = %v", v)
	}
}
