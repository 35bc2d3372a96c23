package query

import (
	"strings"
	"testing"

	"streamdb/internal/exec"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

func TestParseLiterals(t *testing.T) {
	q, err := Parse("select * from Traffic where flag = true or flag = false or x is null or y is not null")
	if err != nil {
		t.Fatal(err)
	}
	r := Render(q.Where)
	for _, want := range []string{"true", "false", "IS NULL", "IS NOT NULL"} {
		if !strings.Contains(r, want) {
			t.Errorf("rendering %q missing %q", r, want)
		}
	}
	q2, err := Parse("select -x, 2.5, 'str', f() from Traffic")
	if err != nil {
		t.Fatal(err)
	}
	if got := Render(q2.Select[0].Expr); got != "-x" {
		t.Errorf("neg = %q", got)
	}
	if got := Render(q2.Select[1].Expr); got != "2.5" {
		t.Errorf("float = %q", got)
	}
	if got := Render(q2.Select[2].Expr); got != "'str'" {
		t.Errorf("string = %q", got)
	}
	if got := Render(q2.Select[3].Expr); got != "f()" {
		t.Errorf("empty call = %q", got)
	}
}

func TestParseNullComparisonAndModulo(t *testing.T) {
	q, err := Parse("select a % 2 from Traffic where b <> null")
	if err != nil {
		t.Fatal(err)
	}
	if got := Render(q.Select[0].Expr); got != "(a % 2)" {
		t.Errorf("modulo = %q", got)
	}
	if got := Render(q.Where); got != "(b <> NULL)" {
		t.Errorf("null cmp = %q", got)
	}
}

func TestParseQualifiedStar(t *testing.T) {
	// count(*) renders with the star.
	q, err := Parse("select count(*) from Traffic")
	if err != nil {
		t.Fatal(err)
	}
	if got := Render(q.Select[0].Expr); got != "count(*)" {
		t.Errorf("agg star = %q", got)
	}
}

func TestParseMoreErrors(t *testing.T) {
	bad := []string{
		"select a from Traffic where a is",      // IS without NULL
		"select a from Traffic where a is not",  // IS NOT without NULL
		"select x. from Traffic",                // dangling qualifier
		"select (a from Traffic",                // unclosed paren
		"select a as from Traffic",              // AS without ident
		"select a from Traffic [landmark]",      // LANDMARK without SLIDE
		"select a from Traffic [range ten]",     // non-numeric duration
		"select a from Traffic [rows ten]",      // non-numeric rows
		"select a from Traffic [bogus 1]",       // unknown window kind
		"select a from Traffic group by a as",   // GROUP alias missing
		"select a from Traffic with",            // WITH without APPROX
		"select f(a, from Traffic",              // broken args
		"select a from Traffic, S as",           // join alias missing
		"select null + 1 from Traffic where -x", // ok parse; binder later
	}
	for _, src := range bad[:13] {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseDurationUnits(t *testing.T) {
	q, err := Parse("select * from Traffic [range 100 ns slide 50 ns]")
	if err != nil {
		t.Fatal(err)
	}
	if q.From[0].Window.Range != 100 || q.From[0].Window.Slide != 50 {
		t.Errorf("ns window = %+v", q.From[0].Window)
	}
	q2, err := Parse("select * from Traffic [range 1 minute]")
	if err != nil {
		t.Fatal(err)
	}
	if q2.From[0].Window.Range != 60*stream.Second {
		t.Errorf("minute window = %+v", q2.From[0].Window)
	}
}

func TestCompileScalarFunctionInWhere(t *testing.T) {
	cat := testCatalog()
	// Functions, negation, IS NULL, modulo through the binder.
	src := stream.FromTuples(cat.schemas["Traffic"],
		trafficTuple(1, 1, 2, 6, 100),
		trafficTuple(2, 2, 2, 6, 200),
	)
	rows, _, err := Run(
		"select -length as neg, length % 3 as m from Traffic where tb(time, 1000) is not null and not (length < 50)",
		cat, map[string]stream.Source{"Traffic": src}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if v, _ := rows[0].Vals[0].AsInt(); v != -100 {
		t.Errorf("neg = %d", v)
	}
	if v, _ := rows[0].Vals[1].AsInt(); v != 1 {
		t.Errorf("mod = %d", v)
	}
}

func TestCompileBinderErrors(t *testing.T) {
	cat := testCatalog()
	bad := []string{
		"select nosuch(length) from Traffic",                // unknown function
		"select length from Traffic where not length",       // NOT non-boolean
		"select length from Traffic where length + 'x' = 1", // type error
		"select count(length, srcIP) from Traffic",          // agg arity
		"select count(nosuchcol) from Traffic",              // agg arg binding
		"select 1.5e from Traffic",                          // lexer/parse error
		"select median(*) from Traffic group by protocol",   // * needs count
	}
	for _, src := range bad {
		q, err := Parse(src)
		if err != nil {
			continue
		}
		if _, err := Compile(q, cat); err == nil {
			t.Errorf("compiled %q", src)
		}
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	cat := testCatalog()
	sSch, _ := cat.Lookup("S")
	aSch, _ := cat.Lookup("A")
	mk := func(ts int64, ip uint32, port uint64) *tuple.Tuple {
		return tuple.New(ts, tuple.Time(ts), tuple.IP(ip), tuple.Uint(port))
	}
	syn := stream.FromTuples(sSch, mk(1, 10, 80), mk(2, 11, 90))
	ack := stream.FromTuples(aSch, mk(3, 10, 81), mk(4, 11, 85))
	// Cross-stream non-equi conjunct becomes a residual predicate.
	rows, plan, err := Run(
		`select S.tstmp from S [range 30], A [range 30]
		 where S.srcIP = A.destIP and A.destPort > S.srcPort`,
		cat, map[string]stream.Source{"S": syn, "A": ack}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.IsJoin {
		t.Error("not a join plan")
	}
	// Pair (10,80)x(10,81): 81 > 80 ok. Pair (11,90)x(11,85): 85 > 90 no.
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	// The residual reads the full concatenated row, so the projection
	// stays a step of its own.
	if ex := plan.Explain(); !strings.Contains(ex, "project 1 columns") || strings.Contains(ex, "fused") {
		t.Errorf("residual join must keep its project step: %s", ex)
	}
}

func TestJoinThetaWithoutKeys(t *testing.T) {
	cat := testCatalog()
	sSch, _ := cat.Lookup("S")
	aSch, _ := cat.Lookup("A")
	mk := func(ts int64, ip uint32, port uint64) *tuple.Tuple {
		return tuple.New(ts, tuple.Time(ts), tuple.IP(ip), tuple.Uint(port))
	}
	syn := stream.FromTuples(sSch, mk(1, 10, 80))
	ack := stream.FromTuples(aSch, mk(2, 10, 443), mk(3, 10, 10))
	// No equality conjunct at all: pure theta join via nested loops.
	rows, _, err := Run(
		`select S.tstmp from S [range 30], A [range 30]
		 where A.destPort > S.srcPort`,
		cat, map[string]stream.Source{"S": syn, "A": ack}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("theta join rows = %v", rows)
	}
}

func TestJoinSelectStar(t *testing.T) {
	cat := testCatalog()
	sSch, _ := cat.Lookup("S")
	aSch, _ := cat.Lookup("A")
	mk := func(ts int64, ip uint32, port uint64) *tuple.Tuple {
		return tuple.New(ts, tuple.Time(ts), tuple.IP(ip), tuple.Uint(port))
	}
	syn := stream.FromTuples(sSch, mk(1, 10, 80))
	ack := stream.FromTuples(aSch, mk(2, 10, 80))
	rows, plan, err := Run(
		`select * from S [range 30], A [range 30] where S.srcIP = A.destIP`,
		cat, map[string]stream.Source{"S": syn, "A": ack}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Vals) != sSch.Arity()+aSch.Arity() {
		t.Fatalf("star join rows = %v", rows)
	}
	if plan.OutSchema.Arity() != 6 {
		t.Errorf("star join schema = %s", plan.OutSchema)
	}
}

func TestJoinUnboundedWindowsFlaggedUnbounded(t *testing.T) {
	cat := testCatalog()
	q, err := Parse("select * from S, A where S.srcIP = A.destIP")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bounded.OK {
		t.Error("windowless join judged bounded")
	}
}

func TestCollectBoundsMirroredConstants(t *testing.T) {
	cat := testCatalog()
	// Constants on the left side of the comparison.
	q, err := Parse("select length, count(*) from Traffic where 512 < length and 1024 > length group by length")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Bounded.OK {
		t.Errorf("mirrored range not detected: %v", plan.Bounded)
	}
	// Equality bounds a column too.
	q2, _ := Parse("select length, count(*) from Traffic where length = 700 group by length")
	plan2, err := Compile(q2, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !plan2.Bounded.OK {
		t.Errorf("equality not detected: %v", plan2.Bounded)
	}
}

func TestBoundedAnalysisModuloAndGroupExpr(t *testing.T) {
	cat := testCatalog()
	// length % 16 is bounded for any length.
	q, err := Parse("select m, count(*) from Traffic group by length % 16 as m")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Bounded.OK {
		t.Errorf("modulo grouping not bounded: %v", plan.Bounded)
	}
}

func TestHavingWithNotAndFunctions(t *testing.T) {
	cat := testCatalog()
	var tuples []*tuple.Tuple
	for i := int64(0); i < 10; i++ {
		tuples = append(tuples, trafficTuple(i, uint32(i%2), 9, 6, 100))
	}
	src := stream.FromTuples(cat.schemas["Traffic"], tuples...)
	rows, _, err := Run(
		"select srcIP, count(*) as c from Traffic group by srcIP having not (count(*) < 5)",
		cat, map[string]stream.Source{"Traffic": src}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestQueryLimit(t *testing.T) {
	cat := testCatalog()
	var tuples []*tuple.Tuple
	for i := int64(0); i < 100; i++ {
		tuples = append(tuples, trafficTuple(i, 1, 2, 6, 100))
	}
	src := stream.FromTuples(cat.schemas["Traffic"], tuples...)
	rows, _, err := Run("select * from Traffic", cat,
		map[string]stream.Source{"Traffic": src}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Errorf("limit gave %d rows", len(rows))
	}
}

func TestJoinMissingSources(t *testing.T) {
	cat := testCatalog()
	q, _ := Parse("select * from S, A where S.srcIP = A.destIP")
	plan, err := Compile(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	sSch, _ := cat.Lookup("S")
	for _, srcs := range []map[string]stream.Source{
		{},
		{"S": stream.FromTuples(sSch)},
	} {
		g := newTestGraph()
		if err := plan.Build(g, srcs); err == nil {
			t.Error("missing source accepted")
		}
	}
}

func TestAggregateMissingSource(t *testing.T) {
	cat := testCatalog()
	q, _ := Parse("select count(*) from Traffic")
	plan, err := Compile(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Build(newTestGraph(), nil); err == nil {
		t.Error("missing source accepted")
	}
}

func newTestGraph() *exec.Graph { return exec.NewGraph(nil) }
