package expr

// The fast lane must be exactly EvalBool: every compiled predicate is
// checked against the generic evaluator over a grid of operators,
// column/literal kind pairs, and adversarial tuples (NULLs, runtime
// kinds deviating from the schema, short tuples, extreme values).

import (
	"fmt"
	"math"
	"testing"

	"streamdb/internal/tuple"
)

var fastSch = tuple.NewSchema("F",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "i", Kind: tuple.KindInt},
	tuple.Field{Name: "u", Kind: tuple.KindUint},
	tuple.Field{Name: "f", Kind: tuple.KindFloat},
)

// fastTuples is the adversarial tuple grid: ordinary values, boundary
// values, NULLs in each column, runtime kinds that deviate from the
// schema (the fast lane must fall back), and a short tuple.
func fastTuples() []*tuple.Tuple {
	mk := func(vals ...tuple.Value) *tuple.Tuple { return tuple.New(0, vals...) }
	return []*tuple.Tuple{
		mk(tuple.Time(5), tuple.Int(7), tuple.Uint(7), tuple.Float(7)),
		mk(tuple.Time(10), tuple.Int(-3), tuple.Uint(0), tuple.Float(-3.5)),
		mk(tuple.Time(0), tuple.Int(math.MaxInt64), tuple.Uint(math.MaxUint64), tuple.Float(math.Inf(1))),
		mk(tuple.Time(0), tuple.Int(math.MinInt64), tuple.Uint(1), tuple.Float(math.Inf(-1))),
		mk(tuple.Time(0), tuple.Int(0), tuple.Uint(1<<63), tuple.Float(math.NaN())),
		mk(tuple.Time(3), tuple.Null, tuple.Uint(9), tuple.Float(1)),
		mk(tuple.Time(3), tuple.Int(9), tuple.Null, tuple.Null),
		// Runtime kind deviates from schema: int column holds a float, etc.
		mk(tuple.Time(3), tuple.Float(9.5), tuple.Int(-2), tuple.Uint(4)),
		mk(tuple.Time(3), tuple.Uint(12), tuple.Time(4), tuple.Int(4)),
		// Negative time bits: the generic comparator treats TIME raw
		// bits as unsigned in integral compares but signed via AsFloat.
		mk(tuple.Time(-4), tuple.Int(2), tuple.Uint(2), tuple.Float(2)),
	}
}

func fastLits() []tuple.Value {
	return []tuple.Value{
		tuple.Int(7), tuple.Int(-3), tuple.Int(0),
		tuple.Int(math.MaxInt64), tuple.Int(math.MinInt64),
		tuple.Uint(7), tuple.Uint(math.MaxUint64), tuple.Uint(1 << 63),
		tuple.Float(7), tuple.Float(-3.5), tuple.Float(0.5),
		tuple.Float(math.Inf(1)), tuple.Float(math.NaN()),
		tuple.Time(5), tuple.Time(-7),
	}
}

var cmpOps = []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}

func TestCompilePredicateMatchesEvalBool(t *testing.T) {
	cols := []string{"time", "i", "u", "f"}
	tuples := fastTuples()
	compiled := 0
	for _, cn := range cols {
		for _, lit := range fastLits() {
			for _, op := range cmpOps {
				for _, flip := range []bool{false, true} {
					var l, r Expr
					if flip {
						l, r = Constant(lit), MustColumn(fastSch, cn)
					} else {
						l, r = MustColumn(fastSch, cn), Constant(lit)
					}
					e, err := NewBin(op, l, r)
					if err != nil {
						t.Fatal(err)
					}
					p := CompilePredicate(e)
					if p == nil {
						continue // shape has no fast lane: nothing to verify
					}
					compiled++
					for ti, tp := range tuples {
						want := EvalBool(e, tp)
						if got := p(tp); got != want {
							t.Errorf("%s %v lit=%s flip=%v tuple#%d: fast=%v generic=%v",
								cn, op, lit, flip, ti, got, want)
						}
					}
				}
			}
		}
	}
	if compiled == 0 {
		t.Fatal("no predicate compiled: fast lane is dead")
	}
	t.Logf("verified %d compiled shapes against EvalBool", compiled)
}

func TestCompilePredicateBooleanComposition(t *testing.T) {
	cmp := func(cn string, op BinOp, lit tuple.Value) Expr {
		e, err := NewBin(op, MustColumn(fastSch, cn), Constant(lit))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	parts := []Expr{
		cmp("i", OpGt, tuple.Int(0)),
		cmp("u", OpLe, tuple.Uint(7)),
		cmp("f", OpNe, tuple.Float(7)),
		cmp("time", OpGe, tuple.Time(3)),
	}
	var exprs []Expr
	for i := range parts {
		for j := range parts {
			and, err := NewBin(OpAnd, parts[i], parts[j])
			if err != nil {
				t.Fatal(err)
			}
			or, err := NewBin(OpOr, parts[i], parts[j])
			if err != nil {
				t.Fatal(err)
			}
			nested, err := NewBin(OpAnd, and, or)
			if err != nil {
				t.Fatal(err)
			}
			exprs = append(exprs, and, or, nested, &Not{E: parts[i]})
		}
	}
	for ei, e := range exprs {
		p := CompilePredicate(e)
		if p == nil {
			// NOT of non-raw shapes may be skipped; AND/OR of compiled
			// parts must not be.
			if b, ok := e.(*Bin); ok && (b.Op == OpAnd || b.Op == OpOr) {
				t.Errorf("expr %d: AND/OR of compilable parts did not compile", ei)
			}
			continue
		}
		for ti, tp := range fastTuples() {
			want := EvalBool(e, tp)
			if got := p(tp); got != want {
				t.Errorf("expr %d tuple#%d: fast=%v generic=%v", ei, ti, got, want)
			}
		}
	}
}

func TestCompilePredicateRejectsUnknownShapes(t *testing.T) {
	colPlus, err := NewBin(OpAdd, MustColumn(fastSch, "i"), Constant(tuple.Int(1)))
	if err != nil {
		t.Fatal(err)
	}
	notConst, err := NewBin(OpGt, colPlus, Constant(tuple.Int(3)))
	if err != nil {
		t.Fatal(err)
	}
	colCol, err := NewBin(OpEq, MustColumn(fastSch, "i"), MustColumn(fastSch, "u"))
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]Expr{
		"arith-left": notConst,
		"col-col":    colCol,
	} {
		if CompilePredicate(e) != nil {
			t.Errorf("%s: expected no fast lane (semantics not specialized)", name)
		}
	}
}

func TestCompilePredicateNegativeLitAgainstUint(t *testing.T) {
	// uint column vs negative literal has no uint64 representation; the
	// compiler must defer to the generic path rather than wrap.
	e, err := NewBin(OpGt, MustColumn(fastSch, "u"), Constant(tuple.Int(-1)))
	if err != nil {
		t.Fatal(err)
	}
	p := CompilePredicate(e)
	tp := tuple.New(0, tuple.Time(0), tuple.Int(0), tuple.Uint(5), tuple.Float(0))
	want := EvalBool(e, tp)
	if p != nil && p(tp) != want {
		t.Errorf("uint > -1: fast=%v generic=%v", p(tp), want)
	}
	if !want {
		t.Error("sanity: 5 > -1 must be true under the generic evaluator")
	}
}

// CompileCols must return exactly the Col indices for all-column key
// lists (reproducing Col.Eval as t.Vals[idx[i]]) and refuse the fast
// lane the moment any key is computed.
func TestCompileCols(t *testing.T) {
	cols := []Expr{MustColumn(fastSch, "i"), MustColumn(fastSch, "f"), MustColumn(fastSch, "time")}
	idx := CompileCols(cols)
	if len(idx) != len(cols) {
		t.Fatalf("CompileCols returned %d indices, want %d", len(idx), len(cols))
	}
	tp := tuple.New(0, tuple.Time(5), tuple.Int(7), tuple.Uint(9), tuple.Float(2.5))
	for i, e := range cols {
		want := e.Eval(tp)
		if got := tp.Vals[idx[i]]; got.Kind != want.Kind || !got.Equal(want) {
			t.Errorf("key %d: t.Vals[%d] = %v, Eval = %v", i, idx[i], got, want)
		}
	}
	arith, err := NewBin(OpAdd, MustColumn(fastSch, "i"), Constant(tuple.Int(1)))
	if err != nil {
		t.Fatal(err)
	}
	if CompileCols([]Expr{MustColumn(fastSch, "i"), arith}) != nil {
		t.Error("computed key expression must disable the fast lane")
	}
	if CompileCols(nil) != nil || CompileCols([]Expr{}) != nil {
		t.Error("empty key list has no fast lane")
	}
}

func BenchmarkPredicateFastVsGeneric(b *testing.B) {
	gt, err := NewBin(OpGt, MustColumn(fastSch, "u"), Constant(tuple.Uint(512)))
	if err != nil {
		b.Fatal(err)
	}
	eq, err := NewBin(OpEq, MustColumn(fastSch, "i"), Constant(tuple.Int(6)))
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewBin(OpAnd, gt, eq)
	if err != nil {
		b.Fatal(err)
	}
	tuples := make([]*tuple.Tuple, 1024)
	for i := range tuples {
		tuples[i] = tuple.New(int64(i), tuple.Time(int64(i)), tuple.Int(int64(i%12)),
			tuple.Uint(uint64(i%1500)), tuple.Float(float64(i)))
	}
	p := CompilePredicate(e)
	if p == nil {
		b.Fatal("predicate did not compile")
	}
	b.Run("generic", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			if EvalBool(e, tuples[i%len(tuples)]) {
				n++
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			if p(tuples[i%len(tuples)]) {
				n++
			}
		}
	})
}

var _ = fmt.Sprintf
