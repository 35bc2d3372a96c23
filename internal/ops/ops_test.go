package ops

import (
	"testing"

	"streamdb/internal/expr"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

var trafficSch = tuple.NewSchema("Traffic",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "srcIP", Kind: tuple.KindIP},
	tuple.Field{Name: "length", Kind: tuple.KindUint},
)

func traffic(ts int64, src uint32, length uint64) stream.Element {
	return stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.IP(src), tuple.Uint(length)))
}

// collect runs elements through an operator (single input) and returns outputs.
func collect(op Operator, elems ...stream.Element) []stream.Element {
	var out []stream.Element
	emit := func(e stream.Element) { out = append(out, e) }
	for _, e := range elems {
		op.Push(0, e, emit)
	}
	op.Flush(emit)
	return out
}

func TestSelectFilters(t *testing.T) {
	pred, _ := expr.NewBin(expr.OpGt, expr.MustColumn(trafficSch, "length"), expr.Constant(tuple.Int(512)))
	sel, err := NewSelect("sel", trafficSch, pred, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := collect(sel, traffic(1, 1, 100), traffic(2, 2, 600), traffic(3, 3, 513))
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if s := sel.Selectivity(); s < 0.6 || s > 0.7 {
		t.Errorf("observed selectivity = %v, want 2/3", s)
	}
	if sel.UnitCost() != 1 || sel.NumInputs() != 1 || sel.MemSize() <= 0 {
		t.Error("metadata broken")
	}
}

func TestSelectDeclaredSelectivityAndPunct(t *testing.T) {
	pred := expr.Constant(tuple.Bool(false))
	sel, _ := NewSelect("sel", trafficSch, pred, 0.25, 2)
	if sel.Selectivity() != 0.25 || sel.UnitCost() != 2 {
		t.Error("declared cost/selectivity not honored")
	}
	p := stream.Punct(stream.ProgressPunct(5, 0, tuple.Time(5)))
	out := collect(sel, traffic(1, 1, 1), p)
	if len(out) != 1 || !out[0].IsPunct() {
		t.Errorf("punctuation did not pass: %v", out)
	}
}

func TestSelectRejectsNonBoolean(t *testing.T) {
	if _, err := NewSelect("bad", trafficSch, expr.MustColumn(trafficSch, "length"), -1, 1); err == nil {
		t.Error("non-boolean predicate accepted")
	}
}

func TestProjectComputesExpressions(t *testing.T) {
	out := tuple.NewSchema("Out",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "kb", Kind: tuple.KindInt},
	)
	div, _ := expr.NewBin(expr.OpDiv, expr.MustColumn(trafficSch, "length"), expr.Constant(tuple.Int(1024)))
	proj, err := NewProject("proj", out, []expr.Expr{expr.MustColumn(trafficSch, "time"), div})
	if err != nil {
		t.Fatal(err)
	}
	res := collect(proj, traffic(1, 1, 2048))
	if len(res) != 1 {
		t.Fatalf("res = %v", res)
	}
	if v, _ := res[0].Tuple.Vals[1].AsInt(); v != 2 {
		t.Errorf("kb = %d", v)
	}
	if proj.OutSchema() != out {
		t.Error("schema mismatch")
	}
}

func TestProjectValidatesArityAndTypes(t *testing.T) {
	out := tuple.NewSchema("Out", tuple.Field{Name: "x", Kind: tuple.KindInt})
	if _, err := NewProject("p", out, nil); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := NewProject("p", out, []expr.Expr{expr.Constant(tuple.String("s"))}); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestProjectForwardsProgressPunct(t *testing.T) {
	out := tuple.NewSchema("Out", tuple.Field{Name: "len", Kind: tuple.KindUint})
	proj, _ := NewProject("p", out, []expr.Expr{expr.MustColumn(trafficSch, "length")})
	res := collect(proj, stream.Punct(stream.ProgressPunct(9, 0, tuple.Time(9))))
	if len(res) != 1 || !res[0].IsPunct() || res[0].Ts() != 9 {
		t.Errorf("res = %v", res)
	}
}

func TestDupElimWindowed(t *testing.T) {
	d := NewDupElim("dist", trafficSch, []int{2}, 10)
	out := collect(d,
		traffic(1, 1, 500), traffic(2, 2, 500), traffic(3, 3, 700), // 500 dup at ts=2
		traffic(12, 4, 500), // new window: 500 allowed again
	)
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	if d.MemSize() <= 64 {
		t.Error("MemSize does not track state")
	}
}

func TestDupElimUnbounded(t *testing.T) {
	d := NewDupElim("dist", trafficSch, []int{2}, 0)
	out := collect(d, traffic(1, 1, 500), traffic(1000, 2, 500))
	if len(out) != 1 {
		t.Errorf("unbounded distinct emitted %d", len(out))
	}
}

func TestUnionPassesTuples(t *testing.T) {
	u := NewUnion("u", trafficSch)
	var out []stream.Element
	emit := func(e stream.Element) { out = append(out, e) }
	u.Push(0, traffic(1, 1, 1), emit)
	u.Push(1, traffic(2, 2, 2), emit)
	u.Push(0, stream.Punct(stream.ProgressPunct(3, 0, tuple.Time(3))), emit)
	u.Flush(emit)
	if len(out) != 2 {
		t.Errorf("union out = %v", out)
	}
	if u.NumInputs() != 2 {
		t.Error("NumInputs != 2")
	}
}

// joinSchemas returns the two-stream schemas of slide 30's example.
func joinSchemas() (*tuple.Schema, *tuple.Schema) {
	a := tuple.NewSchema("A",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "destIP", Kind: tuple.KindIP},
	)
	b := tuple.NewSchema("B",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "destIP", Kind: tuple.KindIP},
	)
	return a, b
}

func ab(ts int64, ip uint32) *tuple.Tuple {
	return tuple.New(ts, tuple.Time(ts), tuple.IP(ip))
}

func runJoin(t *testing.T, lm, rm JoinMethod, lw, rw window.Spec) *WindowJoin {
	t.Helper()
	a, b := joinSchemas()
	j, err := NewWindowJoin("j", a, b,
		JoinConfig{Window: lw, Method: lm, Key: []int{1}},
		JoinConfig{Window: rw, Method: rm, Key: []int{1}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestWindowJoinBasicMatch(t *testing.T) {
	for _, m := range []JoinMethod{JoinHash, JoinNestedLoop} {
		j := runJoin(t, m, m, window.Tumbling(100), window.Tumbling(100))
		var out []stream.Element
		emit := func(e stream.Element) { out = append(out, e) }
		j.Push(0, stream.Tup(ab(1, 7)), emit)  // A: ip 7
		j.Push(1, stream.Tup(ab(2, 7)), emit)  // B: ip 7 -> match
		j.Push(1, stream.Tup(ab(3, 9)), emit)  // B: ip 9 -> no match
		j.Push(0, stream.Tup(ab(4, 9)), emit)  // A: ip 9 -> match
		j.Push(0, stream.Tup(ab(5, 12)), emit) // no match
		if len(out) != 2 {
			t.Fatalf("[%v] out = %v", m, out)
		}
		// Output field order must be (left, right) regardless of arrival port.
		first := out[0].Tuple
		if len(first.Vals) != 4 {
			t.Fatalf("arity = %d", len(first.Vals))
		}
		lts, _ := first.Vals[0].AsTime()
		rts, _ := first.Vals[2].AsTime()
		if lts != 1 || rts != 2 {
			t.Errorf("[%v] field order wrong: lts=%d rts=%d", m, lts, rts)
		}
		if j.Emitted() != 2 {
			t.Errorf("Emitted = %d", j.Emitted())
		}
	}
}

func TestWindowJoinExpiry(t *testing.T) {
	// Window of 10 units: an A tuple at ts=1 must not join a B tuple at ts=20.
	j := runJoin(t, JoinHash, JoinHash, window.Time(10, 10), window.Time(10, 10))
	var out []stream.Element
	emit := func(e stream.Element) { out = append(out, e) }
	j.Push(0, stream.Tup(ab(1, 7)), emit)
	j.Push(1, stream.Tup(ab(20, 7)), emit)
	if len(out) != 0 {
		t.Fatalf("expired tuple joined: %v", out)
	}
	l, r := j.WindowSizes()
	if l != 0 || r != 1 {
		t.Errorf("window sizes = %d, %d; want 0, 1", l, r)
	}
}

func TestWindowJoinAsymmetricMethods(t *testing.T) {
	// Hash probe on one side, nested loops on the other (slide 33).
	j := runJoin(t, JoinHash, JoinNestedLoop, window.Tumbling(100), window.Tumbling(100))
	var out []stream.Element
	emit := func(e stream.Element) { out = append(out, e) }
	j.Push(0, stream.Tup(ab(1, 7)), emit)
	j.Push(0, stream.Tup(ab(2, 8)), emit)
	j.Push(1, stream.Tup(ab(3, 7)), emit) // probes left side (hash)
	j.Push(0, stream.Tup(ab(4, 7)), emit) // probes right side (nested loop)
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if j.Probes() == 0 {
		t.Error("no probes counted")
	}
}

func TestWindowJoinNestedLoopCostExceedsHash(t *testing.T) {
	// With many non-matching tuples stored, NLJ performs far more probes.
	mk := func(m JoinMethod) int64 {
		j := runJoin(t, m, m, window.Tumbling(1_000_000), window.Tumbling(1_000_000))
		emit := func(stream.Element) {}
		for i := int64(0); i < 200; i++ {
			j.Push(0, stream.Tup(ab(i, uint32(i))), emit)
		}
		j.Push(1, stream.Tup(ab(300, 5)), emit)
		return j.Probes()
	}
	if hp, np := mk(JoinHash), mk(JoinNestedLoop); hp >= np {
		t.Errorf("hash probes %d >= nlj probes %d", hp, np)
	}
}

func TestWindowJoinResidualPredicate(t *testing.T) {
	a, b := joinSchemas()
	outSch := a.Concat(b)
	// Residual: left time < right time.
	res, _ := expr.NewBin(expr.OpLt, expr.MustColumn(outSch, "time"), expr.MustColumn(outSch, "B.time"))
	j, err := NewWindowJoin("j", a, b,
		JoinConfig{Window: window.Tumbling(100), Method: JoinHash, Key: []int{1}},
		JoinConfig{Window: window.Tumbling(100), Method: JoinHash, Key: []int{1}},
		res)
	if err != nil {
		t.Fatal(err)
	}
	var out []stream.Element
	emit := func(e stream.Element) { out = append(out, e) }
	j.Push(0, stream.Tup(ab(5, 7)), emit)
	j.Push(1, stream.Tup(ab(6, 7)), emit) // 5 < 6: emitted
	j.Push(0, stream.Tup(ab(7, 7)), emit) // joins B@6, but 7 < 6 false: dropped
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
}

func TestWindowJoinMemoryCapEvicts(t *testing.T) {
	a, b := joinSchemas()
	j, err := NewWindowJoin("j", a, b,
		JoinConfig{Window: window.Tumbling(1 << 30), Method: JoinHash, Key: []int{1}, MaxTuples: 10},
		JoinConfig{Window: window.Tumbling(1 << 30), Method: JoinHash, Key: []int{1}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(stream.Element) {}
	for i := int64(0); i < 50; i++ {
		j.Push(0, stream.Tup(ab(i, uint32(i))), emit)
	}
	l, _ := j.WindowSizes()
	if l > 10 {
		t.Errorf("left window = %d, cap was 10", l)
	}
	le, _ := j.Evicted()
	if le != 40 {
		t.Errorf("evicted = %d, want 40", le)
	}
	// Evicted tuples must not join.
	var out []stream.Element
	j.Push(1, stream.Tup(ab(100, 0)), func(e stream.Element) { out = append(out, e) })
	if len(out) != 0 {
		t.Errorf("evicted tuple joined: %v", out)
	}
}

func TestWindowJoinPunctuationInvalidates(t *testing.T) {
	j := runJoin(t, JoinHash, JoinHash, window.Time(10, 10), window.Time(10, 10))
	emit := func(stream.Element) {}
	j.Push(0, stream.Tup(ab(1, 7)), emit)
	// Progress punctuation on the right at ts=50 invalidates left window.
	j.Push(1, stream.Punct(stream.ProgressPunct(50, 0, tuple.Time(50))), emit)
	l, _ := j.WindowSizes()
	if l != 0 {
		t.Errorf("left window = %d after punctuation, want 0", l)
	}
}

func TestWindowJoinValidation(t *testing.T) {
	a, b := joinSchemas()
	if _, err := NewWindowJoin("j", a, b,
		JoinConfig{Method: JoinHash, Key: []int{1}},
		JoinConfig{Method: JoinHash, Key: nil}, nil); err == nil {
		t.Error("key arity mismatch accepted")
	}
	if _, err := NewWindowJoin("j", a, b,
		JoinConfig{Method: JoinHash}, JoinConfig{Method: JoinHash}, nil); err == nil {
		t.Error("hash join without keys accepted")
	}
	if _, err := NewWindowJoin("j", a, b,
		JoinConfig{Method: JoinNestedLoop, Key: []int{0}},
		JoinConfig{Method: JoinNestedLoop, Key: []int{1}}, nil); err == nil {
		t.Error("time-vs-ip key type mismatch accepted")
	}
	if _, err := NewWindowJoin("j", a, b,
		JoinConfig{Method: JoinHash, Key: []int{1}},
		JoinConfig{Method: JoinHash, Key: []int{1}},
		expr.MustColumn(a, "time")); err == nil {
		t.Error("non-boolean residual accepted")
	}
}

// TestWindowJoinRejectsIPNumericKeys: IP keys take the payload-hash
// lane, which is sound only because an IP key never meets a numeric
// one. Construction must keep refusing the pairing, on either side.
func TestWindowJoinRejectsIPNumericKeys(t *testing.T) {
	ip := tuple.NewSchema("I",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "k", Kind: tuple.KindIP})
	if _, err := NewWindowJoin("j", ip, ip,
		JoinConfig{Method: JoinHash, Key: []int{1}},
		JoinConfig{Method: JoinHash, Key: []int{1}}, nil); err != nil {
		t.Fatalf("IP = IP rejected: %v", err)
	}
	for _, k := range []tuple.Kind{tuple.KindInt, tuple.KindUint, tuple.KindTime, tuple.KindFloat} {
		num := tuple.NewSchema("N",
			tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
			tuple.Field{Name: "k", Kind: k})
		for _, pair := range [][2]*tuple.Schema{{ip, num}, {num, ip}} {
			if _, err := NewWindowJoin("j", pair[0], pair[1],
				JoinConfig{Method: JoinHash, Key: []int{1}},
				JoinConfig{Method: JoinHash, Key: []int{1}}, nil); err == nil {
				t.Errorf("%s = %s key accepted", pair[0].Fields[1].Kind, pair[1].Fields[1].Kind)
			}
		}
	}
}

func TestSymmetricHashJoinUnbounded(t *testing.T) {
	a, b := joinSchemas()
	j, err := NewSymmetricHashJoin("shj", a, b, []int{1}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	var out []stream.Element
	emit := func(e stream.Element) { out = append(out, e) }
	// Very distant timestamps still join: no window.
	j.Push(0, stream.Tup(ab(1, 7)), emit)
	j.Push(1, stream.Tup(ab(1_000_000, 7)), emit)
	if len(out) != 1 {
		t.Errorf("unbounded join failed: %v", out)
	}
	if j.Selectivity() <= 0 || j.UnitCost() < 1 {
		t.Error("cost metadata broken")
	}
}
