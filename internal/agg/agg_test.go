package agg

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamdb/internal/ckpt"
	"streamdb/internal/expr"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

var sch = tuple.NewSchema("S",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "g", Kind: tuple.KindInt},
	tuple.Field{Name: "v", Kind: tuple.KindFloat},
)

func row(ts, g int64, v float64) stream.Element {
	return stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(g), tuple.Float(v)))
}

func mustFn(t *testing.T, name string, approx bool) *Func {
	t.Helper()
	f, err := Lookup(name, approx)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("frobnicate", false); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

func TestClassTaxonomy(t *testing.T) {
	want := map[string]Class{
		"count": Distributive, "sum": Distributive, "min": Distributive, "max": Distributive,
		"avg": Algebraic, "stddev": Algebraic,
		"count_distinct": Holistic, "median": Holistic,
	}
	for name, cls := range want {
		f := mustFn(t, name, false)
		if f.Class != cls {
			t.Errorf("%s class = %v, want %v", name, f.Class, cls)
		}
	}
	for _, c := range []Class{Distributive, Algebraic, Holistic} {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
}

func TestAggStates(t *testing.T) {
	add := func(st State, vals ...float64) State {
		for _, v := range vals {
			st.Add(tuple.Float(v))
		}
		return st
	}
	if v, _ := add(mustFn(t, "count", false).New(), 1, 2, 3).Result().AsInt(); v != 3 {
		t.Errorf("count = %d", v)
	}
	if v, _ := add(mustFn(t, "sum", false).New(), 1, 2, 3).Result().AsFloat(); v != 6 {
		t.Errorf("sum = %v", v)
	}
	if v, _ := add(mustFn(t, "min", false).New(), 3, 1, 2).Result().AsFloat(); v != 1 {
		t.Errorf("min = %v", v)
	}
	if v, _ := add(mustFn(t, "max", false).New(), 3, 1, 2).Result().AsFloat(); v != 3 {
		t.Errorf("max = %v", v)
	}
	if v, _ := add(mustFn(t, "avg", false).New(), 1, 2, 3).Result().AsFloat(); v != 2 {
		t.Errorf("avg = %v", v)
	}
	if v, _ := add(mustFn(t, "stddev", false).New(), 2, 4).Result().AsFloat(); v != 1 {
		t.Errorf("stddev = %v", v)
	}
	if v, _ := add(mustFn(t, "median", false).New(), 9, 1, 5).Result().AsFloat(); v != 5 {
		t.Errorf("median = %v", v)
	}
	st := mustFn(t, "count_distinct", false).New()
	for _, v := range []int64{1, 2, 2, 3, 3, 3} {
		st.Add(tuple.Int(v))
	}
	if v, _ := st.Result().AsInt(); v != 3 {
		t.Errorf("count_distinct = %d", v)
	}
}

func TestAggEmptyResults(t *testing.T) {
	for _, name := range []string{"sum", "avg", "min", "max", "median"} {
		if !mustFn(t, name, false).New().Result().IsNull() {
			t.Errorf("%s of empty not NULL", name)
		}
	}
	if v, _ := mustFn(t, "count", false).New().Result().AsInt(); v != 0 {
		t.Error("count of empty != 0")
	}
	if mustFn(t, "stddev", false).New().Result().IsNull() != true {
		t.Error("stddev of empty not NULL")
	}
}

func TestMergeMatchesSingleState(t *testing.T) {
	// Property: splitting a stream and merging partial states equals
	// aggregating the whole stream (distributive/algebraic/holistic-exact).
	f := func(raw []float64, split uint8) bool {
		if len(raw) == 0 {
			return true
		}
		// Keep values finite and modest so float error stays comparable
		// and stddev's sum-of-squares cannot overflow to Inf.
		xs := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			xs[i] = math.Mod(x, 1e6)
		}
		cut := int(split) % len(xs)
		for _, name := range []string{"count", "sum", "min", "max", "avg", "stddev", "median", "count_distinct"} {
			fn, _ := Lookup(name, false)
			whole, a, b := fn.New(), fn.New(), fn.New()
			for i, x := range xs {
				v := tuple.Float(x)
				whole.Add(v)
				if i < cut {
					a.Add(v)
				} else {
					b.Add(v)
				}
			}
			if err := a.Merge(b); err != nil {
				return false
			}
			w, m := whole.Result(), a.Result()
			if w.IsNull() != m.IsNull() {
				return false
			}
			if !w.IsNull() {
				wf, _ := w.AsFloat()
				mf, _ := m.AsFloat()
				if math.Abs(wf-mf) > 1e-9*(1+math.Abs(wf)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestApproxStatesRefuseToMerge(t *testing.T) {
	for _, name := range []string{"median", "count_distinct"} {
		fn := mustFn(t, name, true)
		a, b := fn.New(), fn.New()
		a.Add(tuple.Float(1))
		if err := a.Merge(b); err == nil {
			t.Errorf("approx %s merged", name)
		}
	}
}

func TestApproxAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	med := mustFn(t, "median", true).New()
	cd := mustFn(t, "count_distinct", true).New()
	for i := 0; i < 20000; i++ {
		med.Add(tuple.Float(rng.NormFloat64()*10 + 100))
		cd.Add(tuple.Int(rng.Int63n(3000)))
	}
	if m, _ := med.Result().AsFloat(); math.Abs(m-100) > 2 {
		t.Errorf("approx median = %v, want ~100", m)
	}
	if d, _ := cd.Result().AsInt(); d < 1800 || d > 4500 {
		t.Errorf("approx distinct = %d, want ~2859", d)
	}
}

func newGroupBy(t *testing.T, spec window.Spec, having func(*tuple.Schema) (expr.Expr, error)) *GroupBy {
	t.Helper()
	cnt := mustFn(t, "count", false)
	sum := mustFn(t, "sum", false)
	g, err := NewGroupBy("q", sch,
		[]expr.Expr{expr.MustColumn(sch, "g")}, []string{"g"},
		[]Spec{
			{Fn: cnt, Name: "cnt"},
			{Fn: sum, Arg: expr.MustColumn(sch, "v"), Name: "total"},
		}, spec, having)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func drainOp(g *GroupBy, elems ...stream.Element) []*tuple.Tuple {
	var out []*tuple.Tuple
	emit := func(e stream.Element) { out = append(out, e.Tuple) }
	for _, e := range elems {
		g.Push(0, e, emit)
	}
	g.Flush(emit)
	return out
}

func TestGroupByTumbling(t *testing.T) {
	g := newGroupBy(t, window.Tumbling(10), nil)
	out := drainOp(g,
		row(1, 1, 1), row(2, 1, 2), row(3, 2, 5),
		row(11, 1, 10), // closes window [0,10)
	)
	// Window [0,10): groups 1 (cnt 2, sum 3) and 2 (cnt 1, sum 5);
	// then flush emits window [10,20): group 1 (cnt 1, sum 10).
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	// Sorted by group key within a window.
	if v, _ := out[0].Vals[1].AsInt(); v != 1 {
		t.Errorf("first group = %d", v)
	}
	if c, _ := out[0].Vals[2].AsInt(); c != 2 {
		t.Errorf("count = %d", c)
	}
	if s, _ := out[1].Vals[3].AsFloat(); s != 5 {
		t.Errorf("sum = %v", s)
	}
	if g.Emitted() != 3 {
		t.Errorf("Emitted = %d", g.Emitted())
	}
}

func TestGroupBySlidingCountsOverlap(t *testing.T) {
	// range 20 slide 10: each tuple lands in 2 windows.
	g := newGroupBy(t, window.Time(20, 10), nil)
	out := drainOp(g, row(5, 1, 1), row(25, 1, 1))
	// Tuple@5 lands in [0,20) (its [-10,10) instance starts before the
	// stream and is skipped); tuple@25 lands in [10,30) and [20,40).
	counts := map[int64]int64{}
	for _, o := range out {
		wend, _ := o.Vals[0].AsTime()
		c, _ := o.Vals[2].AsInt()
		counts[wend] = c
	}
	if counts[20] != 1 || counts[30] != 1 || counts[40] != 1 || len(counts) != 3 {
		t.Errorf("window counts = %v", counts)
	}
}

func TestGroupByPunctuationCloses(t *testing.T) {
	g := newGroupBy(t, window.Tumbling(10), nil)
	var out []*tuple.Tuple
	emit := func(e stream.Element) { out = append(out, e.Tuple) }
	g.Push(0, row(1, 1, 1), emit)
	if len(out) != 0 {
		t.Fatal("emitted before window closed")
	}
	g.Push(0, stream.Punct(stream.ProgressPunct(10, 0, tuple.Time(10))), emit)
	if len(out) != 1 {
		t.Fatalf("punctuation did not close window: %v", out)
	}
}

func TestGroupByHaving(t *testing.T) {
	// HAVING cnt > 1 (slide 13's "having count(*) > 5" pattern).
	having := func(out *tuple.Schema) (expr.Expr, error) {
		return expr.NewBin(expr.OpGt, expr.MustColumn(out, "cnt"), expr.Constant(tuple.Int(1)))
	}
	g := newGroupBy(t, window.Tumbling(10), having)
	out := drainOp(g, row(1, 1, 1), row(2, 1, 1), row(3, 2, 1))
	if len(out) != 1 {
		t.Fatalf("HAVING kept %d groups", len(out))
	}
	if v, _ := out[0].Vals[1].AsInt(); v != 1 {
		t.Errorf("kept group %d", v)
	}
}

func TestGroupByUnboundedEmitsOnFlush(t *testing.T) {
	g := newGroupBy(t, window.Spec{}, nil)
	var out []*tuple.Tuple
	emit := func(e stream.Element) { out = append(out, e.Tuple) }
	g.Push(0, row(1, 1, 2), emit)
	g.Push(0, row(1000, 1, 3), emit)
	if len(out) != 0 {
		t.Fatal("unbounded aggregate emitted early")
	}
	g.Flush(emit)
	if len(out) != 1 {
		t.Fatalf("flush emitted %d", len(out))
	}
	if s, _ := out[0].Vals[3].AsFloat(); s != 5 {
		t.Errorf("sum = %v", s)
	}
}

func TestGroupByLandmark(t *testing.T) {
	// Agglomerative window emitting every 10 units: counts accumulate.
	cnt := mustFn(t, "count", false)
	g, err := NewGroupBy("lm", sch, nil, nil,
		[]Spec{{Fn: cnt, Name: "cnt"}}, window.Landmark(10), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := drainOp(g, row(1, 1, 1), row(5, 1, 1), row(12, 1, 1), row(21, 1, 1))
	// Boundary at 10: landmark window [0,10) emits cnt=2; at 20: [0,20) cnt=3; flush: cnt=4.
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	c0, _ := out[0].Vals[1].AsInt()
	c1, _ := out[1].Vals[1].AsInt()
	c2, _ := out[2].Vals[1].AsInt()
	if c0 != 2 || c1 != 3 || c2 != 4 {
		t.Errorf("landmark counts = %d, %d, %d; want 2, 3, 4", c0, c1, c2)
	}
}

func TestGroupByValidation(t *testing.T) {
	cnt := mustFn(t, "count", false)
	sum := mustFn(t, "sum", false)
	if _, err := NewGroupBy("q", sch, []expr.Expr{expr.MustColumn(sch, "g")}, nil,
		[]Spec{{Fn: cnt, Name: "c"}}, window.Spec{}, nil); err == nil {
		t.Error("name/expr mismatch accepted")
	}
	if _, err := NewGroupBy("q", sch, nil, nil,
		[]Spec{{Fn: sum, Name: "s"}}, window.Spec{}, nil); err == nil {
		t.Error("sum without argument accepted")
	}
	if _, err := NewGroupBy("q", sch, nil, nil,
		[]Spec{{Fn: cnt, Name: "c"}}, window.Time(0, 0), nil); err == nil {
		t.Error("invalid window accepted")
	}
	bad := func(out *tuple.Schema) (expr.Expr, error) {
		return expr.MustColumn(out, "c"), nil // INT, not BOOL
	}
	if _, err := NewGroupBy("q", sch, nil, nil,
		[]Spec{{Fn: cnt, Name: "c"}}, window.Spec{}, bad); err == nil {
		t.Error("non-boolean HAVING accepted")
	}
}

func TestGroupByMaxGroupsTracksCardinality(t *testing.T) {
	g := newGroupBy(t, window.Tumbling(1000), nil)
	emit := func(stream.Element) {}
	for i := int64(0); i < 100; i++ {
		g.Push(0, row(i, i, 1), emit) // every tuple a new group
	}
	if g.MaxGroups() < 100 {
		t.Errorf("MaxGroups = %d, want >= 100", g.MaxGroups())
	}
	if g.MemSize() <= 128 {
		t.Error("MemSize ignores groups")
	}
	g.Flush(emit)
}

// newBounded builds a tumbling GroupBy over sch and its slot-bounded
// partial replica.
func newBounded(t *testing.T, groupBy []expr.Expr, groupNames []string, aggs []Spec, spec window.Spec, slots int) (*GroupBy, *BoundedReplica) {
	t.Helper()
	g, err := NewGroupBy("agg", sch, groupBy, groupNames, aggs, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.BoundedPartial(slots)
	if err != nil {
		t.Fatal(err)
	}
	return g, r
}

func TestPartialFinalEquivalence(t *testing.T) {
	// Property: a bounded partial replica with a tiny slot table followed
	// by the combiner equals direct aggregation.
	rng := rand.New(rand.NewSource(13))
	gcol := expr.MustColumn(sch, "g")
	vcol := expr.MustColumn(sch, "v")
	specs := []Spec{
		{Fn: mustFn(t, "count", false), Name: "cnt"},
		{Fn: mustFn(t, "sum", false), Arg: vcol, Name: "total"},
		{Fn: mustFn(t, "avg", false), Arg: vcol, Name: "mean"},
		{Fn: mustFn(t, "min", false), Arg: vcol, Name: "lo"},
		{Fn: mustFn(t, "max", false), Arg: vcol, Name: "hi"},
	}
	g, low := newBounded(t, []expr.Expr{gcol}, []string{"g"}, specs, window.Tumbling(100), 4)
	high := g.Combiner().(*PaneCombiner)

	// Direct reference computation.
	type ref struct {
		cnt    int64
		sum    float64
		lo, hi float64
	}
	truth := map[int64]map[int64]*ref{} // window end -> group -> ref

	var finals []*tuple.Tuple
	emitFinal := func(e stream.Element) { finals = append(finals, e.Tuple) }
	emitPartial := func(e stream.Element) { high.Push(0, e, emitFinal) }

	for i := 0; i < 3000; i++ {
		ts := int64(i)
		grp := rng.Int63n(40) // 40 groups through 4 slots: heavy eviction
		v := rng.Float64() * 100
		low.Push(0, row(ts, grp, v), emitPartial)
		end := (ts/100)*100 + 100
		if truth[end] == nil {
			truth[end] = map[int64]*ref{}
		}
		r := truth[end][grp]
		if r == nil {
			r = &ref{lo: math.Inf(1), hi: math.Inf(-1)}
			truth[end][grp] = r
		}
		r.cnt++
		r.sum += v
		if v < r.lo {
			r.lo = v
		}
		if v > r.hi {
			r.hi = v
		}
	}
	low.Flush(emitPartial)
	high.Flush(emitFinal)

	if low.Emitted() == 0 || low.Evictions() == 0 {
		t.Fatalf("stats: emitted=%d evictions=%d", low.Emitted(), low.Evictions())
	}
	// Verify every final row against the reference.
	seen := 0
	for _, f := range finals {
		end, _ := f.Vals[0].AsTime()
		grp, _ := f.Vals[1].AsInt()
		r := truth[end][grp]
		if r == nil {
			t.Fatalf("unexpected group %d@%d", grp, end)
		}
		seen++
		cnt, _ := f.Vals[2].AsInt()
		sum, _ := f.Vals[3].AsFloat()
		mean, _ := f.Vals[4].AsFloat()
		lo, _ := f.Vals[5].AsFloat()
		hi, _ := f.Vals[6].AsFloat()
		if cnt != r.cnt || math.Abs(sum-r.sum) > 1e-6 || math.Abs(mean-r.sum/float64(r.cnt)) > 1e-6 ||
			lo != r.lo || hi != r.hi {
			t.Fatalf("group %d@%d: got (%d, %f, %f, %f, %f), want %+v", grp, end, cnt, sum, mean, lo, hi, r)
		}
	}
	want := 0
	for _, groups := range truth {
		want += len(groups)
	}
	if seen != want {
		t.Errorf("final rows = %d, want %d", seen, want)
	}
	if high.MergeErrors() != 0 {
		t.Errorf("merge errors: %d", high.MergeErrors())
	}
}

func TestPartialAggRejectsHolistic(t *testing.T) {
	med := mustFn(t, "median", false)
	g, err := NewGroupBy("p", sch, nil, nil,
		[]Spec{{Fn: med, Arg: expr.MustColumn(sch, "v"), Name: "m"}}, window.Tumbling(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.BoundedPartial(8); err == nil {
		t.Error("holistic aggregate accepted for partial aggregation")
	}
}

func TestPartialAggBoundedMemory(t *testing.T) {
	// 10000 distinct keys in one window through 16 slots: live groups
	// never exceed the slot count.
	cnt := mustFn(t, "count", false)
	_, low := newBounded(t, []expr.Expr{expr.MustColumn(sch, "g")}, []string{"g"},
		[]Spec{{Fn: cnt, Name: "c"}}, window.Tumbling(1<<40), 16)
	emit := func(stream.Element) {}
	for i := int64(0); i < 10000; i++ {
		low.Push(0, row(i, i, 1), emit)
	}
	if m := low.MaxGroups(); m > 16 {
		t.Errorf("live groups peaked at %d, slots 16", m)
	}
	if ev := low.Evictions(); ev != 10000-16 {
		t.Errorf("evictions = %d, want %d", ev, 10000-16)
	}
}

func TestPartialAggValidation(t *testing.T) {
	cnt := mustFn(t, "count", false)
	spec := []Spec{{Fn: cnt, Name: "c"}}
	for _, slots := range []int{0, -1} {
		g, err := NewGroupBy("p", sch, nil, nil, spec, window.Tumbling(100), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.BoundedPartial(slots); err == nil {
			t.Errorf("%d slots accepted", slots)
		}
	}
	for _, w := range []window.Spec{{Kind: window.KindTime, Range: 100, Slide: 10}, {}, window.Landmark(10)} {
		g, err := NewGroupBy("p", sch, nil, nil, spec, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.BoundedPartial(4); err == nil {
			t.Errorf("window %s accepted for a slot bound", w)
		}
	}
}

func TestBoundedPartialSnapshotRestore(t *testing.T) {
	// A bounded replica restored mid-window rebuilds its slot directory
	// and goes on emitting exactly the records of an uninterrupted run.
	gcol := expr.MustColumn(sch, "g")
	specs := []Spec{
		{Fn: mustFn(t, "count", false), Name: "cnt"},
		{Fn: mustFn(t, "sum", false), Arg: expr.MustColumn(sch, "v"), Name: "total"},
	}
	g, whole := newBounded(t, []expr.Expr{gcol}, []string{"g"}, specs, window.Tumbling(100), 4)
	rng := rand.New(rand.NewSource(29))
	var in []stream.Element
	for ts := int64(0); ts < 1000; ts++ {
		in = append(in, row(ts, rng.Int63n(40), float64(rng.Intn(100))))
		if ts == 450 {
			in = append(in, stream.Punct(&stream.Punctuation{Ts: 500}))
		}
	}
	run := func(r *BoundedReplica, els []stream.Element, flush bool) []byte {
		var out []byte
		emit := func(e stream.Element) {
			if !e.IsPunct() {
				out = tuple.AppendEncode(out, e.Tuple)
			}
		}
		for _, e := range els {
			r.Push(0, e, emit)
		}
		if flush {
			r.Flush(emit)
		}
		return out
	}
	want := run(whole, in, true)
	for _, cut := range []int{2, 37, 537, 871} {
		first, err := g.BoundedPartial(4)
		if err != nil {
			t.Fatal(err)
		}
		got := run(first, in[:cut], false)
		resumed, err := g.BoundedPartial(4)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Restore(ckpt.NewDecoder(snapshotBytes(t, first.GroupBy))); err != nil {
			t.Fatal(err)
		}
		got = append(got, run(resumed, in[cut:], true)...)
		if !bytes.Equal(got, want) {
			t.Errorf("cut %d: resumed records differ from the uninterrupted run", cut)
		}
	}
}
