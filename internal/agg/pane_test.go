package agg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streamdb/internal/expr"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// newAggs builds a sum/count/avg/min specification over (g, v).
func newAggs(t *testing.T, names ...string) []Spec {
	t.Helper()
	var aggs []Spec
	for _, name := range names {
		f := mustFn(t, name, false)
		s := Spec{Fn: f, Name: name}
		if f.NeedsArg || name != "count" {
			s.Arg = expr.MustColumn(sch, "v")
		}
		aggs = append(aggs, s)
	}
	return aggs
}

func newPaneGroupBy(t *testing.T, spec window.Spec, aggs []Spec, having func(*tuple.Schema) (expr.Expr, error)) *GroupBy {
	t.Helper()
	g, err := NewGroupBy("q", sch,
		[]expr.Expr{expr.MustColumn(sch, "g")}, []string{"g"},
		aggs, spec, having)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// valueRepr is a byte-exact value representation: kind, raw payload
// bits, and the string form (which carries string payloads).
func valueRepr(v tuple.Value) string {
	return fmt.Sprintf("%d:%x:%s", v.Kind, v.Raw(), v.String())
}

// sameBits is valueRepr equality without the formatting: kind, raw
// payload, float bits and string payload.
func sameBits(a, b tuple.Value) bool {
	return a.Kind == b.Kind && a.Raw() == b.Raw() &&
		math.Float64bits(a.Fl()) == math.Float64bits(b.Fl()) && a.Str() == b.Str()
}

func sameTuples(t *testing.T, label string, pane, legacy []*tuple.Tuple) {
	t.Helper()
	if len(pane) != len(legacy) {
		t.Fatalf("%s: pane emitted %d rows, legacy %d", label, len(pane), len(legacy))
	}
	for i := range pane {
		if pane[i].Ts != legacy[i].Ts {
			t.Fatalf("%s: row %d Ts = %d, legacy %d", label, i, pane[i].Ts, legacy[i].Ts)
		}
		if len(pane[i].Vals) != len(legacy[i].Vals) {
			t.Fatalf("%s: row %d arity %d, legacy %d", label, i, len(pane[i].Vals), len(legacy[i].Vals))
		}
		for j := range pane[i].Vals {
			if a, b := pane[i].Vals[j], legacy[i].Vals[j]; !sameBits(a, b) {
				t.Fatalf("%s: row %d col %d = %s, legacy %s", label, i, j, valueRepr(a), valueRepr(b))
			}
		}
	}
}

// Path selection: panes require a pane-compatible window and
// partializable aggregates throughout.
func TestPanePathSelection(t *testing.T) {
	cases := []struct {
		label string
		spec  window.Spec
		aggs  []Spec
		want  bool
	}{
		{"sliding sum", window.Time(80, 20), newAggs(t, "sum", "count", "avg"), true},
		{"tumbling min/max", window.Tumbling(20), newAggs(t, "min", "max", "stddev"), true},
		{"holistic median", window.Time(80, 20), newAggs(t, "median"), false},
		{"mixed holistic", window.Time(80, 20), newAggs(t, "sum", "median"), false},
		{"range not multiple of slide", window.Time(25, 10), newAggs(t, "sum"), false},
		{"landmark", window.Landmark(20), newAggs(t, "sum"), false},
		{"unbounded", window.Spec{}, newAggs(t, "sum"), false},
	}
	for _, c := range cases {
		g := newPaneGroupBy(t, c.spec, c.aggs, nil)
		if got := g.UsesPanes(); got != c.want {
			t.Errorf("%s: UsesPanes = %v, want %v", c.label, got, c.want)
		}
	}
	g := newPaneGroupBy(t, window.Time(80, 20), newAggs(t, "sum"), nil)
	if g.DisablePanes(); g.UsesPanes() {
		t.Error("DisablePanes left the pane path active")
	}
}

// randomStream produces a shuffled-timestamp stream of dyadic values
// (quarters) so float partial sums are exact in any association, with
// periodic progress punctuations.
func randomStream(rng *rand.Rand, n int, maxTs int64, groups int64) []stream.Element {
	var elems []stream.Element
	ts := int64(0)
	for i := 0; i < n; i++ {
		// Mostly advancing time with occasional stragglers.
		ts += rng.Int63n(7) - 1
		if ts < 0 {
			ts = 0
		}
		if ts > maxTs {
			ts = maxTs
		}
		elems = append(elems, row(ts, rng.Int63n(groups), float64(rng.Int63n(400))/4))
		if i%37 == 36 {
			elems = append(elems, stream.Punct(stream.ProgressPunct(ts, 0, tuple.Time(ts))))
		}
	}
	return elems
}

// The pane path must be byte-identical to the legacy per-window path
// across sliding, tumbling, partitioned, and HAVING-filtered specs.
func TestPaneLegacyEquivalence(t *testing.T) {
	having := func(out *tuple.Schema) (expr.Expr, error) {
		c, err := expr.Column(out, "count")
		if err != nil {
			return nil, err
		}
		return expr.NewBin(expr.OpGt, c, expr.Constant(tuple.Int(2)))
	}
	partitioned := window.Time(80, 20)
	partitioned.PartitionBy = []string{"g"}
	cases := []struct {
		label  string
		spec   window.Spec
		aggs   []Spec
		having func(*tuple.Schema) (expr.Expr, error)
	}{
		{"sliding x4", window.Time(80, 20), newAggs(t, "sum", "count", "avg", "min", "max"), nil},
		{"tumbling", window.Tumbling(20), newAggs(t, "sum", "count", "stddev"), nil},
		{"deep sliding x16", window.Time(320, 20), newAggs(t, "sum", "count"), nil},
		{"partitioned", partitioned, newAggs(t, "sum", "count"), nil},
		{"having", window.Time(80, 20), newAggs(t, "sum", "count", "avg"), having},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(42))
		elems := randomStream(rng, 3000, 2000, 5)
		pane := newPaneGroupBy(t, c.spec, c.aggs, c.having)
		legacy := newPaneGroupBy(t, c.spec, c.aggs, c.having).DisablePanes()
		if !pane.UsesPanes() {
			t.Fatalf("%s: pane path not selected", c.label)
		}
		sameTuples(t, c.label, drainOp(pane, elems...), drainOp(legacy, elems...))
		if pane.Emitted() != legacy.Emitted() {
			t.Errorf("%s: pane Emitted %d, legacy %d", c.label, pane.Emitted(), legacy.Emitted())
		}
	}
}

// Holistic aggregates route to the legacy path automatically and still
// agree with an explicitly disabled twin.
func TestPaneHolisticFallbackEquivalence(t *testing.T) {
	aggs := newAggs(t, "median", "sum")
	a := newPaneGroupBy(t, window.Time(80, 20), aggs, nil)
	b := newPaneGroupBy(t, window.Time(80, 20), aggs, nil).DisablePanes()
	if a.UsesPanes() {
		t.Fatal("holistic aggregate took the pane path")
	}
	rng := rand.New(rand.NewSource(7))
	elems := randomStream(rng, 1500, 1200, 4)
	sameTuples(t, "median fallback", drainOp(a, elems...), drainOp(b, elems...))
}

// Punctuation-driven time advance: windows must close identically when
// time only moves via punctuations, and the output watermark (row
// timestamps at window ends) must be monotone.
func TestPanePunctuationAdvanceEquivalence(t *testing.T) {
	var elems []stream.Element
	rng := rand.New(rand.NewSource(99))
	for ts := int64(0); ts < 600; ts += 10 {
		// Tuples never advance past the punctuation-driven watermark.
		for i := 0; i < 5; i++ {
			elems = append(elems, row(ts+rng.Int63n(3), rng.Int63n(3), float64(rng.Int63n(100))/4))
		}
		elems = append(elems, stream.Punct(stream.ProgressPunct(ts+9, 0, tuple.Time(ts+9))))
	}
	for _, spec := range []window.Spec{window.Time(80, 20), window.Tumbling(40)} {
		pane := newPaneGroupBy(t, spec, newAggs(t, "sum", "count"), nil)
		legacy := newPaneGroupBy(t, spec, newAggs(t, "sum", "count"), nil).DisablePanes()
		po, lo := drainOp(pane, elems...), drainOp(legacy, elems...)
		sameTuples(t, spec.String(), po, lo)
		last := int64(-1)
		for i, r := range po {
			if r.Ts < last {
				t.Fatalf("%s: row %d Ts %d regressed below %d", spec, i, r.Ts, last)
			}
			last = r.Ts
		}
	}
}

// Data-dependent punctuations (close-group patterns) must release the
// same groups with the same results on both paths. Tumbling windows keep
// a single open instance so legacy emission order is deterministic.
func TestPaneCloseGroupsEquivalence(t *testing.T) {
	var elems []stream.Element
	rng := rand.New(rand.NewSource(5))
	for ts := int64(0); ts < 200; ts++ {
		elems = append(elems, row(ts, rng.Int63n(4), float64(rng.Int63n(40))/4))
		if ts == 57 || ts == 143 {
			// Group (g = ts%4) is finished: close it mid-window.
			elems = append(elems, stream.Punct(stream.EndGroupPunct(ts, 1, tuple.Int(ts%4))))
		}
	}
	pane := newPaneGroupBy(t, window.Tumbling(100), newAggs(t, "sum", "count"), nil)
	legacy := newPaneGroupBy(t, window.Tumbling(100), newAggs(t, "sum", "count"), nil).DisablePanes()
	sameTuples(t, "close-groups", drainOp(pane, elems...), drainOp(legacy, elems...))
}

// Late tuples re-open retired panes; both paths must re-emit the late
// window identically.
func TestPaneLateDataEquivalence(t *testing.T) {
	var elems []stream.Element
	for ts := int64(0); ts < 300; ts++ {
		elems = append(elems, row(ts, ts%3, float64(ts%16)/4))
	}
	// A straggler far behind the watermark.
	elems = append(elems, row(20, 1, 2.25))
	for ts := int64(300); ts < 400; ts++ {
		elems = append(elems, row(ts, ts%3, float64(ts%16)/4))
	}
	pane := newPaneGroupBy(t, window.Time(80, 20), newAggs(t, "sum", "count"), nil)
	legacy := newPaneGroupBy(t, window.Time(80, 20), newAggs(t, "sum", "count"), nil).DisablePanes()
	sameTuples(t, "late data", drainOp(pane, elems...), drainOp(legacy, elems...))
}

// MemSize and MaxGroups must stay meaningful on the pane path (panes
// hold one partial per group per pane, far fewer than per-window state).
func TestPaneAccounting(t *testing.T) {
	pane := newPaneGroupBy(t, window.Time(80, 20), newAggs(t, "sum"), nil)
	legacy := newPaneGroupBy(t, window.Time(80, 20), newAggs(t, "sum"), nil).DisablePanes()
	emit := func(stream.Element) {}
	for ts := int64(0); ts < 500; ts++ {
		e := row(ts, ts%4, 1)
		pane.Push(0, e, emit)
		legacy.Push(0, e, emit)
	}
	if pane.MaxGroups() == 0 || pane.MemSize() <= 128 {
		t.Errorf("pane accounting degenerate: MaxGroups=%d MemSize=%d", pane.MaxGroups(), pane.MemSize())
	}
	if pane.MaxGroups() > legacy.MaxGroups() {
		t.Errorf("pane MaxGroups %d exceeds legacy %d", pane.MaxGroups(), legacy.MaxGroups())
	}
	pane.Flush(emit)
	legacy.Flush(emit)
	if pane.Emitted() != legacy.Emitted() {
		t.Errorf("pane Emitted %d, legacy %d", pane.Emitted(), legacy.Emitted())
	}
}
