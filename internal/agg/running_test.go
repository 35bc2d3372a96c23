package agg

// The running window table (pane.go) against its two oracles: the same
// operator forced onto the full fold, and the legacy per-window path.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"streamdb/internal/ckpt"
	"streamdb/internal/expr"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// usch carries a UINT measure: the argument kind the running table
// admits.
var usch = tuple.NewSchema("U",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "g", Kind: tuple.KindInt},
	tuple.Field{Name: "v", Kind: tuple.KindUint},
)

func urow(ts int64, g, v tuple.Value) stream.Element {
	return stream.Tup(tuple.New(ts, tuple.Time(ts), g, v))
}

// forceFullFold takes the running table away: every sliding window
// closes through combineWindow, as before the table existed.
func (g *GroupBy) forceFullFold() *GroupBy {
	g.run = nil
	return g
}

// specsOver builds fn(col) specs over sc ("count" takes no argument).
func specsOver(t testing.TB, sc *tuple.Schema, col string, names ...string) []Spec {
	t.Helper()
	var aggs []Spec
	for _, name := range names {
		f, err := Lookup(name, false)
		if err != nil {
			t.Fatal(err)
		}
		s := Spec{Fn: f, Name: name}
		if name != "count" {
			s.Arg = expr.MustColumn(sc, col)
		}
		aggs = append(aggs, s)
	}
	return aggs
}

func groupByOver(t testing.TB, sc *tuple.Schema, spec window.Spec, aggs []Spec, having func(*tuple.Schema) (expr.Expr, error)) *GroupBy {
	t.Helper()
	g, err := NewGroupBy("q", sc, []expr.Expr{expr.MustColumn(sc, "g")}, []string{"g"}, aggs, spec, having)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// step is one operator call: an element to Push, or a Flush.
type step struct {
	e     stream.Element
	flush bool
}

// runningSteps draws a random UINT-valued stream over spec: mostly
// in-order tuples, with late tuples (some into panes a running table
// holds, some behind closed windows), gaps longer than Range, jumps that
// make several windows due in one advance, progress punctuations,
// punctuations that close a group, NULL measures and keys, and Flush in
// the middle of a window.
func runningSteps(rng *rand.Rand, spec window.Spec, n int) []step {
	var steps []step
	maxTs := int64(0)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(1000); {
		case r < 60: // late, within Range: held panes or the newest one
			ts := maxTs - rng.Int63n(spec.Range)
			steps = append(steps, step{e: urow(max(ts, 0), randKey(rng), randMeasure(rng))})
			continue
		case r < 75: // deep straggler behind closed windows
			ts := maxTs - spec.Range - rng.Int63n(2*spec.Range)
			steps = append(steps, step{e: urow(max(ts, 0), randKey(rng), randMeasure(rng))})
			continue
		case r < 80: // gap longer than Range
			maxTs += spec.Range + rng.Int63n(2*spec.Range)
		case r < 110: // several windows due in one advance
			maxTs += spec.Slide * (2 + rng.Int63n(3))
		case r < 125:
			steps = append(steps, step{e: stream.Punct(stream.ProgressPunct(maxTs, 0, tuple.Time(maxTs)))})
			continue
		case r < 132:
			steps = append(steps, step{e: stream.Punct(stream.EndGroupPunct(maxTs, 1, tuple.Int(rng.Int63n(8))))})
			continue
		case r < 135:
			steps = append(steps, step{flush: true})
			continue
		default:
			maxTs += rng.Int63n(spec.Slide/2 + 1)
		}
		steps = append(steps, step{e: urow(maxTs, randKey(rng), randMeasure(rng))})
	}
	return steps
}

// randKey mostly draws from a few hot keys, sometimes from a wide pool
// (groups that join and leave the running table), rarely NULL.
func randKey(rng *rand.Rand) tuple.Value {
	switch r := rng.Intn(100); {
	case r == 0:
		return tuple.Null
	case r < 15:
		return tuple.Int(100 + rng.Int63n(500))
	default:
		return tuple.Int(rng.Int63n(8))
	}
}

func randMeasure(rng *rand.Rand) tuple.Value {
	if rng.Intn(25) == 0 {
		return tuple.Null
	}
	return tuple.Uint(uint64(rng.Int63n(100000)))
}

// drive runs steps through g and returns each call's output rows.
func drive(g *GroupBy, steps []step) [][]*tuple.Tuple {
	out := make([][]*tuple.Tuple, len(steps))
	for i, s := range steps {
		emit := func(e stream.Element) { out[i] = append(out[i], e.Tuple) }
		if s.flush {
			g.Flush(emit)
		} else {
			g.Push(0, s.e, emit)
		}
	}
	return out
}

// driveColumnar runs steps through g's columnar fold: consecutive tuples
// go in batches of up to 16 rows through ProcessBatch, punctuations
// through Push. It returns every row emitted, in order.
func driveColumnar(g *GroupBy, steps []step, rng *rand.Rand) []*tuple.Tuple {
	var out []*tuple.Tuple
	emit := func(e stream.Element) { out = append(out, e.Tuple) }
	for i := 0; i < len(steps); {
		s := steps[i]
		switch {
		case s.flush:
			g.Flush(emit)
		case s.e.IsPunct():
			g.Push(0, s.e, emit)
		default:
			b := &stream.Batch{Schema: usch, Cols: make([][]tuple.Value, usch.Arity())}
			b.Retain()
			for n := 1 + rng.Intn(16); n > 0 && i < len(steps) && !steps[i].flush && !steps[i].e.IsPunct(); n-- {
				b.AppendRow(steps[i].e.Tuple)
				i++
			}
			g.ProcessBatch(0, b, nil, emit)
			continue
		}
		i++
	}
	return out
}

func flatten(calls [][]*tuple.Tuple) []*tuple.Tuple {
	var all []*tuple.Tuple
	for _, c := range calls {
		all = append(all, c...)
	}
	return all
}

// rowKey is a byte-exact row identity (timestamp, then sameBits' fields
// of every value), cheap enough to sort thousands of rows by.
func rowKey(r *tuple.Tuple) string {
	b := strconv.AppendInt(nil, r.Ts, 16)
	for _, v := range r.Vals {
		b = append(b, '|', byte('0'+v.Kind))
		b = strconv.AppendUint(b, v.Raw(), 16)
		b = append(b, ':')
		b = strconv.AppendUint(b, math.Float64bits(v.Fl()), 16)
		b = append(b, ':')
		b = append(b, v.Str()...)
	}
	return string(b)
}

// sameCallMultisets compares two runs call by call, ignoring the order
// of rows within one call: the legacy path closes punctuation-matched
// groups window by window in map order.
func sameCallMultisets(t *testing.T, label string, got, want [][]*tuple.Tuple) {
	t.Helper()
	keys := func(rows []*tuple.Tuple) []string {
		ks := make([]string, len(rows))
		for j, r := range rows {
			ks[j] = rowKey(r)
		}
		sort.Strings(ks)
		return ks
	}
	for i := range got {
		if a, b := keys(got[i]), keys(want[i]); !slices.Equal(a, b) {
			t.Fatalf("%s: call %d emitted\n%v\nlegacy emitted\n%v", label, i, got[i], want[i])
		}
	}
}

func snapshotBytes(t *testing.T, g *GroupBy) []byte {
	t.Helper()
	enc := &ckpt.Encoder{}
	if err := g.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// The running table emits exactly what the full fold and the legacy path
// emit, checkpoints the same bytes as a full-fold twin at any cut, and a
// restore from any cut continues as the uninterrupted run does.
func TestRunningWindowMatchesFullFoldAndLegacy(t *testing.T) {
	for _, c := range []struct {
		spec  window.Spec
		seeds int
	}{
		{window.Time(100, 10), 40},
		{window.Time(60, 20), 40},
		// 100 panes per window: the legacy oracle folds every tuple 100
		// times, so fewer seeds buy the same coverage.
		{window.Time(1000, 10), 12},
	} {
		spec, seeds := c.spec, c.seeds
		if testing.Short() {
			seeds = 4
		}
		t.Run(spec.String(), func(t *testing.T) {
			var total closeStats
			for seed := 0; seed < seeds; seed++ {
				c := checkRunningSeed(t, spec, int64(seed))
				total.delta += c.delta
				total.rebuild += c.rebuild
			}
			if total.delta == 0 || total.rebuild == 0 {
				t.Fatalf("paths not exercised: %+v", total)
			}
			t.Logf("closes: %+v", total)
		})
	}
}

// checkRunningSeed runs one random stream through the three paths and
// returns how the running operator's windows closed.
func checkRunningSeed(t *testing.T, spec window.Spec, seed int64) closeStats {
	t.Helper()
	label := fmt.Sprintf("%s seed %d", spec, seed)
	rng := rand.New(rand.NewSource(seed))
	steps := runningSteps(rng, spec, 600)
	var h func(*tuple.Schema) (expr.Expr, error)
	if seed%4 == 3 {
		h = func(out *tuple.Schema) (expr.Expr, error) {
			return expr.NewBin(expr.OpGt, expr.MustColumn(out, "count"), expr.Constant(tuple.Int(2)))
		}
	}
	aggs := specsOver(t, usch, "v", "count", "sum", "avg", "stddev")
	delta := groupByOver(t, usch, spec, aggs, h)
	full := groupByOver(t, usch, spec, aggs, h).forceFullFold()
	legacy := groupByOver(t, usch, spec, aggs, h).DisablePanes()
	if delta.CloseStrategy() != "close: running window" {
		t.Fatalf("%s: strategy %q", label, delta.CloseStrategy())
	}

	cut := rng.Intn(len(steps))
	var resumed *GroupBy
	dOut, fOut := make([][]*tuple.Tuple, len(steps)), make([][]*tuple.Tuple, len(steps))
	rOut := make([][]*tuple.Tuple, len(steps))
	for i, s := range steps {
		if i == cut || rng.Intn(50) == 0 {
			db, fb := snapshotBytes(t, delta), snapshotBytes(t, full)
			if !bytes.Equal(db, fb) {
				t.Fatalf("%s: snapshot before call %d differs from the full-fold twin", label, i)
			}
			if i == cut {
				resumed = groupByOver(t, usch, spec, aggs, h)
				if err := resumed.Restore(ckpt.NewDecoder(db)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, c := range []struct {
			g   *GroupBy
			out [][]*tuple.Tuple
		}{{delta, dOut}, {full, fOut}, {resumed, rOut}} {
			if c.g == nil {
				continue
			}
			emit := func(e stream.Element) { c.out[i] = append(c.out[i], e.Tuple) }
			if s.flush {
				c.g.Flush(emit)
			} else {
				c.g.Push(0, s.e, emit)
			}
		}
	}
	tail := func(g *GroupBy) []*tuple.Tuple {
		var rows []*tuple.Tuple
		g.Flush(func(e stream.Element) { rows = append(rows, e.Tuple) })
		return rows
	}
	dTail := tail(delta)
	sameTuples(t, label+" vs full fold", append(flatten(dOut), dTail...), append(flatten(fOut), tail(full)...))
	sameTuples(t, label+" restored at "+fmt.Sprint(cut),
		append(flatten(rOut), tail(resumed)...), append(flatten(dOut[cut:]), dTail...))
	colTwin := groupByOver(t, usch, spec, aggs, h)
	sameTuples(t, label+" columnar", append(driveColumnar(colTwin, steps, rng), tail(colTwin)...), append(flatten(dOut), dTail...))
	sameCallMultisets(t, label+" vs legacy", dOut, drive(legacy, steps))
	sameTuples(t, label+" final flush vs legacy", dTail, tail(legacy))
	if delta.Emitted() != legacy.Emitted() {
		t.Fatalf("%s: Emitted %d, legacy %d", label, delta.Emitted(), legacy.Emitted())
	}
	if delta.closes.full != 0 {
		t.Fatalf("%s: %d full folds on small totals", label, delta.closes.full)
	}
	return delta.closes
}

// The gate: states the running table cannot invert exactly keep the full
// fold (or the legacy path) and match legacy bytes; a UINT sum crossing
// 2^53 leaves the running table for exactly the windows that cross.
func TestRunningWindowGate(t *testing.T) {
	isch := tuple.NewSchema("I",
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "g", Kind: tuple.KindInt},
		tuple.Field{Name: "v", Kind: tuple.KindInt},
	)
	spec := window.Time(100, 10)
	cases := []struct {
		label    string
		sc       *tuple.Schema
		aggs     []string
		strategy string
		val      func(rng *rand.Rand) tuple.Value
	}{
		{"float sum", sch, []string{"count", "sum", "avg"}, "close: full fold",
			func(rng *rand.Rand) tuple.Value { return tuple.Float(float64(rng.Int63n(400)) / 4) }},
		{"int sum", isch, []string{"sum", "stddev"}, "close: full fold",
			func(rng *rand.Rand) tuple.Value { return tuple.Int(rng.Int63n(2000) - 1000) }},
		{"uint min/max", usch, []string{"count", "min", "max"}, "close: full fold",
			func(rng *rand.Rand) tuple.Value { return tuple.Uint(uint64(rng.Int63n(1000))) }},
		{"uint median", usch, []string{"sum", "median"}, "legacy per-window",
			func(rng *rand.Rand) tuple.Value { return tuple.Uint(uint64(rng.Int63n(1000))) }},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(3))
		var elems []stream.Element
		for ts := int64(0); ts < 1500; ts += rng.Int63n(3) {
			elems = append(elems, stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(rng.Int63n(6)), c.val(rng))))
		}
		g := groupByOver(t, c.sc, spec, specsOver(t, c.sc, "v", c.aggs...), nil)
		legacy := groupByOver(t, c.sc, spec, specsOver(t, c.sc, "v", c.aggs...), nil).DisablePanes()
		if got := g.CloseStrategy(); got != c.strategy {
			t.Errorf("%s: strategy %q, want %q", c.label, got, c.strategy)
		}
		sameTuples(t, c.label, drainOp(g, elems...), drainOp(legacy, elems...))
		if g.closes.delta != 0 || g.closes.rebuild != 0 {
			t.Errorf("%s: running table used: %+v", c.label, g.closes)
		}
		if g.UsesPanes() && g.closes.full == 0 {
			t.Errorf("%s: no full fold recorded", c.label)
		}
	}

	// Growing multiples of a power of two add exactly far beyond 2^53 in
	// any association, so the legacy path stays a byte-exact oracle
	// after the crossing: Σv crosses with v = k·2^40, Σv² with k·2^16.
	for _, c := range []struct {
		label string
		shift uint
		aggs  []string
	}{
		{"sum crossing 2^53", 40, []string{"count", "sum"}},
		{"avg's sum crossing 2^53", 40, []string{"avg"}},
		{"stddev's sum of squares crossing 2^53", 16, []string{"count", "stddev"}},
	} {
		var elems []stream.Element
		for ts := int64(0); ts < 3000; ts++ {
			elems = append(elems, urow(ts, tuple.Int(ts%2), tuple.Uint(uint64(1+ts/4)<<c.shift)))
		}
		aggs := specsOver(t, usch, "v", c.aggs...)
		g := groupByOver(t, usch, spec, aggs, nil)
		legacy := groupByOver(t, usch, spec, aggs, nil).DisablePanes()
		sameTuples(t, c.label, drainOp(g, elems...), drainOp(legacy, elems...))
		if g.closes.delta == 0 || g.closes.full == 0 {
			t.Errorf("%s: want delta closes before the crossing and full folds after, got %+v", c.label, g.closes)
		}
		t.Logf("%s: %+v", c.label, g.closes)
	}
}

// BenchmarkPaneClose is the panes-per-window rung: a sliding window over
// 1,000 groups, one tuple per group per pane, at 1, 10 and 60 panes per
// window, closed from the running table or by the full fold. One op is
// one pane: ns/op is the whole per-window cost, close-us the call that
// closes the window (its first tuple, up to the return that releases the
// rows), retire-us the call after it, which carries the deferred
// subtraction of the expired pane. One pane per window is the tumbling
// case, which emits its pane directly: the floor both strategies share.
func BenchmarkPaneClose(b *testing.B) {
	const groups, slide = 1000, 100
	for _, panes := range []int64{1, 10, 60} {
		for _, fullFold := range []bool{false, true} {
			name := fmt.Sprintf("panes=%d/running", panes)
			switch {
			case panes == 1 && fullFold:
				continue
			case panes == 1:
				name = "panes=1/tumbling"
			case fullFold:
				name = fmt.Sprintf("panes=%d/fullfold", panes)
			}
			b.Run(name, func(b *testing.B) {
				g := groupByOver(b, usch, window.Time(panes*slide, slide), specsOver(b, usch, "v", "count", "sum", "avg"), nil)
				if fullFold {
					g.forceFullFold()
				}
				tuples := make([]*tuple.Tuple, groups)
				for i := range tuples {
					tuples[i] = tuple.New(0, tuple.Time(0), tuple.Int(int64(i)), tuple.Uint(uint64(i)))
				}
				emit := func(stream.Element) {}
				var closeNs, retireNs time.Duration
				pane := int64(0)
				fill := func() {
					for i, tp := range tuples {
						tp.Ts = pane*slide + int64(i)*slide/groups
						tp.Vals[0] = tuple.Time(tp.Ts)
						start := time.Now()
						g.Push(0, stream.Tup(tp), emit)
						switch i {
						case 0:
							closeNs += time.Since(start)
						case 1:
							retireNs += time.Since(start)
						}
					}
					pane++
				}
				for pane < panes+2 {
					fill()
				}
				closeNs, retireNs = 0, 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fill()
				}
				b.ReportMetric(float64(closeNs)/1e3/float64(b.N), "close-us")
				b.ReportMetric(float64(retireNs)/1e3/float64(b.N), "retire-us")
			})
		}
	}
}
