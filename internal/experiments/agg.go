package experiments

import (
	"math"
	"math/rand"
	"sort"

	"streamdb/internal/agg"
	"streamdb/internal/expr"
	"streamdb/internal/stream"
	"streamdb/internal/synopsis"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// E2BoundedMemoryAgg reproduces slide 36: grouping on an attribute with
// only a one-sided range predicate grows memory without bound, while a
// two-sided range keeps the group table finite. Measured as the group
// high-water mark while streaming.
func E2BoundedMemoryAgg(scale Scale) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "bounded vs unbounded memory aggregation (slide 36)",
		Header: []string{"query", "tuples", "maxGroups", "stateKB", "verdict"},
	}
	sch := stream.TrafficSchema("Traffic")
	n := scale.N(200000)

	run := func(lo, hi int64) (int, int) {
		length := expr.MustColumn(sch, "length")
		var pred expr.Expr
		pred, _ = expr.NewBin(expr.OpGt, length, expr.Constant(tuple.Int(lo)))
		if hi > 0 {
			upper, _ := expr.NewBin(expr.OpLt, length, expr.Constant(tuple.Int(hi)))
			pred, _ = expr.NewBin(expr.OpAnd, pred, upper)
		}
		cnt, _ := agg.Lookup("count", false)
		gb, err := agg.NewGroupBy("q", sch, []expr.Expr{length}, []string{"length"},
			[]agg.Spec{{Fn: cnt, Name: "cnt"}}, window.Tumbling(3600*stream.Second), nil)
		if err != nil {
			panic(err)
		}
		// Widen the length domain beyond real packet sizes to model an
		// unbounded attribute (as the slide assumes).
		rng := rand.New(rand.NewSource(2))
		emit := func(stream.Element) {}
		maxMem := 0
		for i := 0; i < n; i++ {
			ts := int64(i) * stream.Second / 1000
			length := tuple.Uint(uint64(513 + rng.Intn(1_000_000)))
			tp := tuple.New(ts, tuple.Time(ts), tuple.IP(1), tuple.IP(2), tuple.Uint(6), length)
			if expr.EvalBool(pred, tp) {
				gb.Push(0, stream.Tup(tp), emit)
			}
			// MemSize walks every live group; sample it.
			if i%1000 == 0 {
				if m := gb.MemSize(); m > maxMem {
					maxMem = m
				}
			}
		}
		return gb.MaxGroups(), maxMem
	}

	g1, m1 := run(512, 0)
	t.AddRow("group by length WHERE length > 512", n, g1, m1/1024, "unbounded")
	g2, m2 := run(512, 1024)
	t.AddRow("... AND length < 1024", n, g2, m2/1024, "bounded (<= 511 groups)")
	t.Notes = append(t.Notes,
		"expected shape: the one-sided query's group count grows with the stream; the two-sided query plateaus at the domain size")
	return t
}

// E8PartialAggregation reproduces slide 37's two-level aggregation:
// a slot-bounded partial replica of the query's GroupBy absorbs the raw
// stream and ships partials; the GroupBy's combiner holds the unbounded
// group set. Sweeps the low-level table size.
func E8PartialAggregation(scale Scale) *Table {
	t := &Table{
		ID:     "E8",
		Title:  "two-level partial aggregation (slide 37)",
		Header: []string{"lowSlots", "rawTuples", "partials", "reduction", "evictions", "finalGroups", "lowStateKB"},
	}
	sch := stream.TrafficSchema("Traffic")
	n := scale.N(500000)
	groups := int64(20000)

	for _, slots := range []int{256, 1024, 4096, 16384} {
		cnt, _ := agg.Lookup("count", false)
		sum, _ := agg.Lookup("sum", false)
		srcIP := expr.MustColumn(sch, "srcIP")
		length := expr.MustColumn(sch, "length")
		gb, err := agg.NewGroupBy("e8", sch, []expr.Expr{srcIP}, []string{"srcIP"},
			[]agg.Spec{{Fn: cnt, Name: "cnt"}, {Fn: sum, Arg: length, Name: "bytes"}},
			window.Tumbling(60*stream.Second), nil)
		if err != nil {
			panic(err)
		}
		low, err := gb.BoundedPartial(slots)
		if err != nil {
			panic(err)
		}
		high := gb.Combiner()
		finals := 0
		emitFinal := func(stream.Element) { finals++ }
		emitPartial := func(e stream.Element) { high.Push(0, e, emitFinal) }

		rng := rand.New(rand.NewSource(8))
		zip := rand.NewZipf(rng, 1.1, 1, uint64(groups-1))
		for i := 0; i < n; i++ {
			ts := int64(i) * (10 * stream.Second) / int64(n) * 6 // spread over 1 minute
			ip := tuple.IP(uint32(zip.Uint64()))
			tp := tuple.New(ts, tuple.Time(ts), ip, tuple.IP(1), tuple.Uint(6),
				tuple.Uint(uint64(40+rng.Intn(1461))))
			low.Push(0, stream.Tup(tp), emitPartial)
		}
		stateKB := low.MemSize() / 1024
		low.Flush(emitPartial)
		high.Flush(emitFinal)
		partials := low.Emitted()
		t.AddRow(slots, n, partials, float64(n)/float64(partials), low.Evictions(), finals, stateKB)
	}
	t.Notes = append(t.Notes,
		"expected shape: larger low-level tables evict less and reduce more; low-level state stays fixed while final groups are unbounded")
	return t
}

// E9SynopsisAccuracy reproduces slides 38/53: approximate aggregates
// from synopses, error vs memory budget, on a Zipf value stream.
func E9SynopsisAccuracy(scale Scale) *Table {
	t := &Table{
		ID:     "E9",
		Title:  "approximate aggregates: accuracy vs memory (slides 38, 53)",
		Header: []string{"budget", "gkMedianErr%", "sampleMedianErr%", "fmDistinctErr%", "cmHeavyHitErr%"},
	}
	n := scale.N(300000)
	rng := rand.New(rand.NewSource(9))
	zip := rand.NewZipf(rng, 1.1, 1, 1<<20)
	vals := make([]float64, n)
	freq := map[int64]uint64{}
	distinct := map[int64]bool{}
	for i := range vals {
		v := int64(zip.Uint64())
		vals[i] = float64(v)
		freq[v]++
		distinct[v] = true
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	var topVal int64
	var topCount uint64
	for v, c := range freq {
		if c > topCount {
			topVal, topCount = v, c
		}
	}

	rank := func(x float64) int { return sort.SearchFloat64s(sorted, x) }

	for _, budget := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 17} {
		// GK with eps sized to the budget (24 bytes/entry).
		eps := 1.0 / float64(budget/48)
		if eps < 1e-6 {
			eps = 1e-6
		}
		gk := synopsis.NewGK(eps)
		res := synopsis.NewReservoir(budget/16, 3)
		// FM needs several hits per bitmap to estimate well; cap the
		// bitmap count so small streams are not spread too thin.
		fmBits := budget / 8
		if fmBits > 512 {
			fmBits = 512
		}
		fm := synopsis.NewFM(fmBits)
		cm := synopsis.NewCountMinBytes(budget)
		for _, v := range vals {
			gk.Add(v)
			res.Add(tuple.Float(v))
			fm.Add(tuple.Float(v))
			cm.Add(tuple.Float(v), 1)
		}
		gkMed, _ := gk.Query(0.5)
		gkErr := math.Abs(float64(rank(gkMed))-float64(n)/2) / float64(n) * 100
		sMedV, _ := res.EstimateQuantile(0.5)
		sMed, _ := sMedV.AsFloat()
		sErr := math.Abs(float64(rank(sMed))-float64(n)/2) / float64(n) * 100
		fmErr := math.Abs(fm.Estimate()-float64(len(distinct))) / float64(len(distinct)) * 100
		cmEst := cm.Estimate(tuple.Float(float64(topVal)))
		cmErr := math.Abs(float64(cmEst)-float64(topCount)) / float64(topCount) * 100
		t.AddRow(budget, gkErr, sErr, fmErr, cmErr)
	}
	t.Notes = append(t.Notes,
		"expected shape: every estimator's error falls as memory grows; GK dominates sampling for quantiles at equal budget")
	return t
}

// E12WindowVariants reproduces slide 27: the three
// ordering-attribute window shapes on one stream — memory footprint
// and result cardinality differ by construction.
func E12WindowVariants(scale Scale) *Table {
	t := &Table{
		ID:     "E12",
		Title:  "window variants: sliding vs shifting vs agglomerative (slide 27)",
		Header: []string{"window", "results", "maxGroups", "peakStateKB"},
	}
	sch := stream.MeasurementSchema("M")
	n := scale.N(100000)
	variants := []struct {
		name string
		spec window.Spec
	}{
		{"shifting [range 10s]", window.Tumbling(10 * stream.Second)},
		{"sliding [range 10s slide 2s]", window.Time(10*stream.Second, 2*stream.Second)},
		{"agglomerative [slide 10s]", window.Landmark(10 * stream.Second)},
	}
	for _, v := range variants {
		cnt, _ := agg.Lookup("count", false)
		avgF, _ := agg.Lookup("avg", false)
		sensor := expr.MustColumn(sch, "sensor")
		value := expr.MustColumn(sch, "value")
		gb, err := agg.NewGroupBy("w", sch, []expr.Expr{sensor}, []string{"sensor"},
			[]agg.Spec{{Fn: cnt, Name: "cnt"}, {Fn: avgF, Arg: value, Name: "mean"}},
			v.spec, nil)
		if err != nil {
			panic(err)
		}
		// Rate chosen so the stream spans ~60s of virtual time at any
		// scale: enough window closures to expose the cardinality gap.
		src := stream.NewMeasurementStream(12, 16, float64(n)/60)
		results := 0
		peak := 0
		emit := func(stream.Element) { results++ }
		for i := 0; i < n; i++ {
			e, _ := src.Next()
			gb.Push(0, e, emit)
			if i%500 == 0 {
				if m := gb.MemSize(); m > peak {
					peak = m
				}
			}
		}
		gb.Flush(emit)
		t.AddRow(v.name, results, gb.MaxGroups(), peak/1024)
	}
	t.Notes = append(t.Notes,
		"expected shape: sliding emits range/slide times more results than shifting; agglomerative accumulates a single ever-growing window")
	return t
}
