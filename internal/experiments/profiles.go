package experiments

import (
	"fmt"

	"streamdb/internal/adaptive"
	"streamdb/internal/agg"
	"streamdb/internal/expr"
	"streamdb/internal/optimizer/share"
	"streamdb/internal/shed"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// E10SystemProfiles reproduces the comparative matrix of slide 52 as a
// running experiment: one common workload (a filtered, windowed,
// grouped aggregation over bursty traffic at 2x capacity) executed
// under five engine configurations that emulate the surveyed systems'
// signature behaviours. The qualitative matrix columns become measured
// numbers.
func E10SystemProfiles(scale Scale) *Table {
	t := &Table{
		ID:    "E10",
		Title: "prototype system profiles on one workload (slide 52)",
		Header: []string{"profile", "answers", "answerMode", "dropped%",
			"peakStateKB", "note"},
	}
	sch := stream.TrafficSchema("Traffic")
	n := scale.N(200000)
	mkSrc := func() stream.Source {
		return stream.Limit(stream.NewTrafficStream(10, 50000, 5000), n)
	}
	length := expr.MustColumn(sch, "length")
	srcIP := expr.MustColumn(sch, "srcIP")
	pred, _ := expr.NewBin(expr.OpGt, length, expr.Constant(tuple.Int(512)))

	type outcome struct {
		answers int
		mode    string
		dropped float64
		peakKB  int
		note    string
	}

	runGroupBy := func(src stream.Source, spec window.Spec, approx bool, pre func(stream.Element) (stream.Element, bool)) outcome {
		cnt, _ := agg.Lookup("count", false)
		med, _ := agg.Lookup("median", approx)
		gb, err := agg.NewGroupBy("q", sch, []expr.Expr{srcIP}, []string{"srcIP"},
			[]agg.Spec{{Fn: cnt, Name: "cnt"}, {Fn: med, Arg: length, Name: "med"}},
			spec, nil)
		if err != nil {
			panic(err)
		}
		var o outcome
		emit := func(stream.Element) { o.answers++ }
		total, passed := 0, 0
		for {
			e, ok := src.Next()
			if !ok {
				break
			}
			total++
			if !expr.EvalBool(pred, e.Tuple) {
				continue
			}
			if pre != nil {
				var keep bool
				e, keep = pre(e)
				if !keep {
					continue
				}
			}
			passed++
			gb.Push(0, e, emit)
			if total%1000 == 0 {
				if m := gb.MemSize(); m/1024 > o.peakKB {
					o.peakKB = m / 1024
				}
			}
		}
		gb.Flush(emit)
		o.dropped = 0
		if total > 0 {
			o.dropped = 100 * (1 - float64(passed)/float64(total))
		}
		return o
	}

	// Aurora: QoS-driven load shedding — a random shedder tuned by the
	// feedback controller keeps the operator within "capacity".
	{
		shedder, _ := shed.NewRandom("shed", sch, 0, 42)
		ctl, _ := shed.NewController(shedder, 25000, 0.5)
		i := 0
		o := runGroupBy(mkSrc(), window.Tumbling(stream.Second), false,
			func(e stream.Element) (stream.Element, bool) {
				if i%1000 == 0 {
					ctl.Observe(50000)
				}
				i++
				keep := false
				shedder.Push(0, e, func(stream.Element) { keep = true })
				return e, keep
			})
		o.mode = "approximate (shed)"
		o.note = "QoS-based load shedding"
		t.AddRow("Aurora", o.answers, o.mode, fmt.Sprintf("%.1f", o.dropped), o.peakKB, o.note)
	}
	// Gigascope: two-level partial aggregation with bounded low level
	// (S-in S-out, exact answers, decomposition avoids drops).
	{
		cnt, _ := agg.Lookup("count", false)
		gb, _ := agg.NewGroupBy("gigascope", sch, []expr.Expr{srcIP}, []string{"srcIP"},
			[]agg.Spec{{Fn: cnt, Name: "cnt"}}, window.Tumbling(stream.Second), nil)
		low, _ := gb.BoundedPartial(4096)
		high := gb.Combiner()
		answers := 0
		peak := 0
		emitF := func(stream.Element) { answers++ }
		emitP := func(e stream.Element) { high.Push(0, e, emitF) }
		src := mkSrc()
		total, passed := 0, 0
		for {
			e, ok := src.Next()
			if !ok {
				break
			}
			total++
			if !expr.EvalBool(pred, e.Tuple) {
				continue
			}
			passed++
			low.Push(0, e, emitP)
			if total%1000 == 0 {
				if m := low.MemSize() / 1024; m > peak {
					peak = m
				}
			}
		}
		low.Flush(emitP)
		high.Flush(emitF)
		t.AddRow("Gigascope", answers, "exact (2-level)",
			fmt.Sprintf("%.1f", 100*(1-float64(passed)/float64(total))), peak,
			"decomposition, bounded low level")
	}
	// Hancock: stream-in relation-out block processing — exact, but the
	// answer is a stored profile, not a stream.
	{
		o := runGroupBy(mkSrc(), window.Spec{}, false, nil)
		t.AddRow("Hancock", o.answers, "exact (relation-out)",
			fmt.Sprintf("%.1f", o.dropped), o.peakKB, "block processing, I/O-aware")
	}
	// STREAM: static approximation — synopsis-backed holistic aggregate
	// in bounded memory.
	{
		o := runGroupBy(mkSrc(), window.Tumbling(stream.Second), true, nil)
		t.AddRow("STREAM", o.answers, "approximate (synopsis)",
			fmt.Sprintf("%.1f", o.dropped), o.peakKB, "bounded-memory static analysis")
	}
	// Telegraph: adaptive per-tuple routing (eddy) ahead of the
	// aggregation.
	{
		f1, _ := expr.NewBin(expr.OpGt, length, expr.Constant(tuple.Int(512)))
		f2, _ := expr.NewBin(expr.OpEq, expr.MustColumn(sch, "protocol"), expr.Constant(tuple.Int(6)))
		eddy, _ := adaptive.NewEddy([]*adaptive.Filter{
			{Name: "len", Pred: f1, Cost: 1},
			{Name: "proto", Pred: f2, Cost: 1},
		}, 0.5, 200)
		o := runGroupBy(mkSrc(), window.Tumbling(stream.Second), false,
			func(e stream.Element) (stream.Element, bool) {
				return eddy.ProcessElement(e)
			})
		_, _, evals := eddy.Stats()
		o.note = fmt.Sprintf("adaptive routing, %.2f evals/tuple", float64(evals)/float64(n))
		t.AddRow("Telegraph", o.answers, "exact (adaptive)",
			fmt.Sprintf("%.1f", o.dropped), o.peakKB, o.note)
	}
	t.Notes = append(t.Notes,
		"expected shape: Aurora sheds under overload; Gigascope/Hancock stay exact; STREAM bounds memory via synopses; Telegraph adapts its plan")
	return t
}

// E14MultiQuerySharing reproduces slide 45: shared select/project and
// shared window joins vs per-query deployments, swept over query count.
func E14MultiQuerySharing(scale Scale) *Table {
	t := &Table{
		ID:     "E14",
		Title:  "multi-query processing: sharing (slide 45)",
		Header: []string{"queries", "kind", "sharedWork", "unsharedWork", "saving"},
	}
	sch := stream.TrafficSchema("Traffic")
	n := scale.N(50000)
	length := expr.MustColumn(sch, "length")

	for _, nq := range []int{4, 16, 64} {
		// Selection sharing: nq queries, only 4 distinct predicates.
		ss := share.NewSharedSelect("ss", sch)
		for q := 0; q < nq; q++ {
			threshold := int64(256 * (1 + q%4))
			pred, _ := expr.NewBin(expr.OpGt, length, expr.Constant(tuple.Int(threshold)))
			if _, err := ss.Register(pred, func(stream.Element) {}); err != nil {
				panic(err)
			}
		}
		src := stream.Limit(stream.NewTrafficStream(14, 50000, 100), n)
		for {
			e, ok := src.Next()
			if !ok {
				break
			}
			ss.Push(0, e, nil)
		}
		sharedEvals, unsharedEvals := ss.Stats()
		t.AddRow(nq, "select (4 distinct preds)", sharedEvals, unsharedEvals,
			fmt.Sprintf("%.1fx", float64(unsharedEvals)/float64(sharedEvals)))

		// Window-join sharing: nq queries with different windows share
		// one physical join sized to the largest.
		a, b := joinSchemas()
		queries := make([]share.JoinQuery, nq)
		for q := 0; q < nq; q++ {
			queries[q] = share.JoinQuery{
				Window: int64(q+1) * 100,
				Sink:   func(stream.Element) {},
			}
		}
		sj, err := share.NewSharedWindowJoin("sj", a, b, []int{1}, []int{1}, queries)
		if err != nil {
			panic(err)
		}
		input := genJoinInput(15, n/5, 50)
		for _, in := range input {
			sj.Push(in.port, stream.Tup(in.t), nil)
		}
		probes, _ := sj.Stats()
		unshared := sj.UnsharedProbeEstimate()
		t.AddRow(nq, "window join", probes, fmt.Sprintf("%.0f", unshared),
			fmt.Sprintf("%.1fx", unshared/float64(probes)))
	}
	t.Notes = append(t.Notes,
		"expected shape: sharing saves roughly linearly in the query count for identical predicates, and proportionally to window overlap for joins")
	return t
}
