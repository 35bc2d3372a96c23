package streamdb

// Benchmarks regenerating every figure/table/worked example of the
// tutorial (the E1-E16 index in DESIGN.md §3). Each benchmark runs its
// experiment at a scale proportional to b.N and reports the headline
// metric of the corresponding slide via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// produces the paper-shaped numbers alongside throughput. Use
// cmd/experiments to print the full tables.

import (
	"strconv"
	"strings"
	"testing"

	"streamdb/internal/experiments"
	"streamdb/internal/query"
	"streamdb/internal/stream"
)

// benchScale maps b.N (iterations of the whole experiment) to a
// fixed modest scale: experiments are macro-benchmarks, so each
// iteration runs the whole workload.
const benchScale = experiments.Scale(0.1)

func parseMetric(tb *experiments.Table, row, col int) float64 {
	s := strings.TrimSuffix(tb.Rows[row][col], "x")
	f, _ := strconv.ParseFloat(s, 64)
	return f
}

func BenchmarkE1WindowJoinRegimes(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E1WindowJoinRegimes(benchScale)
	}
	b.ReportMetric(parseMetric(tb, 0, 2), "hashOut_cpuLimited")
	b.ReportMetric(parseMetric(tb, 3, 2), "inlOut_memLimited")
}

func BenchmarkE2BoundedMemoryAgg(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E2BoundedMemoryAgg(benchScale)
	}
	b.ReportMetric(parseMetric(tb, 0, 2), "unboundedGroups")
	b.ReportMetric(parseMetric(tb, 1, 2), "boundedGroups")
}

func BenchmarkE3RateBasedPlans(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E3RateBasedPlans(benchScale)
	}
	b.ReportMetric(parseMetric(tb, 0, 2), "bestPlan_tps")
	b.ReportMetric(parseMetric(tb, 1, 2), "worstPlan_tps")
}

func BenchmarkE4SchedulingBacklog(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E4SchedulingBacklog(benchScale)
	}
	b.ReportMetric(parseMetric(tb, 2, 2), "fifoPeak")
	b.ReportMetric(parseMetric(tb, 4, 2), "greedyPeak")
	b.ReportMetric(parseMetric(tb, 5, 2), "chainPeak")
}

func BenchmarkE5LoadShedding(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E5LoadShedding(benchScale)
	}
	last := len(tb.Rows) - 2
	b.ReportMetric(parseMetric(tb, last, 3), "randomRecall_70drop")
	b.ReportMetric(parseMetric(tb, last+1, 3), "semanticRecall_70drop")
}

func BenchmarkE6P2PDetection(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E6P2PDetection(benchScale)
	}
	b.ReportMetric(parseMetric(tb, 2, 3), "payloadVsPort_x")
}

func BenchmarkE7RTTMonitoring(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E7RTTMonitoring(benchScale)
	}
	b.ReportMetric(parseMetric(tb, len(tb.Rows)-1, 3), "recall_30sWindow")
}

func BenchmarkE8PartialAggregation(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E8PartialAggregation(benchScale)
	}
	b.ReportMetric(parseMetric(tb, len(tb.Rows)-1, 3), "reduction_16kSlots")
}

func BenchmarkE9SynopsisAccuracy(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E9SynopsisAccuracy(benchScale)
	}
	b.ReportMetric(parseMetric(tb, len(tb.Rows)-1, 1), "gkMedianErrPct")
}

func BenchmarkE10SystemProfiles(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E10SystemProfiles(benchScale)
	}
	b.ReportMetric(parseMetric(tb, 0, 3), "auroraDroppedPct")
}

func BenchmarkE11XJoinSpill(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E11XJoinSpill(benchScale, b.TempDir())
	}
	b.ReportMetric(parseMetric(tb, 0, 4), "spilledTuples_smallBudget")
}

func BenchmarkE12WindowVariants(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E12WindowVariants(benchScale)
	}
	b.ReportMetric(parseMetric(tb, 1, 1)/parseMetric(tb, 0, 1), "slidingVsShifting_x")
}

func BenchmarkE13BlockIO(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E13BlockIO(benchScale, b.TempDir(), b.TempDir())
	}
	b.ReportMetric(parseMetric(tb, 1, 3), "randomSeeks")
	b.ReportMetric(parseMetric(tb, 0, 3), "mergeSeeks")
}

func BenchmarkE13FraudDetection(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E13FraudDetection(benchScale, b.TempDir())
	}
	b.ReportMetric(parseMetric(tb, len(tb.Rows)-1, 4), "day4Recall")
}

func BenchmarkE14MultiQuerySharing(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E14MultiQuerySharing(benchScale)
	}
	b.ReportMetric(parseMetric(tb, 4, 4), "selectSharing64q_x")
}

func BenchmarkE15DistributedFilters(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E15DistributedFilters(benchScale)
	}
	b.ReportMetric(parseMetric(tb, len(tb.Rows)-1, 3), "msgSaving_loose_x")
}

func BenchmarkE16EddyAdaptivity(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E16EddyAdaptivity(benchScale)
	}
	b.ReportMetric(parseMetric(tb, 2, 2), "eddyEvalsPerTuple_phase2")
	b.ReportMetric(parseMetric(tb, 3, 2), "fixedEvalsPerTuple_phase2")
}

func BenchmarkE17FaultTolerance(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E17FaultTolerance(benchScale)
	}
	// Recovery latency at the 5% drop-rate, batched-wire row (ms);
	// exactness is asserted by the chaos tests. Rows are (dropRate,
	// wirebatch) pairs, so 5%/wirebatch=16 is third from the end.
	row := len(tb.Rows) - 3
	s := strings.TrimSuffix(tb.Rows[row][6], "ms")
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		b.ReportMetric(f, "recovery_ms_at_5pct")
	}
	b.ReportMetric(parseMetric(tb, row, 3), "reconnects_at_5pct")
}

func BenchmarkE21TransportWire(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E21TransportWire(benchScale)
	}
	// Rows: batch 1, 16, 64, 256.
	b.ReportMetric(parseMetric(tb, 0, 5), "b1_ktuples_s")
	b.ReportMetric(parseMetric(tb, 2, 5), "b64_ktuples_s")
	b.ReportMetric(parseMetric(tb, 0, 4), "selfdesc_bytes_per_tuple")
	b.ReportMetric(parseMetric(tb, 2, 2), "b64_bytes_per_tuple")
}

func BenchmarkE22CrashRecovery(b *testing.B) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.E22CrashRecovery(benchScale, b.TempDir())
	}
	// Final row is the recovered run: exactness is asserted by
	// TestE22Shape; report the replay cost the checkpoints bound.
	last := len(tb.Rows) - 1
	b.ReportMetric(parseMetric(tb, last, 4), "dupes_suppressed")
	b.ReportMetric(parseMetric(tb, last, 3), "epochs_committed")
}

// Micro-benchmarks for the engine's hot paths.

func BenchmarkQueryFilterThroughput(b *testing.B) {
	cat := query.NewCatalog()
	sch := stream.TrafficSchema("Traffic")
	cat.Register("Traffic", sch)
	q, err := query.Parse("select srcIP, length from Traffic where protocol = 6 and length > 512")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := query.Compile(q, cat)
	if err != nil {
		b.Fatal(err)
	}
	_ = plan
	b.ResetTimer()
	b.ReportAllocs()
	rows, _, err := query.Run(q.Text, cat, map[string]stream.Source{
		"Traffic": stream.Limit(stream.NewTrafficStream(1, 1e6, 1000), b.N),
	}, -1)
	if err != nil {
		b.Fatal(err)
	}
	if b.N > 100 && len(rows) == 0 {
		b.Fatal("no output")
	}
}

func BenchmarkQueryWindowAggThroughput(b *testing.B) {
	cat := query.NewCatalog()
	cat.Register("Traffic", stream.TrafficSchema("Traffic"))
	b.ResetTimer()
	b.ReportAllocs()
	_, _, err := query.Run(
		"select srcIP, count(*) as c, sum(length) as bytes from Traffic [range 1] group by srcIP",
		cat, map[string]stream.Source{
			"Traffic": stream.Limit(stream.NewTrafficStream(2, 1e6, 1000), b.N),
		}, -1)
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkParseCompile(b *testing.B) {
	cat := query.NewCatalog()
	cat.Register("Traffic", stream.TrafficSchema("Traffic"))
	const sql = `select tb, srcIP, sum(length) from Traffic [range 60]
		where protocol = 6 group by time/60 as tb, srcIP having count(*) > 5`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := query.Parse(sql)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := query.Compile(q, cat); err != nil {
			b.Fatal(err)
		}
	}
}
