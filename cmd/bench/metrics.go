package main

// The benchmark's vocabulary: every metric it prints, by name, unit and
// direction. BENCHMARK.json at the repository root carries the same
// lists (TestBenchmarkJSONMatches fails when the two drift); later
// issues cite these names.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is printed with -trace 0, by every workload. The bounds are
// what a shared host's own drift allows (README.md, "Bounds"): a bound
// inside it would reject unchanged code.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "tuples_per_s", Unit: "tuples/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
}

// rungs are the open-loop ladder's rates as multiples of the workload's
// reference rate; x1 is the rate the end-to-end latency is taken at.
var rungs = []struct {
	label string
	mult  float64
}{{"x0.5", 0.5}, {"x1", 1}, {"x2", 2}, {"x4", 4}, {"x8", 8}}

// perLayer is printed with -trace 1, by every workload. A layer that
// does no work on a workload reports 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lower("stream.gen_ns_per_tuple", "ns/tuple"),
		lower("stream.source_next_ns_per_tuple", "ns/tuple"),
		lower("stream.transpose_ns_per_tuple", "ns/tuple"),
		lower("stream.gather_ns_per_tuple", "ns/tuple"),

		lower("tuple.encode_batch_ns_per_tuple", "ns/tuple"),
		lower("tuple.decode_batch_ns_per_tuple", "ns/tuple"),
		lower("tuple.wire_bytes_per_tuple", "B/tuple"),
		lower("tuple.decode_allocs_per_tuple", "allocs/tuple"),

		lower("expr.eval_ns_per_row", "ns/row"),
		lower("expr.fast_ns_per_row", "ns/row"),
		lower("expr.kernel_ns_per_row", "ns/row"),
		lower("expr.selectivity", "share"),

		lower("ops.select_ns_per_tuple", "ns/tuple"),
		lower("ops.select_batch_ns_per_tuple", "ns/tuple"),
		lower("ops.project_ns_per_tuple", "ns/tuple"),
		lower("ops.join_ns_per_tuple", "ns/tuple"),
		lower("ops.join_batch_ns_per_tuple", "ns/tuple"),
		lower("ops.join_out_per_in", "rows/tuple"),
		lower("ops.join_mem_peak_bytes", "bytes"),

		lower("agg.groupby_ns_per_tuple", "ns/tuple"),
		lower("agg.groupby_batch_ns_per_tuple", "ns/tuple"),
		lower("agg.window_close_us", "us"),
		lower("agg.rows_out_per_in", "rows/tuple"),
		lower("agg.mem_peak_bytes", "bytes"),

		lower("exec.serial_ns_per_tuple", "ns/tuple"),
		lower("exec.serial_overhead_ns_per_tuple", "ns/tuple"),
		lower("exec.pump_ns_per_feed", "ns/feed"),
		lower("exec.runwith_row_p1_ns_per_tuple", "ns/tuple"),
		lower("exec.runwith_col_p1_ns_per_tuple", "ns/tuple"),
		lower("exec.runwith_col_p2_ns_per_tuple", "ns/tuple"),
		lower("exec.row_fallbacks", "count"),
		higher("exec.batches", "count"),
		lower("exec.max_queue", "tuples"),

		lower("query.parse_compile_us", "us"),
		lower("query.build_us", "us"),
		lower("query.frontdoor_ns_per_tuple", "ns/tuple"),

		lower("dsms.send_ns_per_tuple", "ns/tuple"),
		higher("dsms.loopback_tuples_per_s", "tuples/s"),
		lower("dsms.bytes_per_tuple", "B/tuple"),
		lower("dsms.flush_wait_us", "us"),
		higher("dsms.source_wait_share", "share"),
		lower("dsms.resent_tuples", "count"),
		lower("dsms.reconnects", "count"),

		lower("harness.sink_ns_per_tuple", "ns/tuple"),

		lower("loadgen.lag_p99_us", "us"),
		higher("loadgen.sent_tuples", "count"),
		lower("loadgen.backlog_end_tuples", "tuples"),
		lower("loadgen.whole_p999_us", "us"),
		higher("loadgen.sustainable_rate_tps", "tuples/s"),
	}
	for _, r := range rungs {
		defs = append(defs, lower("loadgen.p50_us."+r.label, "us"))
	}
	for _, r := range rungs {
		defs = append(defs, lower("loadgen.p99_us."+r.label, "us"))
	}
	return append(defs,
		lower("proc.cpu_s_per_mtuple", "s/Mtuple"),
		lower("proc.alloc_bytes_per_tuple", "B/tuple"),
		lower("proc.allocs_per_tuple", "allocs/tuple"),
		lower("proc.gc_pause_ms", "ms"),
		lower("proc.max_rss_mb", "MB"),

		higher("budget.explained_share", "share"),
		lower("budget.unexplained_ns_per_tuple", "ns/tuple"),
		lower("trace.overhead_share", "share"),
	)
}

// value is one measured metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values against a definition list and
// fills the ones a workload does not exercise with 0.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDesc `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadDesc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// describe is the content BENCHMARK.json must have; `bench -describe`
// prints it, so the file is generated and never edited by hand.
func describe() benchmarkJSON {
	d := benchmarkJSON{
		Command:    []string{"bash", "cmd/bench/run.sh"},
		Paths:      []string{"cmd/bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range specs {
		d.Workloads = append(d.Workloads, workloadDesc{Name: s.name, Why: s.why})
	}
	return d
}
