package exec

// Tests for the adaptive controller: policy unit tests against a
// synthetic pressure signal (batch decay, slope-weighted growth,
// sustained-idle shrink, shed escalation and decay, rate-model
// seeding), plus end-to-end equivalence — below capacity an adaptive
// run must stay byte-identical to the serial engine across every lane,
// including live key-partition re-splits forced mid-stream.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamdb/internal/ops"
	"streamdb/internal/shed"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// costOp is a replicable pass-through declaring rate-model costs.
type costOp struct {
	name     string
	sch      *tuple.Schema
	sel, uc  float64
	pushed   int64
	everyN   int
	napEvery time.Duration
}

func (c *costOp) Name() string             { return c.name }
func (c *costOp) OutSchema() *tuple.Schema { return c.sch }
func (c *costOp) NumInputs() int           { return 1 }
func (c *costOp) MemSize() int             { return 0 }
func (c *costOp) Flush(ops.Emit)           {}
func (c *costOp) Selectivity() float64     { return c.sel }
func (c *costOp) UnitCost() float64        { return c.uc }
func (c *costOp) Push(_ int, e stream.Element, emit ops.Emit) {
	if !e.IsPunct() {
		c.pushed++
		if c.everyN > 0 && c.pushed%int64(c.everyN) == 0 {
			time.Sleep(c.napEvery)
		}
	}
	emit(e)
}

// paceOp is a non-replicable pass-through that sleeps periodically so
// the controller gets ticks while data is still flowing. Deterministic:
// identical output in serial and adaptive runs.
type paceOp struct {
	name  string
	sch   *tuple.Schema
	seen  int64
	every int64
	nap   time.Duration
}

func (p *paceOp) Name() string             { return p.name }
func (p *paceOp) OutSchema() *tuple.Schema { return p.sch }
func (p *paceOp) NumInputs() int           { return 1 }
func (p *paceOp) MemSize() int             { return 0 }
func (p *paceOp) Flush(ops.Emit)           {}
func (p *paceOp) Push(_ int, e stream.Element, emit ops.Emit) {
	if !e.IsPunct() {
		p.seen++
		if p.seen%p.every == 0 {
			time.Sleep(p.nap)
		}
	}
	emit(e)
}

// adaptHarness builds a controller over a graph without running it.
func adaptHarness(t *testing.T, g *Graph, opts RunOptions, maxP int) (*concRun, *adaptState) {
	t.Helper()
	if opts.Adapt == nil {
		opts.Adapt = &AdaptConfig{}
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 64
	}
	if opts.ChanCap <= 0 {
		opts.ChanCap = 4
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = 1
	}
	r := &concRun{g: g, opts: opts, pending: make([]int64, len(g.nodes))}
	a := newAdaptState(g, opts, maxP)
	r.adapt = a
	return r, a
}

func TestAdaptControllerPolicy(t *testing.T) {
	g := NewGraph(nil)
	src := g.AddSource(stream.FromElements(sch))
	sel := g.AddOp(mustSelect(t, -1))
	dropper, err := shed.NewRandom("drop", sch, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := g.AddOp(dropper)
	if err := g.ConnectSource(src, sel, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(sel, sh, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(sh); err != nil {
		t.Fatal(err)
	}
	var decisions []AdaptDecision
	opts := RunOptions{BatchSize: 64, ChanCap: 4, Parallelism: 1,
		Adapt: &AdaptConfig{OnDecision: func(d AdaptDecision) { decisions = append(decisions, d) }}}
	r, a := adaptHarness(t, g, opts, 3)
	a.kind[sel] = laneRepl
	if len(a.shed) != 1 || a.shed[0] != int(sh) {
		t.Fatalf("shedder discovery: %v, want [%d]", a.shed, sh)
	}

	// Idle queues: batch targets decay to MinBatch, no width change.
	for i := 0; i < 6; i++ {
		a.tick(r)
	}
	if tgt := atomic.LoadInt64(&a.batchTgt[len(g.nodes)]); tgt != int64(a.cfg.MinBatch) {
		t.Errorf("idle source batch target = %d, want MinBatch %d", tgt, a.cfg.MinBatch)
	}
	if w := atomic.LoadInt32(&a.actP[sel]); w != 1 {
		t.Errorf("idle width = %d, want 1", w)
	}

	// Pressure on the replicable stage: grow one step per tick to the
	// ceiling, and batch targets snap back to full.
	capEls := int64(r.opts.ChanCap * r.opts.BatchSize)
	for i := 0; i < 2; i++ {
		atomic.StoreInt64(&r.pending[sel], capEls*3/4)
		a.tick(r)
	}
	if w := atomic.LoadInt32(&a.actP[sel]); w != 3 {
		t.Errorf("width after 2 pressured ticks = %d, want 3 (one step per tick)", w)
	}
	if tgt := atomic.LoadInt64(&a.batchTgt[len(g.nodes)]); tgt != int64(r.opts.BatchSize) {
		t.Errorf("pressured source batch target = %d, want %d", tgt, r.opts.BatchSize)
	}

	// Still pressured with replication exhausted: shedding engages.
	atomic.StoreInt64(&r.pending[sel], capEls*3/4)
	a.tick(r)
	if a.shedRate <= 0 {
		t.Fatalf("shed rate = %v after pressure at ceiling, want > 0", a.shedRate)
	}
	if got := dropper.Rate(); got != a.shedRate {
		t.Errorf("shedder rate = %v, want %v (applyShed must reach the live op)", got, a.shedRate)
	}
	if g.nodes[sh].stats.ShedRate != a.shedRate {
		t.Errorf("stats.ShedRate = %v, want %v", g.nodes[sh].stats.ShedRate, a.shedRate)
	}

	// Pressure clears: the rate decays all the way off and the width
	// shrinks after sustained idleness.
	atomic.StoreInt64(&r.pending[sel], 0)
	for i := 0; i < 40; i++ {
		a.tick(r)
	}
	if a.shedRate != 0 {
		t.Errorf("shed rate = %v after idle decay, want 0", a.shedRate)
	}
	if dropper.Rate() != 0 {
		t.Errorf("shedder rate = %v after idle decay, want 0", dropper.Rate())
	}
	if w := atomic.LoadInt32(&a.actP[sel]); w != 1 {
		t.Errorf("width after sustained idleness = %d, want 1", w)
	}
	var acts []string
	for _, d := range decisions {
		acts = append(acts, d.Action)
	}
	for _, want := range []string{"batch", "grow", "shed", "shrink"} {
		found := false
		for _, a := range acts {
			if a == want {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q decision observed (got %v)", want, acts)
		}
	}
}

func TestAdaptSeedFromRateModel(t *testing.T) {
	g := NewGraph(nil)
	src := g.AddSource(stream.FromElements(sch))
	heavy := &costOp{name: "heavy", sch: sch, sel: 1, uc: 3}
	hv := g.AddOp(heavy)
	if err := g.ConnectSource(src, hv, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(hv); err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{BatchSize: 64, ChanCap: 4, Parallelism: 1,
		Adapt: &AdaptConfig{ExpectedRate: 1000}}
	_, a := adaptHarness(t, g, opts, 8)
	a.kind[hv] = laneRepl
	a.seed(g)
	// UnitCost 3 at the expected rate: per-replica capacity er/3, so the
	// stage needs ceil(er / (er/3)) = 3 replicas from the start.
	if w := atomic.LoadInt32(&a.actP[hv]); w != 3 {
		t.Errorf("seeded width = %d, want 3", w)
	}
	if a.shedRate != 0 {
		t.Errorf("seeded shed rate = %v, want 0 (demand within pool)", a.shedRate)
	}

	// Demand beyond the pool ceiling pre-warms the shed rate.
	_, a2 := adaptHarness(t, g, opts, 2)
	a2.kind[hv] = laneRepl
	a2.seed(g)
	if w := atomic.LoadInt32(&a2.actP[hv]); w != 2 {
		t.Errorf("clamped seeded width = %d, want 2", w)
	}
	if a2.shedRate <= 0 {
		t.Errorf("seeded shed rate = %v, want > 0 (chain demand 3 > pool 2)", a2.shedRate)
	}
}

// adStream is pjStream without stragglers: per-key-monotone timestamps,
// so a live re-split preserves byte order, not just the multiset.
func adStream(n int, port int64, keys int64, seed int64) []stream.Element {
	rng := rand.New(rand.NewSource(seed))
	var elems []stream.Element
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += 2 * (1 + rng.Int63n(3))
		elems = append(elems, stream.Tup(tuple.New(ts+port,
			tuple.Time(ts+port), tuple.Int(rng.Int63n(keys)), tuple.Int(int64(i)))))
		if i%61 == 60 && ts > 40 {
			p := ts + port - 40
			elems = append(elems, stream.Punct(stream.ProgressPunct(p, 0, tuple.Time(p))))
		}
	}
	return elems
}

// runAdaptJoin drives (source 0 -> pace, source 1 -> pace) -> join ->
// sink; opts == nil uses the serial deterministic Run. The pace stages
// stretch the run so the controller observes it mid-flight.
func runAdaptJoin(t *testing.T, j ops.Operator, left, right []stream.Element, opts *RunOptions) (NodeStats, []string) {
	t.Helper()
	var mu sync.Mutex
	var got []string
	g := NewGraph(func(e stream.Element) {
		mu.Lock()
		defer mu.Unlock()
		if e.IsPunct() {
			got = append(got, fmt.Sprintf("punct@%d", e.Punct.Ts))
			return
		}
		got = append(got, fmt.Sprintf("%d|%s", e.Tuple.Ts, e.Tuple.String()))
	})
	sl := g.AddSource(stream.FromElements(pjLeft, left...))
	sr := g.AddSource(stream.FromElements(pjRight, right...))
	pl := g.AddOp(&paceOp{name: "paceL", sch: pjLeft, every: 64, nap: 200 * time.Microsecond})
	pr := g.AddOp(&paceOp{name: "paceR", sch: pjRight, every: 64, nap: 200 * time.Microsecond})
	n := g.AddOp(j)
	if err := g.ConnectSource(sl, pl, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectSource(sr, pr, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(pl, n, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(pr, n, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(n); err != nil {
		t.Fatal(err)
	}
	if opts == nil {
		g.Run(-1)
	} else {
		g.RunWith(-1, *opts)
	}
	return g.Stats(n), got
}

// TestAdaptiveRescaleByteIdentity forces the controller through a cycle
// of key-partition widths while a window join runs, and requires the
// output to stay byte-identical to the serial engine — the state
// handoff (quiesce, snapshot, RestorePartition) must be invisible. Both
// the row and the columnar router are exercised.
func TestAdaptiveRescaleByteIdentity(t *testing.T) {
	left := adStream(1500, 0, 6, 42)
	right := adStream(1500, 1, 6, 99)
	_, base := runAdaptJoin(t, pjJoin(t, ops.JoinHash, ops.JoinHash, false), left, right, nil)
	if len(base) == 0 {
		t.Fatal("serial baseline produced nothing")
	}
	widths := []int{3, 1, 4, 2}
	for _, columnar := range []bool{false, true} {
		adapt := &AdaptConfig{
			Interval:       100 * time.Microsecond,
			MaxParallelism: 4,
			testWant: func(id NodeID, tick int) int {
				return widths[(tick/3)%len(widths)]
			},
		}
		opts := &RunOptions{BatchSize: 7, Parallelism: 2, ForceParallelism: true,
			PartitionJoins: true, Columnar: columnar, Adapt: adapt}
		st, got := runAdaptJoin(t, pjJoin(t, ops.JoinHash, ops.JoinHash, false), left, right, opts)
		sameSeq(t, fmt.Sprintf("adaptive columnar=%v", columnar), got, base)
		if st.Rescales == 0 {
			t.Errorf("columnar=%v: Rescales = 0, want at least one live re-split", columnar)
		}
		if st.Replicas < 1 || st.Replicas > 4 {
			t.Errorf("columnar=%v: Replicas = %d, want within [1,4]", columnar, st.Replicas)
		}
	}
}

// TestAdaptiveRescaleStragglers covers re-splits over out-of-order
// inputs: per-key timestamps are no longer monotone, so the contract
// weakens to multiset equality (rescale.go's documented bound).
func TestAdaptiveRescaleStragglers(t *testing.T) {
	left := pjStream(1200, 0, 5, 3)
	right := pjStream(1200, 1, 5, 4)
	count := func(out []string) map[string]int {
		m := map[string]int{}
		for _, s := range out {
			if len(s) < 5 || s[:5] != "punct" {
				m[s]++
			}
		}
		return m
	}
	_, baseSeq := runAdaptJoin(t, pjJoin(t, ops.JoinHash, ops.JoinHash, false), left, right, nil)
	base := count(baseSeq)
	if len(base) == 0 {
		t.Fatal("serial baseline produced nothing")
	}
	adapt := &AdaptConfig{
		Interval:       100 * time.Microsecond,
		MaxParallelism: 4,
		testWant: func(id NodeID, tick int) int {
			return []int{4, 2, 3, 1}[(tick/3)%4]
		},
	}
	opts := &RunOptions{BatchSize: 7, Parallelism: 2, ForceParallelism: true,
		PartitionJoins: true, Adapt: adapt}
	st, gotSeq := runAdaptJoin(t, pjJoin(t, ops.JoinHash, ops.JoinHash, false), left, right, opts)
	got := count(gotSeq)
	if st.Rescales == 0 {
		t.Error("Rescales = 0, want at least one live re-split")
	}
	if len(got) != len(base) {
		t.Fatalf("adaptive: %d distinct rows, want %d", len(got), len(base))
	}
	for k, v := range base {
		if got[k] != v {
			t.Errorf("row %q: count %d, want %d", k, got[k], v)
		}
	}
}

// TestAdaptiveMatchesSerialAllLanes: with the controller live (real
// policy, tiny interval — no forced widths) every lane family must stay
// byte-identical to the serial run below capacity.
func TestAdaptiveMatchesSerialAllLanes(t *testing.T) {
	adapt := func() *AdaptConfig {
		return &AdaptConfig{Interval: 100 * time.Microsecond, MaxParallelism: 4}
	}

	// Stateless replication lane (Select -> Project).
	var elems []stream.Element
	for i := int64(0); i < 2000; i++ {
		elems = append(elems, el(i, i%40))
		if i%100 == 99 {
			elems = append(elems, stream.Punct(stream.ProgressPunct(i, 0, tuple.Time(i))))
		}
	}
	base := pipelineOutputs(t, elems, RunOptions{BatchSize: 1})
	got := pipelineOutputs(t, elems, RunOptions{BatchSize: 64, Parallelism: 2,
		ForceParallelism: true, Adapt: adapt()})
	sameSeq(t, "stateless lane", got, base)

	// Partial-aggregation lane (GroupBy behind the combiner merge).
	panes := paneStream(3000, false)
	_, aggBase := runPaneGraph(t, paneGroupBy(t, window.Time(80, 20), []string{"sum", "count"}, true), panes, nil)
	if len(aggBase) == 0 {
		t.Fatal("aggregation baseline produced nothing")
	}
	_, aggGot := runPaneGraph(t, paneGroupBy(t, window.Time(80, 20), []string{"sum", "count"}, true), panes,
		&RunOptions{BatchSize: 64, Parallelism: 2, ForceParallelism: true, Adapt: adapt()})
	sameSeq(t, "partial-agg lane", aggGot, aggBase)

	// Key-partitioned lane, live policy.
	left := pjStream(1000, 0, 6, 7)
	right := pjStream(1000, 1, 6, 8)
	_, jBase := runPartJoin(t, pjJoin(t, ops.JoinHash, ops.JoinHash, true), left, right, nil)
	_, jGot := runPartJoin(t, pjJoin(t, ops.JoinHash, ops.JoinHash, true), left, right,
		&RunOptions{BatchSize: 32, Parallelism: 2, ForceParallelism: true,
			PartitionJoins: true, Adapt: adapt()})
	if !slices.Equal(jGot, jBase) {
		// Say whether only the order differs before the positional check
		// fails: a re-split promises the serial order only for monotone
		// per-key timestamps, and multiset equality otherwise.
		got, base := slices.Clone(jGot), slices.Clone(jBase)
		slices.Sort(got)
		slices.Sort(base)
		t.Logf("key-partition lane: outputs multiset-equal to the serial run: %v", slices.Equal(got, base))
	}
	sameSeq(t, "key-partition lane", jGot, jBase)
}

// TestAdaptiveShedsUnderOverload drives a graph past the capacity of
// its one-replica ceiling and checks the escalation endpoint: the
// controller raises the in-graph shedder's rate while the run is live,
// and the sink sees fewer tuples than entered.
func TestAdaptiveShedsUnderOverload(t *testing.T) {
	const n = 4000
	var elems []stream.Element
	for i := int64(0); i < n; i++ {
		elems = append(elems, el(i, i%40))
	}
	var out int64
	g := NewGraph(func(e stream.Element) {
		if !e.IsPunct() {
			atomic.AddInt64(&out, 1)
		}
	})
	src := g.AddSource(stream.FromElements(sch, elems...))
	dropper, err := shed.NewRandom("drop", sch, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	sh := g.AddOp(dropper)
	slow := &costOp{name: "slow", sch: sch, sel: 1, uc: 1, everyN: 16, napEvery: 100 * time.Microsecond}
	sl := g.AddOp(slow)
	if err := g.ConnectSource(src, sh, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(sh, sl, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(sl); err != nil {
		t.Fatal(err)
	}
	var shedSeen atomic.Bool
	g.RunWith(-1, RunOptions{BatchSize: 16, ChanCap: 2, Parallelism: 1, ForceParallelism: true,
		Adapt: &AdaptConfig{
			Interval:       100 * time.Microsecond,
			MaxParallelism: 1, // replication exhausted from the start
			OnDecision: func(d AdaptDecision) {
				if d.Action == "shed" && d.ShedRate > 0 {
					shedSeen.Store(true)
				}
			},
		}})
	if !shedSeen.Load() {
		t.Fatal("controller never raised the shed rate under sustained overload")
	}
	if dropped := dropper.Dropped(); dropped == 0 {
		t.Error("shedder dropped nothing despite a raised rate")
	}
	if out == n {
		t.Error("sink saw every tuple; shedding had no effect")
	}
}

// TestAllStatsJSON: the -stats surface must serialize cleanly with
// names attached.
func TestAllStatsJSON(t *testing.T) {
	var elems []stream.Element
	for i := int64(0); i < 100; i++ {
		elems = append(elems, el(i, i))
	}
	got := pipelineOutputs(t, elems, RunOptions{BatchSize: 8, Parallelism: 2,
		ForceParallelism: true, Adapt: &AdaptConfig{Interval: time.Millisecond}})
	if len(got) == 0 {
		t.Fatal("pipeline produced nothing")
	}
}

func TestAllStatsNames(t *testing.T) {
	g := NewGraph(nil)
	src := g.AddSource(stream.FromElements(sch))
	sel := g.AddOp(mustSelect(t, -1))
	if err := g.ConnectSource(src, sel, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectOut(sel); err != nil {
		t.Fatal(err)
	}
	all := g.AllStats()
	if len(all) != 1 || all[0].Op == "" || all[0].Node != sel {
		t.Fatalf("AllStats = %+v, want one named entry for node %d", all, sel)
	}
	if _, err := json.Marshal(all); err != nil {
		t.Fatalf("AllStats must be JSON-serializable: %v", err)
	}
}
