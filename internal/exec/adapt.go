// Adaptive runtime: a feedback controller inside RunWith.
//
// The paper's adaptivity machinery — rate-based operating points [VN02],
// Chain scheduling priorities [BBDM03], QoS load shedding (slide 44),
// eddies — historically steered only the serial virtual-time engine.
// This controller closes the loop for the concurrent engine: a per-run
// goroutine samples every node's edge-queue occupancy (the engine
// already counts queued elements per node for MaxQueue) on a fixed
// cadence and acts on it live, in escalation order:
//
//  1. micro-batch size — each producer's edge writer re-reads its batch
//     target at flush boundaries: full batches under pressure for
//     throughput, decaying toward MinBatch when the consumers idle so
//     punctuation latency shrinks;
//  2. replication — stateless (ops.Replicable) and partial-aggregation
//     (ops.PartialAggregable) lanes grow and shrink their active worker
//     set instantly (replicas are stateless or mergeable, so assignment
//     is free to change at any batch boundary); key-partitioned lanes
//     (ops.KeyPartitionable) re-split live through
//     the checkpoint path: the splitter quiesces the replicas, each one
//     Snapshots, and every new active replica rebuilds its slice of the
//     key space with ops.StateRescaler.RestorePartition;
//  3. semantic shedding — only when every pressured scalable node is
//     already at the pool ceiling does the controller raise the drop
//     rate of in-graph shedders (internal/shed), before queues hit
//     their capacity instead of after, and decays it once pressure
//     clears.
//
// Which backlogged node grows first is decided by Chain-scheduling
// drain priority: sched.Slopes over the graph's declared ops.Costs
// gives the steepest memory-drop-per-cost segment each node starts,
// and the controller multiplies occupancy by that slope. Initial
// operating points are seeded from the rate-based model: with
// AdaptConfig.ExpectedRate set, each costed stage starts at the
// replica count the [VN02] service-demand model predicts it needs.
//
// Everything the controller reads or writes crosses goroutines through
// atomics (queue occupancy, batch targets, active widths, shed rates),
// so the data path takes no locks and no per-element overhead beyond
// what the engine already paid. Decisions never change results: every
// lane's order-restoring merge is width-independent, batch sizing is
// semantically invisible by the engine's batching rules, and shedders
// stay at rate 0 below capacity — so below capacity the adaptive run
// remains byte-identical to the serial engine.
package exec

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"streamdb/internal/ops"
	"streamdb/internal/optimizer/rate"
	"streamdb/internal/sched"
)

// Lane kinds recorded per node for the controller.
const (
	laneStatic  = int8(iota) // runNode: not scalable
	laneRepl                 // runReplicated: stateless clones
	lanePartial              // runPartialReplicated: partial replicas + combiner
	laneKeyPart              // runKeyPartitioned: hash-split join replicas
)

// AdaptConfig enables the adaptive controller in RunWith. Adaptation is
// mutually exclusive with live barrier checkpointing and with Restore
// (both pin the lane layout for the whole run); when either is set the
// controller is disabled for that run.
type AdaptConfig struct {
	// Interval is the controller's sample cadence; <= 0 uses 2ms.
	Interval time.Duration
	// MaxParallelism caps how far the controller may grow any node's
	// replica set. <= 0 uses max(Parallelism, GOMAXPROCS). The worker
	// pools are sized to this ceiling up front; growth only activates
	// already-spawned workers.
	MaxParallelism int
	// MinBatch is the floor the per-edge batch target may decay to when
	// the pipeline idles; <= 0 uses 8 (capped at BatchSize).
	MinBatch int
	// HighWater and LowWater are queue-occupancy thresholds in [0,1]
	// (fraction of an edge's element capacity). Defaults 0.5 and 0.1.
	HighWater, LowWater float64
	// MaxShedRate caps the controller-imposed drop rate; <= 0 uses 0.95.
	MaxShedRate float64
	// ExpectedRate, when > 0, seeds initial replica counts from the
	// rate-based model: each stage declaring ops.Costs starts at the
	// width its service demand at this input rate requires (UnitCost is
	// interpreted relative to a per-replica capacity of ExpectedRate
	// tuples/interval).
	ExpectedRate float64
	// OnDecision, when set, observes every control action as it is
	// taken (from the controller goroutine; it must not call back into
	// the engine).
	OnDecision func(AdaptDecision)

	// testWant, when set (tests only), overrides the controller's
	// replica-width policy: called once per node per tick with the tick
	// index, a returned value > 0 becomes the wanted width.
	testWant func(id NodeID, tick int) int
}

// AdaptDecision is one controller action, for observability.
type AdaptDecision struct {
	Node     NodeID // -1 for graph-wide actions (shed rate)
	Op       string
	Action   string // "grow" | "shrink" | "batch" | "shed"
	Replicas int
	Batch    int
	ShedRate float64
	// Occupancy is the queue occupancy (fraction of edge capacity) that
	// triggered the action.
	Occupancy float64
}

// rateSetter is what the controller needs from an in-graph shedder
// (internal/shed.Random, internal/shed.Semantic — matched structurally
// so exec does not import shed).
type rateSetter interface {
	SetRate(float64)
	Rate() float64
}

// adaptState is the controller half of one adaptive RunWith: shared
// atomics the lanes read, plus the controller goroutine's bookkeeping.
type adaptState struct {
	cfg  AdaptConfig
	maxP int // worker-pool ceiling

	// batchTgt holds the per-producer micro-batch target: slot i < nodes
	// is node i, slot nodes+j is source j. Edge writers re-read their
	// slot at flush boundaries.
	batchTgt []int64
	// actP is each node's active replica width (what splitters route
	// over); wantP is the width the controller asks key-partitioned
	// splitters to re-split to at their next safe point.
	actP  []int32
	wantP []int32

	// Controller-local (single goroutine) state.
	kind     []int8
	rescaler []bool // keypart node supports live re-split
	shed     []int  // node ids of in-graph shedders
	prio     []float64
	cons     [][]int // consumers fed by each producer slot
	prods    [][]int // producer slots feeding each node
	lowTicks []int
	shedRate float64
	ticks    int

	done chan struct{}
	wg   sync.WaitGroup
}

// newAdaptState builds the controller state for a run; lanes fill in
// kind/rescaler as they are spawned.
func newAdaptState(g *Graph, opts RunOptions, maxP int) *adaptState {
	cfg := *opts.Adapt
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Millisecond
	}
	if cfg.MinBatch <= 0 {
		cfg.MinBatch = 8
	}
	if cfg.MinBatch > opts.BatchSize {
		cfg.MinBatch = opts.BatchSize
	}
	if cfg.HighWater <= 0 || cfg.HighWater > 1 {
		cfg.HighWater = 0.5
	}
	if cfg.LowWater <= 0 || cfg.LowWater >= cfg.HighWater {
		cfg.LowWater = cfg.HighWater / 5
	}
	if cfg.MaxShedRate <= 0 || cfg.MaxShedRate > 1 {
		cfg.MaxShedRate = 0.95
	}
	nn := len(g.nodes)
	a := &adaptState{
		cfg:      cfg,
		maxP:     maxP,
		batchTgt: make([]int64, nn+len(g.sources)),
		actP:     make([]int32, nn),
		wantP:    make([]int32, nn),
		kind:     make([]int8, nn),
		rescaler: make([]bool, nn),
		prio:     make([]float64, nn),
		cons:     make([][]int, nn+len(g.sources)),
		prods:    make([][]int, nn),
		lowTicks: make([]int, nn),
		done:     make(chan struct{}),
	}
	for i := range a.batchTgt {
		a.batchTgt[i] = int64(opts.BatchSize)
	}
	for i := range a.actP {
		a.actP[i] = int32(opts.Parallelism)
		a.wantP[i] = int32(opts.Parallelism)
	}
	// Producer → consumer map for per-edge batch targets, and shedder
	// discovery.
	for i, n := range g.nodes {
		for _, ed := range n.out {
			if ed.to >= 0 {
				a.cons[i] = append(a.cons[i], int(ed.to))
				a.prods[ed.to] = append(a.prods[ed.to], i)
			}
		}
		if _, ok := n.op.(rateSetter); ok {
			a.shed = append(a.shed, i)
		}
	}
	for j, s := range g.sources {
		for _, ed := range s.out {
			if ed.to >= 0 {
				a.cons[nn+j] = append(a.cons[nn+j], int(ed.to))
				a.prods[ed.to] = append(a.prods[ed.to], nn+j)
			}
		}
	}
	// Chain-scheduling drain priority: build the progress chart over the
	// nodes in insertion order (a valid topological order for graphs
	// built front-to-back) from declared costs; nodes without ops.Costs
	// model as unit-cost pass-throughs.
	specs := make([]sched.OpSpec, nn)
	for i, n := range g.nodes {
		specs[i] = sched.OpSpec{Sel: 1, Cost: 1}
		if c, ok := n.op.(ops.Costs); ok {
			if s := c.Selectivity(); s >= 0 && s <= 1 {
				specs[i].Sel = s
			}
			if uc := c.UnitCost(); uc > 0 {
				specs[i].Cost = uc
			}
		}
	}
	copy(a.prio, sched.Slopes(specs))
	return a
}

// seed applies the rate-based initial operating point [VN02]: with an
// expected arrival rate, each stage's service demand (admitted rate /
// per-replica capacity) predicts the replica count it needs before any
// feedback has been observed.
func (a *adaptState) seed(g *Graph) {
	er := a.cfg.ExpectedRate
	if er <= 0 {
		return
	}
	chain := make([]rate.Op, 0, len(g.nodes))
	in := er
	for i, n := range g.nodes {
		sel, cap := 1.0, math.Inf(1)
		if c, ok := n.op.(ops.Costs); ok {
			if s := c.Selectivity(); s >= 0 && s <= 1 {
				sel = s
			}
			if uc := c.UnitCost(); uc > 0 {
				// UnitCost 1 = one ExpectedRate's worth of capacity per
				// replica: demand is expressed in replicas directly.
				cap = er / uc
			}
		}
		chain = append(chain, rate.Op{Name: n.op.Name(), Sel: sel, Capacity: cap})
		if a.kind[i] != laneStatic {
			demand := int(math.Ceil(in / cap))
			if demand < 1 {
				demand = 1
			}
			if demand > a.maxP {
				demand = a.maxP
			}
			w := int32(demand)
			atomic.StoreInt32(&a.actP[i], w)
			atomic.StoreInt32(&a.wantP[i], w)
			g.nodes[i].stats.Replicas = demand
		}
		in = math.Min(in, cap) * sel
	}
	// The whole-chain service demand bounds what replication can buy; a
	// demand beyond the pool predicts shedding, so start the rate warm
	// instead of waiting for queues to prove it.
	if total := rate.ChainDemand(er, chain); total > float64(a.maxP) {
		a.shedRate = math.Min(a.cfg.MaxShedRate, 1-float64(a.maxP)/total)
	}
}

func (a *adaptState) start(r *concRun) {
	a.seed(r.g)
	if a.shedRate > 0 {
		a.applyShed(r)
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		t := time.NewTicker(a.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-a.done:
				return
			case <-t.C:
				a.tick(r)
			}
		}
	}()
}

func (a *adaptState) stop() {
	close(a.done)
	a.wg.Wait()
}

func (a *adaptState) decide(d AdaptDecision) {
	if a.cfg.OnDecision != nil {
		a.cfg.OnDecision(d)
	}
}

// occupancy is a node's queued-input fraction of its edge capacity.
// Capacity follows the live batch targets: a producer the controller
// throttled to MinBatch fills its ChanCap-batch channel with far fewer
// elements, and measuring against the configured BatchSize would leave
// a hard-backpressured throttled edge reading as near-idle — a dead
// band where the controller never re-escalates.
func (a *adaptState) occupancy(r *concRun, id int) float64 {
	tgt := int64(r.opts.BatchSize)
	for _, s := range a.prods[id] {
		if t := atomic.LoadInt64(&a.batchTgt[s]); t < tgt {
			tgt = t
		}
	}
	cap := float64(int64(r.opts.ChanCap) * tgt)
	q := float64(atomic.LoadInt64(&r.pending[id]))
	return q / cap
}

// scalable reports whether the controller may change this node's active
// width right now (key-partitioned nodes need StateRescaler support).
func (a *adaptState) scalable(id int) bool {
	switch a.kind[id] {
	case laneRepl, lanePartial:
		return true
	case laneKeyPart:
		return a.rescaler[id]
	}
	return false
}

// setWidth requests a new active width: stateless and partial lanes
// switch instantly (their splitters read actP per message); the
// key-partition lanes re-split at their next safe point when they see
// wantP change.
func (a *adaptState) setWidth(r *concRun, id, w int) {
	atomic.StoreInt32(&a.wantP[id], int32(w))
	if a.kind[id] != laneKeyPart {
		atomic.StoreInt32(&a.actP[id], int32(w))
		r.g.nodes[id].stats.Replicas = w
	}
}

// tick is one control interval: batch targets, then replication, then
// shedding — strictly in that escalation order.
func (a *adaptState) tick(r *concRun) {
	a.ticks++
	nn := len(r.g.nodes)
	occ := make([]float64, nn)
	maxOcc := 0.0
	for i := 0; i < nn; i++ {
		occ[i] = a.occupancy(r, i)
		if occ[i] > maxOcc {
			maxOcc = occ[i]
		}
	}

	// 1. Micro-batch targets per producer edge: full batches while any
	// consumer is pressured, halving toward MinBatch while all idle.
	for slot, cons := range a.cons {
		if len(cons) == 0 {
			continue
		}
		worst := 0.0
		for _, c := range cons {
			if occ[c] > worst {
				worst = occ[c]
			}
		}
		cur := atomic.LoadInt64(&a.batchTgt[slot])
		tgt := cur
		switch {
		case worst > a.cfg.HighWater:
			tgt = int64(r.opts.BatchSize)
		case worst < a.cfg.LowWater:
			if tgt = cur / 2; tgt < int64(a.cfg.MinBatch) {
				tgt = int64(a.cfg.MinBatch)
			}
		}
		if tgt != cur {
			atomic.StoreInt64(&a.batchTgt[slot], tgt)
			if slot < nn {
				r.g.nodes[slot].stats.BatchTarget = int(tgt)
				a.decide(AdaptDecision{Node: NodeID(slot), Op: r.g.nodes[slot].op.Name(),
					Action: "batch", Batch: int(tgt), Occupancy: worst})
			}
		}
	}

	// Test hook: deterministic width overrides.
	if a.cfg.testWant != nil {
		for i := 0; i < nn; i++ {
			if !a.scalable(i) {
				continue
			}
			if w := a.cfg.testWant(NodeID(i), a.ticks); w > 0 && w <= a.maxP {
				a.setWidth(r, i, w)
			}
		}
		return
	}

	// 2. Replication: grow the highest-priority pressured node one step
	// per tick (slope-weighted occupancy — the Chain drain order);
	// shrink a node only after sustained idleness.
	grew := false
	best, bestScore := -1, 0.0
	for i := 0; i < nn; i++ {
		if !a.scalable(i) {
			continue
		}
		act := int(atomic.LoadInt32(&a.actP[i]))
		if occ[i] > a.cfg.HighWater && act < a.maxP {
			score := occ[i] * (1 + a.prio[i])
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if occ[i] < a.cfg.LowWater {
			a.lowTicks[i]++
		} else {
			a.lowTicks[i] = 0
		}
	}
	if best >= 0 {
		w := int(atomic.LoadInt32(&a.actP[best])) + 1
		a.setWidth(r, best, w)
		grew = true
		a.decide(AdaptDecision{Node: NodeID(best), Op: r.g.nodes[best].op.Name(),
			Action: "grow", Replicas: w, Occupancy: occ[best]})
	} else {
		for i := 0; i < nn; i++ {
			if !a.scalable(i) || a.lowTicks[i] < 8 {
				continue
			}
			if act := int(atomic.LoadInt32(&a.actP[i])); act > 1 {
				a.lowTicks[i] = 0
				a.setWidth(r, i, act-1)
				a.decide(AdaptDecision{Node: NodeID(i), Op: r.g.nodes[i].op.Name(),
					Action: "shrink", Replicas: act - 1, Occupancy: occ[i]})
				break // one shrink per tick
			}
		}
	}

	// 3. Shedding: engage only when pressure persists with replication
	// exhausted — every pressured scalable node already at the ceiling —
	// and decay once the queues clear.
	if len(a.shed) == 0 {
		return
	}
	old := a.shedRate
	if maxOcc > a.cfg.HighWater && !grew {
		a.shedRate += 0.02 + 0.2*(maxOcc-a.cfg.HighWater)
		if a.shedRate > a.cfg.MaxShedRate {
			a.shedRate = a.cfg.MaxShedRate
		}
	} else if maxOcc < a.cfg.LowWater {
		a.shedRate = a.shedRate*0.7 - 0.01
		if a.shedRate < 0 {
			a.shedRate = 0
		}
	}
	if a.shedRate != old {
		a.applyShed(r)
		a.decide(AdaptDecision{Node: -1, Action: "shed", ShedRate: a.shedRate, Occupancy: maxOcc})
	}
}

func (a *adaptState) applyShed(r *concRun) {
	for _, id := range a.shed {
		r.g.nodes[id].op.(rateSetter).SetRate(a.shedRate)
		r.g.nodes[id].stats.ShedRate = a.shedRate
	}
}

// rescaleOp coordinates one key-partition re-split between the splitter
// and its workers: every worker snapshots its replica into its section
// slot, and once all sections are present each worker k < newAct
// rebuilds its slice of the key space at the new width.
type rescaleOp struct {
	sections [][]byte
	newAct   int
	snapWG   sync.WaitGroup // workers done snapshotting
	ready    chan struct{}  // closed when all sections are in
}
