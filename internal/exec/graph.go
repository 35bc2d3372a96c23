// Package exec is the dataflow execution engine: it wires sources and
// operators into a graph and runs it, either deterministically in
// virtual time (arrival order across sources defined by timestamps) or
// concurrently with one goroutine per operator connected by channels.
//
// The deterministic mode is what the experiments use — the tutorial's
// figures depend on exact arrival interleavings (slides 41, 43). The
// concurrent mode is the throughput-oriented deployment shape and the
// substrate for the system-profile comparisons of slide 52.
package exec

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"streamdb/internal/ops"
	"streamdb/internal/stream"
)

// NodeID identifies an operator node in a graph.
type NodeID int

// Sink receives graph outputs.
type Sink func(stream.Element)

type edge struct {
	to   NodeID // -1 = graph output
	port int
}

type node struct {
	op       ops.Operator
	out      []edge
	stats    NodeStats
	detached bool // true after a panic: the node no longer processes input
	// emit is the serial loop's output callback for this node, built once
	// in AddOp: it counts the output and queues it on every out edge.
	emit ops.Emit
	// memNext is the stats.In count at which the serial loop polls
	// MemSize next (see memStrideFor).
	memNext int64
}

// NodeStats is per-operator introspection (Aurora-style, slide 47).
type NodeStats struct {
	In, Out   int64
	MaxQueue  int
	MaxMemory int
	// Replicas records the effective replication width the concurrent
	// engine chose for this node on its last run: RunOptions.Parallelism
	// after the GOMAXPROCS cap, or 1 for unreplicated nodes.
	Replicas int
	// Routed counts, for key-partitioned nodes, the data elements the
	// hash-split router sent to each replica on the last concurrent run
	// (len == Replicas); nil for other nodes. The slice header is shared
	// with the engine's copy — treat it as read-only.
	Routed []int64
	// Panics counts operator panics converted into node failures by the
	// execution layer's isolation boundary.
	Panics int64
	// Batches counts column batches delivered to this node on the last
	// concurrent columnar run (per-replica deliveries summed).
	Batches int64
	// RowFallbacks counts columnar units that collapsed back to
	// row-at-a-time processing at this node: batches materialized by the
	// engine for row-only lanes, plus batches/spans an operator's own
	// columnar plan rerouted through its row path (e.g. a join outside
	// the fast envelope). Zero on an all-columnar run — the observability
	// hook for "did my pipeline actually stay columnar?".
	RowFallbacks int64
	// BatchTarget is the adaptive controller's current micro-batch
	// target for this node's output edges (0 on non-adaptive runs or
	// while the target sits at RunOptions.BatchSize).
	BatchTarget int
	// ShedRate is the controller-imposed drop rate on this node (only
	// nonzero for in-graph shedders under an adaptive run past
	// capacity).
	ShedRate float64
	// Rescales counts live key-partition re-splits applied to this node
	// by the adaptive controller on the last concurrent run.
	Rescales int64
	// SharedEvals/NaiveEvals mirror the work counters of a shared
	// multi-query fan-out node (optimizer/share): evaluations the
	// shared node actually performed vs what an unshared per-query
	// deployment would have spent on the same input. The ratio is the
	// node's live sharing degree. Zero for ordinary operators.
	SharedEvals int64
	NaiveEvals  int64
}

// sharedEvalStats is implemented by shared multi-query fan-out
// operators (e.g. share.SharedSelect); Stats/AllStats fold the
// counters into NodeStats so introspection surfaces (streamd -stats)
// see sharing degrees without importing the sharing layer.
type sharedEvalStats interface {
	EvalStats() (shared, naive int64)
}

func foldShared(op ops.Operator, st NodeStats) NodeStats {
	if se, ok := op.(sharedEvalStats); ok {
		st.SharedEvals, st.NaiveEvals = se.EvalStats()
	}
	return st
}

// NamedStats pairs a node with its counters for introspection dumps
// (streamd -stats serializes a slice of these as JSON).
type NamedStats struct {
	Node NodeID `json:"node"`
	Op   string `json:"op"`
	NodeStats
}

// AllStats snapshots every node's counters with names attached. Call it
// only while the graph is quiescent (between Pump calls, or after a
// concurrent run returns) — the counters are not synchronized.
func (g *Graph) AllStats() []NamedStats {
	out := make([]NamedStats, len(g.nodes))
	for i, n := range g.nodes {
		out[i] = NamedStats{Node: NodeID(i), Op: n.op.Name(), NodeStats: foldShared(n.op, n.stats)}
	}
	return out
}

// FailurePolicy selects what the engine does when an operator panics.
type FailurePolicy int

const (
	// FailFast (the default) stops the run at the first node failure;
	// Err reports it. In concurrent mode sources stop feeding and the
	// pipeline drains so the run still terminates cleanly.
	FailFast FailurePolicy = iota
	// Degrade detaches the failed node (its input is discarded from
	// then on) and keeps the rest of the graph running to completion —
	// graceful degradation for standing queries where partial results
	// beat no results. Err still reports the failure.
	Degrade
)

// NodeFailure describes one operator panic caught by the engine.
type NodeFailure struct {
	Node  NodeID
	Op    string
	Panic interface{}
	Stack string
}

// Error implements error.
func (f *NodeFailure) Error() string {
	return fmt.Sprintf("exec: node %d (%s) panicked: %v", f.Node, f.Op, f.Panic)
}

type sourceNode struct {
	src       stream.Source
	out       []edge
	peeked    stream.Element // valid while hasPeeked
	hasPeeked bool
	done      bool
	count     int64
}

// Graph is a dataflow of sources and operators.
type Graph struct {
	sources []*sourceNode
	nodes   []*node
	sink    Sink
	// workCap bounds the pending-work deque in deterministic mode; 0 =
	// unbounded. When the cap is hit, the oldest pending element is
	// dropped (tail-drop under overload) and counted.
	workCap int
	dropped int64
	// queue is the serial loop's pending work, consumed FIFO from qhead
	// and reset once drained, so a steady run reuses one backing array.
	queue []work
	qhead int

	// Panic isolation: operator panics become recorded node failures
	// instead of crashing (or deadlocking) the whole run.
	policy FailurePolicy
	halted atomic.Bool // FailFast tripped: stop admitting/feeding work
	failMu sync.Mutex
	failed []NodeFailure
	// failHook is set by RunWith while checkpointing is active: a node
	// failure must abort the pending barrier epoch or paused sources
	// would wait on it forever.
	failHook func()
}

// NewGraph builds an empty graph writing outputs to sink (may be nil).
func NewGraph(sink Sink) *Graph {
	if sink == nil {
		sink = func(stream.Element) {}
	}
	return &Graph{sink: sink}
}

// SetWorkCap bounds pending work (tuples queued between operators).
func (g *Graph) SetWorkCap(n int) { g.workCap = n }

// Dropped reports elements discarded by the work cap.
func (g *Graph) Dropped() int64 { return g.dropped }

// SetFailurePolicy selects fail-fast (default) or degrade handling of
// operator panics.
func (g *Graph) SetFailurePolicy(p FailurePolicy) { g.policy = p }

// Err reports the first node failure of the run, or nil.
func (g *Graph) Err() error {
	g.failMu.Lock()
	defer g.failMu.Unlock()
	if len(g.failed) == 0 {
		return nil
	}
	f := g.failed[0]
	return &f
}

// Failures returns every node failure recorded so far.
func (g *Graph) Failures() []NodeFailure {
	g.failMu.Lock()
	defer g.failMu.Unlock()
	out := make([]NodeFailure, len(g.failed))
	copy(out, g.failed)
	return out
}

// recordPanic converts an operator panic into a counted node failure.
// The node is detached (it processes no further input); under FailFast
// the whole run is flagged to halt. The node mutations happen under
// failMu because replicated workers may crash concurrently.
func (g *Graph) recordPanic(id NodeID, n *node, r interface{}) {
	g.failMu.Lock()
	n.stats.Panics++
	n.detached = true
	g.failed = append(g.failed, NodeFailure{Node: id, Op: n.op.Name(), Panic: r, Stack: string(debug.Stack())})
	g.failMu.Unlock()
	if g.policy == FailFast {
		g.halted.Store(true)
	}
	if g.failHook != nil {
		g.failHook()
	}
}

// failRun records a failure that belongs to no operator node (a source,
// a checkpoint restore) and halts the run under either failure policy:
// there is no node to detach.
func (g *Graph) failRun(op string, cause interface{}) {
	g.failMu.Lock()
	g.failed = append(g.failed, NodeFailure{Node: -1, Op: op, Panic: cause, Stack: string(debug.Stack())})
	g.failMu.Unlock()
	g.halted.Store(true)
}

// AddSource registers a stream source; connect it with ConnectSource.
func (g *Graph) AddSource(src stream.Source) int {
	g.sources = append(g.sources, &sourceNode{src: src})
	return len(g.sources) - 1
}

// AddOp registers an operator and returns its node ID.
func (g *Graph) AddOp(op ops.Operator) NodeID {
	n := &node{op: op}
	n.emit = func(out stream.Element) {
		n.stats.Out++
		for _, ed := range n.out {
			g.queue = append(g.queue, work{to: ed.to, port: ed.port, e: out})
		}
	}
	g.nodes = append(g.nodes, n)
	return NodeID(len(g.nodes) - 1)
}

// ConnectSource wires source si to input port of node to.
func (g *Graph) ConnectSource(si int, to NodeID, port int) error {
	if si < 0 || si >= len(g.sources) {
		return fmt.Errorf("exec: no source %d", si)
	}
	if err := g.checkPort(to, port); err != nil {
		return err
	}
	g.sources[si].out = append(g.sources[si].out, edge{to: to, port: port})
	return nil
}

// Connect wires node from's output to node to's input port.
func (g *Graph) Connect(from, to NodeID, port int) error {
	if int(from) < 0 || int(from) >= len(g.nodes) {
		return fmt.Errorf("exec: no node %d", from)
	}
	if err := g.checkPort(to, port); err != nil {
		return err
	}
	g.nodes[from].out = append(g.nodes[from].out, edge{to: to, port: port})
	return nil
}

// ConnectOut wires node from's output to the graph sink.
func (g *Graph) ConnectOut(from NodeID) error {
	if int(from) < 0 || int(from) >= len(g.nodes) {
		return fmt.Errorf("exec: no node %d", from)
	}
	g.nodes[from].out = append(g.nodes[from].out, edge{to: -1})
	return nil
}

func (g *Graph) checkPort(to NodeID, port int) error {
	if int(to) < 0 || int(to) >= len(g.nodes) {
		return fmt.Errorf("exec: no node %d", to)
	}
	if port < 0 || port >= g.nodes[to].op.NumInputs() {
		return fmt.Errorf("exec: node %s has no port %d", g.nodes[to].op.Name(), port)
	}
	return nil
}

// Stats returns a node's counters.
func (g *Graph) Stats(id NodeID) NodeStats {
	n := g.nodes[id]
	return foldShared(n.op, n.stats)
}

// AddSharedFanOut registers a shared multi-query fan-out node (e.g.
// share.SharedSelect) and terminates it at the graph output: the node
// delivers results to its own per-query sinks — as selection-vector
// views on the columnar lane — and emits nothing downstream, so the
// output edge exists only to give the engine a complete topology.
func (g *Graph) AddSharedFanOut(op ops.Operator) (NodeID, error) {
	id := g.AddOp(op)
	return id, g.ConnectOut(id)
}

// peek returns the source's next element without consuming it. Sources
// implementing stream.Resumable are not marked exhausted when they run
// dry: push-fed queues yield more elements after later Feed calls.
func (s *sourceNode) peek() (stream.Element, bool) {
	if s.done {
		return stream.Element{}, false
	}
	if !s.hasPeeked {
		e, ok := s.src.Next()
		if !ok {
			if r, resumable := s.src.(stream.Resumable); !resumable || !r.Resumable() {
				s.done = true
			}
			return stream.Element{}, false
		}
		s.peeked, s.hasPeeked = e, true
	}
	return s.peeked, true
}

func (s *sourceNode) take() stream.Element {
	e := s.peeked
	s.peeked, s.hasPeeked = stream.Element{}, false
	s.count++
	return e
}

type work struct {
	to   NodeID
	port int
	e    stream.Element
}

// Run executes deterministically in virtual time: the next element
// processed is always the pending arrival with the smallest timestamp
// across sources (ties by source index), and each arrival is pushed
// through the graph to completion before the next is admitted. Stops
// after maxElements source elements (< 0 = until sources exhaust), then
// flushes every operator in insertion order. Returns elements consumed.
func (g *Graph) Run(maxElements int64) int64 {
	consumed := g.Pump(maxElements)
	g.Finish()
	return consumed
}

// Pump processes up to maxElements currently-available source elements
// (< 0 = until sources run dry) without flushing operators. Push-fed
// (resumable) sources can be replenished and pumped again — the
// mechanism behind persistent/continuous queries (slide 19).
func (g *Graph) Pump(maxElements int64) int64 {
	var consumed int64
	for maxElements < 0 || consumed < maxElements {
		if g.halted.Load() {
			break
		}
		// Pick the earliest pending arrival.
		best := -1
		var bestTs int64
		for i, s := range g.sources {
			e, ok := s.peek()
			if !ok {
				continue
			}
			if best < 0 || e.Ts() < bestTs {
				best, bestTs = i, e.Ts()
			}
		}
		if best < 0 {
			break
		}
		src := g.sources[best]
		e := src.take()
		consumed++
		for _, ed := range src.out {
			g.queue = append(g.queue, work{to: ed.to, port: ed.port, e: e})
		}
		g.drain()
	}
	return consumed
}

// drain processes pending work FIFO until empty.
func (g *Graph) drain() {
	for g.qhead < len(g.queue) {
		if g.halted.Load() {
			break // fail-fast: abandon pending work; Err carries the cause
		}
		w := g.queue[g.qhead]
		overload := g.workCap > 0 && len(g.queue)-g.qhead > g.workCap
		g.queue[g.qhead] = work{} // a consumed slot must not pin its tuple
		g.qhead++
		if overload {
			g.dropped++ // tail-drop the oldest pending tuple
			continue
		}
		g.dispatch(w)
	}
	clear(g.queue[g.qhead:]) // non-empty only after a fail-fast break
	g.queue, g.qhead = g.queue[:0], 0
}

// memStrideFor is how many inputs the serial loop lets pass before it
// polls an operator's MemSize again, given the size it last reported.
// MemSize can be O(live state) — GroupBy walks every group of every
// open pane — so a fixed stride puts state-proportional work on every
// arrival. An entry MemSize visits accounts for at least memPollBytes
// of the total, so one poll per size/memPollBytes inputs keeps the walk
// to about one entry per input however large the state grows.
func memStrideFor(size int) int64 {
	const (
		minStride    = 64
		memPollBytes = 64
	)
	if s := int64(size / memPollBytes); s > minStride {
		return s
	}
	return minStride
}

func (g *Graph) dispatch(w work) {
	if w.to < 0 {
		g.sink(w.e)
		return
	}
	n := g.nodes[w.to]
	if n.detached {
		return // degraded node: input is discarded
	}
	n.stats.In++
	if l := len(g.queue) - g.qhead; l > n.stats.MaxQueue {
		n.stats.MaxQueue = l
	}
	g.safePush(w.to, n, w.port, w.e)
	// The high-water mark is sampled on a stride (memStrideFor), not per
	// element; Finish takes an exact sample after every operator's Flush.
	if !n.detached && n.stats.In >= n.memNext {
		m := n.op.MemSize()
		if m > n.stats.MaxMemory {
			n.stats.MaxMemory = m
		}
		n.memNext = n.stats.In + memStrideFor(m)
	}
}

// safePush is the panic-isolation boundary around one operator push.
func (g *Graph) safePush(id NodeID, n *node, port int, e stream.Element) {
	defer func() {
		if r := recover(); r != nil {
			g.recordPanic(id, n, r)
		}
	}()
	n.op.Push(port, e, n.emit)
}

// Finish flushes every operator (end-of-stream), in insertion order
// (sources feed nodes in the order they were added, so insertion order
// is a valid topological order for graphs built front-to-back).
func (g *Graph) Finish() {
	for id := range g.nodes {
		if g.halted.Load() {
			return
		}
		n := g.nodes[id]
		if n.detached {
			continue
		}
		g.safeFlush(NodeID(id), n)
		g.drain()
		// Exact post-flush sample: state peaks here, and the strided
		// dispatch-time sampling may have skipped the true maximum.
		if m := n.op.MemSize(); m > n.stats.MaxMemory {
			n.stats.MaxMemory = m
		}
	}
}

// safeFlush is the panic-isolation boundary around one operator flush.
func (g *Graph) safeFlush(id NodeID, n *node) {
	defer func() {
		if r := recover(); r != nil {
			g.recordPanic(id, n, r)
		}
	}()
	n.op.Flush(n.emit)
}

// RunConcurrent executes the graph with one goroutine per operator and
// batched channels between them (see RunWith). Arrival order across
// different sources is not deterministic; use Run for experiments that
// depend on interleaving. Returns when all sources are exhausted and
// the pipeline has flushed. maxElements < 0 = unbounded; chanCap is the
// per-edge channel capacity in batches (<= 0 uses the default).
func (g *Graph) RunConcurrent(maxElements int64, chanCap int) {
	g.RunWith(maxElements, RunOptions{ChanCap: chanCap})
}
