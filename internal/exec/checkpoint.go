// Checkpointing: durable, aligned snapshots of a running graph.
//
// Serial mode (Graph.Run/Pump) is quiescent between Pump calls, so the
// caller drives checkpoints directly: SnapshotInto captures every
// operator section plus per-source replay positions, RestoreFrom plays
// them back into a freshly built graph of the same shape and fast-
// forwards the sources.
//
// Concurrent mode (RunWith with RunOptions.Checkpoint) aligns the cut
// with barrier punctuations, Chandy-Lamport style specialized to the
// engine's source-pause discipline: when a source has fed Every
// elements it asks the coordinator for the pending epoch, emits a
// barrier punctuation (always the last element of its batch — the
// edge writer flushes on punctuations) and blocks until the epoch
// resolves. Each node counts barriers from its input writers; on the
// last one it snapshots its state at that exact logical position and
// forwards a single barrier downstream. The three parallel lanes
// participate without losing exactness: replicated (stateless) lanes
// thread the barrier through the order-restoring merge, partial-
// aggregation lanes snapshot all P replicas plus the combiner and the
// merger's in-flight release queues, and key-partitioned lanes
// snapshot the splitter's port queues and every join replica. The
// sink-side consumer records the output count at the cut (OutSeq), the
// coordinator assembles the sections and commits them to the ckpt
// store, and the sources resume. Barriers never enter operators and
// never reach the user sink.
//
// Any source exhaustion, node failure, or snapshot error aborts the
// pending epoch and disables further checkpoints for the run — the
// last committed generation stays valid, which is the recovery
// contract.

package exec

import (
	"fmt"
	"sync"

	"streamdb/internal/ckpt"
)

// CheckpointConfig enables aligned checkpoints in RunWith.
type CheckpointConfig struct {
	// Store receives committed checkpoints.
	Store *ckpt.Store
	// Every is the per-source element interval between barriers.
	Every int64
	// OnCommit, when set, observes every epoch resolution: err is nil
	// for a durable commit, non-nil for an aborted epoch. Called with
	// coordinator state held — it must not call back into the engine.
	OnCommit func(epoch int64, err error)
	// Meta is merged into every checkpoint's replay metadata (e.g.
	// session stream sequence numbers captured by the caller).
	Meta func() map[string]uint64
}

func sectionName(id int) string { return fmt.Sprintf("n%d", id) }

// SnapshotInto captures the serial engine's state: one section per
// node (empty for operators without checkpointable state) and the
// per-source element counts for replay. The graph must be quiescent —
// between Pump calls, before Finish.
func (g *Graph) SnapshotInto(c *ckpt.Checkpoint) error {
	for id, n := range g.nodes {
		enc := &ckpt.Encoder{}
		if s, ok := n.op.(ckpt.Snapshotter); ok {
			if err := s.Snapshot(enc); err != nil {
				return fmt.Errorf("exec: snapshot node %d (%s): %w", id, n.op.Name(), err)
			}
		}
		data := enc.Bytes()
		if data == nil {
			data = []byte{}
		}
		c.Add(sectionName(id), data)
	}
	if c.Meta == nil {
		c.Meta = make(map[string]uint64, len(g.sources)+1)
	}
	c.Meta["par"] = 0
	for i, s := range g.sources {
		c.Meta[fmt.Sprintf("src%d", i)] = uint64(s.count)
	}
	return nil
}

// Checkpoint snapshots the quiescent serial graph and commits it as
// the given epoch. outSeq is the number of sink outputs the caller has
// delivered so far; extra metadata (e.g. transport sequence numbers)
// is merged into the checkpoint's replay positions.
func (g *Graph) Checkpoint(store *ckpt.Store, epoch, outSeq int64, extraMeta map[string]uint64) error {
	c := &ckpt.Checkpoint{Epoch: epoch, OutSeq: outSeq}
	if err := g.SnapshotInto(c); err != nil {
		return err
	}
	for k, v := range extraMeta {
		c.Meta[k] = v
	}
	return store.Commit(c)
}

// RestoreFrom plays a serial-engine checkpoint back into a freshly
// built graph of identical shape: every checkpointable operator's
// section is decoded, and each source is fast-forwarded past the
// elements the checkpointed run had already consumed.
func (g *Graph) RestoreFrom(c *ckpt.Checkpoint) error {
	if c.Meta["par"] != 0 {
		return fmt.Errorf("exec: checkpoint was taken by the concurrent engine (parallelism %d), not serial", c.Meta["par"])
	}
	for id, n := range g.nodes {
		s, ok := n.op.(ckpt.Snapshotter)
		if !ok {
			continue
		}
		if err := c.RestoreSection(sectionName(id), s); err != nil {
			return fmt.Errorf("exec: node %d (%s): %w", id, n.op.Name(), err)
		}
	}
	for i, s := range g.sources {
		n := int64(c.Meta[fmt.Sprintf("src%d", i)])
		for k := int64(0); k < n; k++ {
			if _, ok := s.src.Next(); !ok {
				return fmt.Errorf("exec: source %d exhausted after %d of %d replay elements", i, k, n)
			}
		}
		s.count = n
	}
	return nil
}

// ckptCtl coordinates one RunWith invocation's barrier epochs: sources
// join a pending epoch and block, nodes and lanes deposit their state
// sections, the sink consumer reports the output cut, and when the
// expected pieces are all in the epoch commits and the sources resume.
type ckptCtl struct {
	store    *ckpt.Store
	every    int64
	onCommit func(int64, error)
	metaFn   func() map[string]uint64
	baseMeta map[string]uint64
	// needSections/needSink are fixed once lanes are spawned, before
	// any source can reach a barrier.
	needSections int
	needSink     int

	mu       sync.Mutex
	cond     *sync.Cond
	next     int64
	pending  *pendingEpoch
	disabled bool
}

type pendingEpoch struct {
	epoch    int64
	c        *ckpt.Checkpoint
	sections int
	sinkDone bool
}

func newCkptCtl(cfg *CheckpointConfig, baseMeta map[string]uint64, firstEpoch int64) *ckptCtl {
	ctl := &ckptCtl{
		store:    cfg.Store,
		every:    cfg.Every,
		onCommit: cfg.OnCommit,
		metaFn:   cfg.Meta,
		baseMeta: baseMeta,
		next:     firstEpoch,
	}
	ctl.cond = sync.NewCond(&ctl.mu)
	return ctl
}

// barrier is called by a source that reached its element quota: the
// first caller opens the next epoch, later callers join it. Returns
// ok=false when checkpointing is disabled.
func (ctl *ckptCtl) barrier() (int64, bool) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	if ctl.disabled {
		return 0, false
	}
	if ctl.pending == nil {
		ctl.next++
		meta := make(map[string]uint64, len(ctl.baseMeta)+4)
		for k, v := range ctl.baseMeta {
			meta[k] = v
		}
		ctl.pending = &pendingEpoch{
			epoch: ctl.next,
			c:     &ckpt.Checkpoint{Epoch: ctl.next, Meta: meta},
		}
	}
	return ctl.pending.epoch, true
}

// sourceMeta records one source's replay position at its barrier.
func (ctl *ckptCtl) sourceMeta(epoch int64, key string, count uint64) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	if p := ctl.pending; p != nil && p.epoch == epoch {
		p.c.Meta[key] = count
	}
}

// wait blocks the source until its epoch commits or aborts.
func (ctl *ckptCtl) wait(epoch int64) {
	ctl.mu.Lock()
	for ctl.pending != nil && ctl.pending.epoch == epoch {
		ctl.cond.Wait()
	}
	ctl.mu.Unlock()
}

// addSnap encodes one operator's section into the pending epoch; a
// Snapshot error aborts the epoch. Operators without checkpointable
// state contribute an empty section, keeping the expected-section
// count purely structural.
func (ctl *ckptCtl) addSnap(epoch int64, name string, op interface{}) {
	enc := &ckpt.Encoder{}
	if s, ok := op.(ckpt.Snapshotter); ok {
		if err := s.Snapshot(enc); err != nil {
			ctl.abort(epoch, err)
			return
		}
	}
	ctl.addBytes(epoch, name, enc.Bytes())
}

// addBytes deposits a raw section (lane in-flight state).
func (ctl *ckptCtl) addBytes(epoch int64, name string, data []byte) {
	if data == nil {
		data = []byte{}
	}
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	p := ctl.pending
	if p == nil || p.epoch != epoch {
		return // stale: the epoch was aborted
	}
	p.c.Add(name, data)
	p.sections++
	ctl.maybeCommit()
}

// sinkCut records the sink output count at the barrier.
func (ctl *ckptCtl) sinkCut(epoch, outSeq int64) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	p := ctl.pending
	if p == nil || p.epoch != epoch {
		return
	}
	p.c.OutSeq = outSeq
	p.sinkDone = true
	ctl.maybeCommit()
}

// maybeCommit commits the pending epoch once every expected piece has
// arrived. Called with mu held.
func (ctl *ckptCtl) maybeCommit() {
	p := ctl.pending
	if p == nil || p.sections != ctl.needSections {
		return
	}
	if ctl.needSink > 0 && !p.sinkDone {
		return
	}
	if ctl.metaFn != nil {
		for k, v := range ctl.metaFn() {
			p.c.Meta[k] = v
		}
	}
	err := ctl.store.Commit(p.c)
	ctl.pending = nil
	if ctl.onCommit != nil {
		ctl.onCommit(p.epoch, err)
	}
	ctl.cond.Broadcast()
}

// abort kills the pending epoch (snapshot failure) and disables
// further checkpoints for the run.
func (ctl *ckptCtl) abort(epoch int64, err error) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	p := ctl.pending
	if p == nil || p.epoch != epoch {
		return
	}
	ctl.pending = nil
	ctl.disabled = true
	if ctl.onCommit != nil {
		ctl.onCommit(epoch, err)
	}
	ctl.cond.Broadcast()
}

// shutdown disables checkpointing (source exhausted, node failed); a
// pending epoch is aborted so no waiting source deadlocks.
func (ctl *ckptCtl) shutdown(err error) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	ctl.disabled = true
	if p := ctl.pending; p != nil {
		ctl.pending = nil
		if ctl.onCommit != nil {
			ctl.onCommit(p.epoch, err)
		}
		ctl.cond.Broadcast()
	}
}

func boolMeta(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Lane section names: plain nodes use "n<id>", replica k of a
// parallel lane "n<id>.r<k>", the key-partition splitter's in-flight
// port queues "n<id>.split", the partial-aggregation combiner
// "n<id>.comb" and its merger's release queues "n<id>.pmerge".
func repName(id NodeID, k int) string        { return fmt.Sprintf("n%d.r%d", id, k) }
func splitName(id NodeID) string             { return fmt.Sprintf("n%d.split", id) }
func combName(id NodeID) string              { return fmt.Sprintf("n%d.comb", id) }
func pmergeName(id NodeID) string            { return fmt.Sprintf("n%d.pmerge", id) }
func srcKey(i int) string                    { return fmt.Sprintf("src%d", i) }
func (r *concRun) nodeName(id NodeID) string { return sectionName(int(id)) }

// validateRestore rejects checkpoints taken under a different engine
// configuration: section names and counts depend on the lane layout,
// which Parallelism and PartitionJoins determine.
func (r *concRun) validateRestore() error {
	if got, want := r.restore.Meta["par"], uint64(r.opts.Parallelism); got != want {
		return fmt.Errorf("exec: checkpoint parallelism %d, run has %d (serial is 0)", got, want)
	}
	if got, want := r.restore.Meta["pj"], boolMeta(r.opts.PartitionJoins); got != want {
		return fmt.Errorf("exec: checkpoint PartitionJoins=%d, run has %d", got, want)
	}
	return nil
}

// restoreOp plays one section back into a lane-local operator; a
// failure is recorded against the run and halts it (continuing with
// partially restored state would silently corrupt results).
func (r *concRun) restoreOp(name string, op interface{}) {
	if r.restore == nil {
		return
	}
	s, ok := op.(ckpt.Snapshotter)
	if !ok {
		return
	}
	if err := r.restore.RestoreSection(name, s); err != nil {
		r.restoreFailed(err)
	}
}

func (r *concRun) restoreFailed(err error) {
	r.g.failRun("checkpoint-restore", err)
}
