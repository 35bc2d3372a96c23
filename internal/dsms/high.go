package dsms

import (
	"fmt"
	"maps"
	"net"
	"strings"
	"sync"

	"streamdb/internal/ckpt"
	"streamdb/internal/exec"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// HighConfig configures a HighNode.
type HighConfig struct {
	Session SessionConfig // transport; with Store set, the node sets DurableSeq and InitialSeqs
	Streams int           // low-level streams expected
	Store   *ckpt.Store   // checkpoints every Every source rows; nil = none
	Every   int64
}

// HighNode is the high level of the 3-level architecture (slides 37,
// 54): a SessionServer feeds a SessionSource, whose column batches run
// through one merge operator on exec.RunWith (columnar, 256-row
// batches). With a store, each checkpoint records the operator's state
// and, per stream, the sequence number the engine had consumed at the
// cut, not the frames still queued. Acks are capped at the last
// committed floors (DurableSeq), so clients keep the uncovered tail for
// replay, and a node restored from a checkpoint starts every stream,
// resending or silent, at its floor (InitialSeqs).
type HighNode struct {
	Server   *SessionServer
	Graph    *exec.Graph
	Restored *ckpt.Checkpoint // the checkpoint resumed from; nil = a fresh start

	src     *SessionSource
	opts    exec.RunOptions
	mu      sync.Mutex        // guards durable
	durable map[string]uint64 // per stream: the last committed floor
	cut     map[string]uint64 // set by meta, read by commit; the engine calls them in turn
}

// NewHighNode builds a node that serves cfg.Streams sessions on ln, each
// carrying tuples of schema, and merges them through op into sink.
// Serving starts at once, the engine with Run. A node expects at least
// one stream: with none, serving would never end.
func NewHighNode(ln net.Listener, schema *tuple.Schema, op ops.Operator, sink func(stream.Element), cfg HighConfig) (*HighNode, error) {
	if cfg.Streams < 1 {
		return nil, fmt.Errorf("dsms: a high node needs at least one stream, got %d", cfg.Streams)
	}
	h := &HighNode{
		Graph:   exec.NewGraph(sink),
		opts:    exec.RunOptions{Columnar: true, BatchSize: 256},
		durable: map[string]uint64{},
	}
	hid := h.Graph.AddOp(op)
	if err := h.Graph.ConnectOut(hid); err != nil {
		return nil, err
	}
	if cfg.Store != nil {
		latest, err := cfg.Store.Latest()
		if err != nil {
			return nil, fmt.Errorf("dsms: checkpoint recovery: %w", err)
		}
		if latest != nil {
			for k, v := range latest.Meta {
				if id, ok := strings.CutPrefix(k, "seq."); ok {
					h.durable[id] = v
				}
			}
			// The transport owns replay, so the source skips nothing.
			latest.Meta["src0"] = 0
			cfg.Session.InitialSeqs = maps.Clone(h.durable)
			h.opts.Restore, h.Restored = latest, latest
		}
		cfg.Session.DurableSeq = h.durableSeq
		h.opts.Checkpoint = &exec.CheckpointConfig{Store: cfg.Store, Every: cfg.Every, Meta: h.meta, OnCommit: h.commit}
	}
	h.Server = NewSessionServer(ln, schema, cfg.Session)
	h.src = NewSessionSource(h.Server, cfg.Streams, 0)
	return h, h.Graph.ConnectSource(h.Graph.AddSource(h.src), hid, 0)
}

// Run runs the engine until every stream has completed, or until limit
// source rows have been read (< 0 = no limit; a limited run stands in
// for a crash). It returns the transport's error, else the engine's.
func (h *HighNode) Run(limit int64) error {
	h.Graph.RunWith(limit, h.opts)
	if err := h.src.Err(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return h.Graph.Err()
}

// LateRows reports the rows the node's source handed to the engine at
// or below progress already handed out (SessionSource.LateRows): rows
// of a stream that broke its timestamp order, which the merge operator
// sees as late. It is safe to call from any goroutine.
func (h *HighNode) LateRows() int64 { return h.src.LateRows() }

func (h *HighNode) durableSeq(id string) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.durable[id]
}

// meta records the floors of the epoch being committed. The engine
// calls it at commit, while the source is parked at its barrier.
func (h *HighNode) meta() map[string]uint64 {
	cut := h.src.ConsumedSeqs()
	meta := make(map[string]uint64, len(cut))
	for id, v := range cut {
		meta["seq."+id] = v
	}
	h.cut = cut
	return meta
}

// commit promotes a committed epoch's floors to the acknowledged ones.
func (h *HighNode) commit(epoch int64, err error) {
	if err != nil {
		h.Server.logf("checkpoint epoch %d not committed: %v", epoch, err)
		return
	}
	var rows uint64
	h.mu.Lock()
	for id, v := range h.cut {
		h.durable[id] = v
		rows += v
	}
	h.mu.Unlock()
	h.Server.logf("checkpoint epoch %d committed at %d records", epoch, rows)
}
