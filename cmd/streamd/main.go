// Command streamd runs one node of the distributed 3-level
// architecture (slides 14, 54-55). A high-level node listens for
// partial-aggregate streams from low-level nodes and prints merged
// per-minute results; a low-level node generates (or would tap) raw
// traffic, runs the decomposed filter + slot-bounded partial
// aggregation (query.Decompose), and ships the reduced stream upward.
//
// The uplink is the fault-tolerant session transport (DESIGN.md
// "Fault tolerance"): low-level nodes ride out connection loss by
// reconnecting with exponential backoff and resuming from the last
// acknowledged sequence number, and the high level dedupes, so a
// dropped TCP connection costs retransmission instead of killing the
// standing query. Partials travel in schema-coded batch frames
// (DESIGN.md §10) that never re-describe a value; -wirebatch sets how
// many tuples share one frame, amortizing framing.
//
// Demo (one process per node):
//
//	streamd -mode high -listen :7070 -nodes 2
//	streamd -mode low  -connect localhost:7070 -n 200000 -seed 1
//	streamd -mode low  -connect localhost:7070 -n 200000 -seed 2
//
// Or everything in-process, with injected faults to watch recovery:
//
//	streamd -mode demo -nodes 3 -n 100000 -faultrate 0.05
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"streamdb/internal/ckpt"
	"streamdb/internal/dsms"
	"streamdb/internal/exec"
	"streamdb/internal/optimizer/share"
	"streamdb/internal/query"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "streamd: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "streamd: "+format+"\n", args...)
}

// decomposeSQL is the standing query both levels agree on, decomposed
// automatically per slide 54: the filter plus a bounded partial
// aggregation run at each observation point; merging runs here.
const decomposeSQL = `select srcIP, count(*) as pkts, sum(length) as bytes
	from Traffic [range 60] where length > 512 group by srcIP`

func decomposition() *query.Decomposition {
	cat := query.NewCatalog()
	cat.Register("Traffic", stream.TrafficSchema("Traffic"))
	d, err := query.Decompose(decomposeSQL, cat, 4096)
	if err != nil {
		fatalf("%v", err)
	}
	return d
}

// lowConfig carries the uplink tuning flags shared by low and demo
// modes.
type lowConfig struct {
	addr      string
	retry     int           // max attempts per dial / send round
	timeout   time.Duration // per-frame I/O deadline
	faultRate float64       // injected drop rate (demo chaos)
	wireBatch int           // tuples per uplink batch frame
}

// runLow runs one observation point: raw traffic through the
// decomposed low-level plan, partials shipped over a ReconnectWriter.
// Transient uplink errors are retried inside the writer; only
// exhausting every attempt surfaces as an error here.
func runLow(d *query.Decomposition, cfg lowConfig, n int, seed int64) (raw, partials int64, st dsms.ReconnectStats, err error) {
	dials := 0
	rcfg := dsms.ReconnectConfig{
		StreamID: fmt.Sprintf("low-%d", seed),
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("tcp", cfg.addr)
			if err != nil || cfg.faultRate == 0 {
				return c, err
			}
			dials++
			return dsms.InjectFaults(c, dsms.FaultConfig{
				Seed:        seed*10000 + int64(dials),
				DropRate:    cfg.faultRate,
				PartialRate: cfg.faultRate / 4,
				CorruptRate: cfg.faultRate / 4,
			}), nil
		},
		MaxAttempts: cfg.retry,
		Timeout:     cfg.timeout,
		Seed:        seed,
		Schema:      d.PartialSchema(),
		WireBatch:   cfg.wireBatch,
	}
	w, err := dsms.NewReconnectWriter(rcfg)
	if err != nil {
		return 0, 0, st, err
	}
	src := stream.Limit(stream.NewTrafficStream(seed, 100000, 5000), n)
	raw, partials, err = d.RunLow(src, w.Send)
	if err != nil {
		w.Close()
		return raw, partials, w.Stats(), fmt.Errorf("send: %w", err)
	}
	if err := w.Close(); err != nil {
		return raw, partials, w.Stats(), fmt.Errorf("close: %w", err)
	}
	return raw, partials, w.Stats(), nil
}

func reportLow(seed int64, raw, partials int64, st dsms.ReconnectStats) {
	fmt.Printf("low-level node %d: %d raw -> %d partials (%.1fx reduction)\n",
		seed, raw, partials, float64(raw)/float64(partials))
	if st.Reconnects > 0 {
		fmt.Printf("low-level node %d: %d reconnects, %d tuples resent, mean recovery %.1fms\n",
			seed, st.Reconnects, st.Resent,
			float64(st.RecoveryNanos)/float64(st.Reconnects)/1e6)
	}
}

// highConfig carries the merge-point tuning and durability flags
// shared by high and demo modes.
type highConfig struct {
	nodes      int
	idle       time.Duration
	batch      int           // ingest micro-batch per stream (1 = per-tuple)
	ckptDir    string        // durable checkpoint directory; "" = disabled
	ckptEvery  int           // partial records between checkpoints
	statsEvery time.Duration // period between NodeStats JSON dumps; 0 = off
}

// runHigh runs the merge point: a SessionServer that dedupes resumed
// streams feeds the high-level merge plan through a push-fed execution
// graph. The wire carries partial records only, so a query.Progress
// rebuilds event-time progress from them and the merge plan closes a
// window once every low-level node has moved past it or ended. Session
// churn (connects, resumes, dead peers) is logged to stderr as it
// happens.
//
// Ingest is micro-batched per stream: partials accumulate in a
// per-stream buffer and enter the merge plan `batch` at a time, so the
// plan's global mutex is taken once per batch instead of once per
// tuple. Buffering is bounded and flushed completely before the final
// punctuation, and the merge plan advances on watermarks, so batching
// only adds bounded ingest latency — final results are unchanged.
//
// With -checkpoint-dir set, the graph's state (the merge operator)
// is checkpointed to a durable store every -checkpoint-interval partial
// records, together with each session's applied sequence number at that
// cut. Session acknowledgements are capped at the last committed floor
// (DurableSeq), so clients keep the un-checkpointed tail in their
// replay buffers; a restarted process restores the merge operator, seeds
// sessions at the committed floors (InitialSeqs), and receives exactly
// the tail again — no loss, and duplicates past the floor are deduped
// by the session layer. Micro-batched ingest stays crash-safe because
// the per-stream cut counts only tuples actually fed to the graph:
// buffered-but-unfed partials are never acknowledged past the floor.
func runHigh(d *query.Decomposition, ln net.Listener, cfg highConfig) {
	var finals int64
	g := exec.NewGraph(func(e stream.Element) {
		finals++
		t := e.Tuple
		wend, _ := t.Vals[0].AsTime()
		ip, _ := t.Vals[1].AsUint()
		pkts, _ := t.Vals[2].AsInt()
		bytes, _ := t.Vals[3].AsFloat()
		// decomposeSQL's windows are one minute long: print the start.
		fmt.Printf("minute %4d  src %-15s  pkts %6d  bytes %12.0f\n",
			wend/(60*stream.Second)-1, tuple.FormatIPv4(uint32(ip)), pkts, bytes)
	})
	q := stream.NewQueue(d.PartialSchema())
	prog := query.NewProgress(cfg.nodes)
	si := g.AddSource(q)
	hid := g.AddOp(d.NewHigh())
	if err := g.ConnectSource(si, hid, 0); err != nil {
		fatalf("%v", err)
	}
	if err := g.ConnectOut(hid); err != nil {
		fatalf("%v", err)
	}

	scfg := dsms.SessionConfig{IdleTimeout: cfg.idle, Logf: logf}
	var store *ckpt.Store
	var epoch int64
	seqs := map[string]uint64{}    // per-stream tuples fed to the graph
	durable := map[string]uint64{} // per-stream floor of the last committed checkpoint
	var durMu sync.Mutex
	if cfg.ckptDir != "" {
		var err error
		store, err = ckpt.Open(cfg.ckptDir)
		if err != nil {
			fatalf("checkpoint store: %v", err)
		}
		latest, err := store.Latest()
		if err != nil {
			fatalf("checkpoint recovery: %v", err)
		}
		if latest != nil {
			epoch = latest.Epoch
			init := map[string]uint64{}
			for k, v := range latest.Meta {
				if id, ok := strings.CutPrefix(k, "seq."); ok {
					init[id] = v
					seqs[id] = v
					durable[id] = v
				}
			}
			// The session transport owns replay: resumed streams
			// retransmit everything past the committed floor, so the
			// graph source itself fast-forwards nothing.
			for k := range latest.Meta {
				if strings.HasPrefix(k, "src") {
					latest.Meta[k] = 0
				}
			}
			if err := g.RestoreFrom(latest); err != nil {
				fatalf("checkpoint restore: %v", err)
			}
			finals = latest.OutSeq
			scfg.InitialSeqs = init
			logf("recovered checkpoint epoch %d: merge state restored, %d final rows already delivered, %d stream floors",
				latest.Epoch, latest.OutSeq, len(init))
		}
		scfg.DurableSeq = func(id string) uint64 {
			durMu.Lock()
			defer durMu.Unlock()
			return durable[id]
		}
	}
	srv := dsms.NewSessionServer(ln, d.PartialSchema(), scfg)

	var mu sync.Mutex
	// -stats: a ticker goroutine dumps every node's counters as one JSON
	// line to stderr. The dump takes the ingest mutex, so the graph is
	// quiescent (between Pump calls) exactly as AllStats requires; under
	// an adaptive run the snapshot includes the controller's live batch
	// target, replica width, and shed rate per node.
	statsDone := make(chan struct{})
	if cfg.statsEvery > 0 {
		go func() {
			t := time.NewTicker(cfg.statsEvery)
			defer t.Stop()
			for {
				select {
				case <-statsDone:
					return
				case <-t.C:
					mu.Lock()
					b, err := json.Marshal(g.AllStats())
					mu.Unlock()
					if err != nil {
						logf("stats: %v", err)
						continue
					}
					logf("stats %s", b)
				}
			}
		}()
	}
	defer close(statsDone)
	var received, sinceCkpt int64
	checkpoint := func() { // called with mu held, between Pump calls
		epoch++
		extra := make(map[string]uint64, len(seqs))
		for id, v := range seqs {
			extra["seq."+id] = v
		}
		if err := g.Checkpoint(store, epoch, finals, extra); err != nil {
			logf("checkpoint epoch %d failed: %v; checkpointing disabled", epoch, err)
			store = nil
			return
		}
		durMu.Lock()
		for id, v := range seqs {
			durable[id] = v
		}
		durMu.Unlock()
		logf("checkpoint epoch %d committed at %d partials, %d final rows", epoch, received, finals)
	}
	batch := cfg.batch
	if batch < 1 {
		batch = 1
	}
	var bufMu sync.Mutex
	bufs := map[string][]*tuple.Tuple{}
	// push feeds one stream's partials; ended marks the stream's last
	// call, after which it no longer holds progress back.
	push := func(id string, tps []*tuple.Tuple, ended bool) {
		mu.Lock()
		received += int64(len(tps))
		seqs[id] += uint64(len(tps))
		for _, tp := range tps {
			q.Feed(stream.Tup(tp))
			if pu := prog.Observe(id, tp); pu != nil {
				q.Feed(stream.Punct(pu))
			}
		}
		if ended {
			if pu := prog.End(id); pu != nil {
				q.Feed(stream.Punct(pu))
			}
		}
		g.Pump(-1)
		if store != nil {
			sinceCkpt += int64(len(tps))
			if sinceCkpt >= int64(cfg.ckptEvery) {
				sinceCkpt = 0
				checkpoint()
			}
		}
		mu.Unlock()
	}
	// ServeBatches hands over whole decoded wire batches: one callback
	// (and one buffer append) per frame instead of per tuple, and one
	// empty call when a stream ends. This server does not enable
	// ZeroCopy, so the tuples are heap-allocated and safe to hold in the
	// ingest buffers without pinning the (always-nil) decode arena.
	err := srv.ServeBatches(cfg.nodes, func(id string, tps []*tuple.Tuple, _ *tuple.Arena) {
		if len(tps) == 0 {
			bufMu.Lock()
			rest := bufs[id]
			delete(bufs, id)
			bufMu.Unlock()
			push(id, rest, true)
			return
		}
		if batch == 1 {
			push(id, tps, false)
			return
		}
		bufMu.Lock()
		bufs[id] = append(bufs[id], tps...)
		var full []*tuple.Tuple
		if len(bufs[id]) >= batch {
			full = bufs[id]
			bufs[id] = make([]*tuple.Tuple, 0, batch)
		}
		bufMu.Unlock()
		if full != nil {
			push(id, full, false)
		}
	})
	if err != nil {
		fatalf("serve: %v", err)
	}
	// All sessions are done, and each ended stream's ingest buffer was
	// fed at its end.
	mu.Lock()
	q.Feed(stream.Punct(&stream.Punctuation{Ts: 1 << 62}))
	g.Pump(-1)
	g.Finish()
	mu.Unlock()
	// An operator panic is detached from the run, not swallowed: report
	// every recorded failure and exit nonzero so supervisors see it.
	if err := g.Err(); err != nil {
		for _, f := range g.Failures() {
			logf("node failure: node %d (%s): %v", f.Node, f.Op, f.Panic)
		}
		fatalf("merge graph failed: %v", err)
	}
	st := srv.Stats()
	fmt.Printf("high-level: %d partial records merged into %d final rows\n", received, finals)
	fmt.Printf("high-level: %d sessions, %d resumes, %d duplicate frames discarded, %d corrupt frames rejected\n",
		st.Sessions, st.Reconnects, st.Dupes, st.Corrupt)
}

// multiTemplates are the standing-query shapes -mode multi instantiates
// round-robin; only these distinct predicates are ever compiled, no
// matter how many queries register.
var multiTemplates = []string{
	"select * from Traffic where length > 1200",
	"select srcIP, length from Traffic where length > 1200",
	"select * from Traffic where length < 100",
	"select srcIP from Traffic where protocol = 17",
	"select srcIP, destIP from Traffic where protocol = 6 and length > 512",
	"select destIP from Traffic where length > 512 and protocol = 6",
	"select * from Traffic",
}

// runMulti demonstrates multi-query processing (slide 45): nq standing
// queries over one Traffic stream, served by a single shared fan-out
// node. Queries register and drop at runtime — a third of the way in,
// more queries join; at two thirds, some leave — without restarting or
// re-planning the co-resident queries, whose outputs are unaffected.
func runMulti(nq, n int, seed int64) {
	cat := query.NewCatalog()
	sch := stream.TrafficSchema("Traffic")
	cat.Register("Traffic", sch)
	sp := query.NewSharedPlan(cat)

	counts := make([]int64, nq)
	register := func(q int) int {
		qq := q
		id, err := sp.Register(multiTemplates[q%len(multiTemplates)],
			share.Sinks{Row: func(e stream.Element) {
				if !e.IsPunct() {
					counts[qq]++
				}
			}})
		if err != nil {
			fatalf("register query %d: %v", q, err)
		}
		return id
	}
	// Two thirds of the fleet is standing before traffic starts.
	initial := nq - nq/3
	ids := make([]int, 0, nq)
	for q := 0; q < initial; q++ {
		ids = append(ids, register(q))
	}

	qu := stream.NewQueue(sch)
	g := exec.NewGraph(func(stream.Element) {})
	if err := sp.Build(g, map[string]stream.Source{"Traffic": qu}); err != nil {
		fatalf("%v", err)
	}
	src := stream.Limit(stream.NewTrafficStream(seed, 100000, 5000), n)
	fed := 0
	pump := func(until int) {
		for fed < until {
			e, ok := src.Next()
			if !ok {
				break
			}
			qu.Feed(e)
			fed++
			if fed%1024 == 0 {
				g.Pump(-1)
			}
		}
		g.Pump(-1)
	}

	pump(n / 3)
	// Runtime registration: the rest of the fleet joins the live graph.
	for q := initial; q < nq; q++ {
		ids = append(ids, register(q))
	}
	logf("multi: %d queries joined at element %d (no restart)", nq-initial, fed)
	pump(2 * n / 3)
	// Runtime drop: every fourth query leaves.
	dropped := 0
	for q := 0; q < nq; q += 4 {
		if err := sp.Drop(ids[q]); err != nil {
			fatalf("drop query %d: %v", q, err)
		}
		dropped++
	}
	logf("multi: %d queries dropped at element %d (co-resident queries undisturbed)", dropped, fed)
	pump(n)
	g.Finish()

	node := sp.Node("Traffic")
	shared, naive := node.Stats()
	fmt.Printf("multi-query: %d elements through %d standing queries (%d live at end)\n",
		fed, nq, sp.Queries())
	fmt.Printf("  %d distinct predicates, %d kernel nodes after prefix factoring\n",
		node.DistinctPredicates(), node.KernelNodes())
	fmt.Printf("  predicate evaluations: %d shared vs %d per-query deployment (%.1fx saving)\n",
		shared, naive, float64(naive)/float64(shared))
	show := nq
	if show > 8 {
		show = 8
	}
	for q := 0; q < show; q++ {
		fmt.Printf("  q%-3d %-70s %8d rows\n", q, multiTemplates[q%len(multiTemplates)], counts[q])
	}
	if show < nq {
		fmt.Printf("  ... %d more queries\n", nq-show)
	}
}

func main() {
	mode := flag.String("mode", "demo", "high | low | demo | multi")
	listen := flag.String("listen", ":7070", "high: listen address")
	connect := flag.String("connect", "localhost:7070", "low: high-level node address")
	nodes := flag.Int("nodes", 2, "high/demo: number of low-level nodes")
	n := flag.Int("n", 100000, "low/demo: packets per low-level node")
	seed := flag.Int64("seed", 1, "low: generator seed")
	retry := flag.Int("retry", 8, "low/demo: max reconnect/send attempts before giving up")
	timeout := flag.Duration("timeout", 5*time.Second, "low/demo: per-frame I/O deadline; high: 2x this is the idle timeout")
	faultRate := flag.Float64("faultrate", 0, "demo: injected connection-drop rate per write (chaos)")
	ingestBatch := flag.Int("ingestbatch", 64, "high/demo: partial records buffered per stream before entering the merge plan (1 = per-tuple)")
	wireBatch := flag.Int("wirebatch", 16, "low/demo: tuples per batch frame on the uplink (1 = one tuple per frame)")
	ckptDir := flag.String("checkpoint-dir", "", "high/demo: durable checkpoint directory (empty = disabled); on restart the merge state is recovered and sessions replay from the committed floor")
	ckptEvery := flag.Int("checkpoint-interval", 5000, "high/demo: partial records between checkpoints")
	stats := flag.Duration("stats", 0, "high/demo: period between per-node NodeStats JSON dumps on stderr (0 = disabled); each line snapshots In/Out/MaxQueue/MaxMemory/Routed/Batches/RowFallbacks plus the adaptive controller's live BatchTarget, Replicas, ShedRate and Rescales")
	queries := flag.Int("queries", 64, "multi: number of standing queries sharing one Traffic scan")
	flag.Parse()

	if *mode == "multi" {
		runMulti(*queries, *n, *seed)
		return
	}
	d := decomposition()
	switch *mode {
	case "high":
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fatalf("%v", err)
		}
		defer ln.Close()
		fmt.Printf("high-level node on %s, awaiting %d low-level nodes\n", ln.Addr(), *nodes)
		runHigh(d, ln, highConfig{nodes: *nodes, idle: 2 * *timeout, batch: *ingestBatch, ckptDir: *ckptDir, ckptEvery: *ckptEvery, statsEvery: *stats})
	case "low":
		cfg := lowConfig{addr: *connect, retry: *retry, timeout: *timeout, wireBatch: *wireBatch}
		raw, partials, st, err := runLow(d, cfg, *n, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		reportLow(*seed, raw, partials, st)
	case "demo":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatalf("%v", err)
		}
		defer ln.Close()
		var wg sync.WaitGroup
		for i := 0; i < *nodes; i++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				cfg := lowConfig{
					addr:      ln.Addr().String(),
					retry:     *retry,
					timeout:   *timeout,
					faultRate: *faultRate,
					wireBatch: *wireBatch,
				}
				raw, partials, st, err := runLow(d, cfg, *n, seed)
				if err != nil {
					logf("low-level node %d: %v", seed, err)
					return
				}
				reportLow(seed, raw, partials, st)
			}(int64(i + 1))
		}
		runHigh(d, ln, highConfig{nodes: *nodes, idle: 2 * *timeout, batch: *ingestBatch, ckptDir: *ckptDir, ckptEvery: *ckptEvery, statsEvery: *stats})
		wg.Wait()
	default:
		fatalf("unknown mode %q", *mode)
	}
}
