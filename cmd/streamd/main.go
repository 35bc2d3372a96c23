// Command streamd runs one node of the distributed 3-level
// architecture (slides 14, 54-55). A high-level node listens for
// partial-aggregate streams from low-level nodes and prints merged
// per-minute results; a low-level node generates (or would tap) raw
// traffic, runs the decomposed filter + slot-bounded partial
// aggregation (query.Decompose), and ships the reduced stream upward.
// Both levels and -mode multi run on the batched columnar engine
// (exec.RunWith): a low node executes Decomposition.Low's plan, the high
// node is a dsms.HighNode, and multi drives a query.SharedPlan behind a
// push source.
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
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
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
// exhausting every attempt surfaces as an error here. st.Sent counts
// the partials shipped.
func runLow(d *query.Decomposition, cfg lowConfig, n int, seed int64) (raw int64, st dsms.ReconnectStats, err error) {
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
		return 0, st, err
	}
	low := d.Low()
	var sendErr error // the first; nothing is sent after it
	err = low.Execute(map[string]stream.Source{
		"Traffic": stream.Limit(stream.NewTrafficStream(seed, 100000, 5000), n),
	}, func(t *tuple.Tuple) {
		if sendErr == nil {
			sendErr = w.Send(t)
		}
	}, -1)
	if st := low.Stats(); len(st) > 0 {
		raw = st[0].In
	}
	if err = cmp.Or(err, sendErr); err != nil {
		w.Close()
		return raw, w.Stats(), fmt.Errorf("send: %w", err)
	}
	if err := w.Close(); err != nil {
		return raw, w.Stats(), fmt.Errorf("close: %w", err)
	}
	return raw, w.Stats(), nil
}

func reportLow(seed int64, raw int64, st dsms.ReconnectStats) {
	fmt.Printf("low-level node %d: %d raw -> %d partials", seed, raw, st.Sent)
	if st.Sent > 0 {
		fmt.Printf(" (%.1fx reduction)", float64(raw)/float64(st.Sent))
	}
	fmt.Println()
	if st.Reconnects > 0 {
		fmt.Printf("low-level node %d: %d reconnects, %d tuples resent, mean recovery %.1fms\n",
			seed, st.Reconnects, st.Resent,
			float64(st.RecoveryNanos)/float64(st.Reconnects)/1e6)
	}
}

// runHigh runs the merge point, a dsms.HighNode: the merge operator
// closes a window once every low-level node has moved past it or ended.
// Session churn is logged to stderr as it happens. With -checkpoint-dir
// set, the node checkpoints every -checkpoint-interval partial records
// and a restarted process resumes from the latest checkpoint.
func runHigh(d *query.Decomposition, ln net.Listener, cfg dsms.HighConfig, ckptDir string, stats bool) {
	var finals int64
	if ckptDir != "" {
		store, err := ckpt.Open(ckptDir)
		if err != nil {
			fatalf("checkpoint store: %v", err)
		}
		cfg.Store = store
	}
	h, err := dsms.NewHighNode(ln, d.PartialSchema(), d.NewHigh(), func(e stream.Element) {
		if e.IsPunct() {
			return
		}
		finals++
		t := e.Tuple
		wend, _ := t.Vals[0].AsTime()
		ip, _ := t.Vals[1].AsUint()
		pkts, _ := t.Vals[2].AsInt()
		bytes, _ := t.Vals[3].AsFloat()
		// decomposeSQL's windows are one minute long: print the start.
		fmt.Printf("minute %4d  src %-15s  pkts %6d  bytes %12.0f\n",
			wend/(60*stream.Second)-1, tuple.FormatIPv4(uint32(ip)), pkts, bytes)
	}, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if c := h.Restored; c != nil {
		finals = c.OutSeq
		logf("recovered checkpoint epoch %d: %d final rows already delivered", c.Epoch, c.OutSeq)
	}
	// An operator panic is detached from the run, not swallowed: report
	// every recorded failure and exit nonzero so supervisors see it.
	if err := h.Run(-1); err != nil {
		for _, f := range h.Graph.Failures() {
			logf("node failure: node %d (%s): %v", f.Node, f.Op, f.Panic)
		}
		fatalf("high-level node: %v", err)
	}
	if stats { // AllStats is only safe once RunWith has returned
		b, _ := json.Marshal(h.Graph.AllStats())
		logf("stats %s", b)
	}
	st := h.Server.Stats()
	fmt.Printf("high-level: %d partial records merged into %d final rows, %d late rows\n", st.Frames, finals, h.LateRows())
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
		id, err := sp.Register(multiTemplates[q%len(multiTemplates)],
			share.Sinks{Row: func(e stream.Element) {
				if !e.IsPunct() {
					counts[q]++
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

	// The shared node runs on the batched engine behind a push source;
	// a Flush before each register and drop lets every query see
	// exactly the elements fed after it joined and before it left.
	in := stream.NewPushSource(sch, 0)
	g := exec.NewGraph(func(stream.Element) {})
	if err := sp.Build(g, map[string]stream.Source{"Traffic": in}); err != nil {
		fatalf("%v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.RunWith(-1, exec.RunOptions{Columnar: true, BatchSize: 256})
		in.Stop(g.Err())
	}()
	src := stream.Limit(stream.NewTrafficStream(seed, 100000, 5000), n)
	fed := 0
	feed := func(until int) {
		for ; fed < until; fed++ {
			e, ok := src.Next()
			if !ok {
				break
			}
			if in.Push(e) != nil {
				break // the run failed; Flush reports it
			}
		}
		if err := in.Flush(); err != nil {
			fatalf("multi: %v", err)
		}
	}

	feed(n / 3)
	// Runtime registration: the rest of the fleet joins the live graph.
	for q := initial; q < nq; q++ {
		ids = append(ids, register(q))
	}
	logf("multi: %d queries joined at element %d (no restart)", nq-initial, fed)
	feed(2 * n / 3)
	// Runtime drop: every fourth query leaves.
	dropped := 0
	for q := 0; q < nq; q += 4 {
		if err := sp.Drop(ids[q]); err != nil {
			fatalf("drop query %d: %v", q, err)
		}
		dropped++
	}
	logf("multi: %d queries dropped at element %d (co-resident queries undisturbed)", dropped, fed)
	feed(n)
	in.End()
	<-done
	if err := g.Err(); err != nil {
		fatalf("multi: %v", err)
	}

	node := sp.Node("Traffic")
	shared, naive := node.Stats()
	fmt.Printf("multi-query: %d elements through %d standing queries (%d live at end)\n",
		fed, nq, sp.Queries())
	fmt.Printf("  %d distinct predicates, %d kernel nodes after prefix factoring\n",
		node.DistinctPredicates(), node.KernelNodes())
	fmt.Printf("  predicate evaluations: %d shared vs %d per-query deployment", shared, naive)
	if shared > 0 {
		fmt.Printf(" (%.1fx saving)", float64(naive)/float64(shared))
	}
	fmt.Println()
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
	wireBatch := flag.Int("wirebatch", 16, "low/demo: tuples per batch frame on the uplink (1 = one tuple per frame)")
	ckptDir := flag.String("checkpoint-dir", "", "high/demo: durable checkpoint directory (empty = disabled); on restart the merge state is recovered and sessions replay from the committed floor")
	ckptEvery := flag.Int("checkpoint-interval", 5000, "high/demo: partial records between checkpoints")
	stats := flag.Duration("stats", 0, "high/demo: nonzero dumps per-node NodeStats (In/Out/MaxQueue/MaxMemory/Routed/Batches/RowFallbacks and the adaptive fields) as one JSON line on stderr when the merge run ends; 0 = disabled. Any duration enables it: the dump is not periodic")
	queries := flag.Int("queries", 64, "multi: number of standing queries sharing one Traffic scan")
	flag.Parse()
	if *queries < 1 || *nodes < 1 || *n < 0 {
		fmt.Fprintln(os.Stderr, "streamd: -queries and -nodes must be at least 1, -n at least 0")
		flag.Usage()
		os.Exit(2) // the flag package's status for a malformed flag
	}

	if *mode == "multi" {
		runMulti(*queries, *n, *seed)
		return
	}
	d := decomposition()
	hcfg := dsms.HighConfig{
		Session: dsms.SessionConfig{IdleTimeout: 2 * *timeout, Logf: logf},
		Streams: *nodes,
		Every:   int64(*ckptEvery),
	}
	switch *mode {
	case "high":
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fatalf("%v", err)
		}
		defer ln.Close()
		fmt.Printf("high-level node on %s, awaiting %d low-level nodes\n", ln.Addr(), *nodes)
		runHigh(d, ln, hcfg, *ckptDir, *stats != 0)
	case "low":
		cfg := lowConfig{addr: *connect, retry: *retry, timeout: *timeout, wireBatch: *wireBatch}
		raw, st, err := runLow(d, cfg, *n, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		reportLow(*seed, raw, st)
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
				raw, st, err := runLow(d, cfg, *n, seed)
				if err != nil {
					logf("low-level node %d: %v", seed, err)
					return
				}
				reportLow(seed, raw, st)
			}(int64(i + 1))
		}
		runHigh(d, ln, hcfg, *ckptDir, *stats != 0)
		wg.Wait()
	default:
		fatalf("unknown mode %q", *mode)
	}
}
