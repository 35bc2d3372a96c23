package query

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"streamdb/internal/ckpt"
	"streamdb/internal/dsms"
	"streamdb/internal/expr"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// lowRecords runs each node's input through its own low level and
// returns every node's partial records in send order.
func lowRecords(t *testing.T, d *Decomposition, inputs [][]*tuple.Tuple) [][]*tuple.Tuple {
	t.Helper()
	recs := make([][]*tuple.Tuple, len(inputs))
	for n, in := range inputs {
		err := d.Low().Execute(map[string]stream.Source{"Traffic": stream.FromTuples(d.in, in...)},
			func(rec *tuple.Tuple) { recs[n] = append(recs[n], rec) }, -1)
		if err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// The low level is an ordinary plan: Explain names the filter and the
// bounded partial with its slot count, and Execute runs every node on
// the batched lane, the first node reading every raw row.
func TestDecomposeLowPlan(t *testing.T) {
	cat := testCatalog()
	d, err := Decompose(`select srcIP, count(*) as c from Traffic [range 10]
		where protocol = 6 group by srcIP`, cat, 8)
	if err != nil {
		t.Fatal(err)
	}
	low := d.Low()
	ex := low.Explain()
	for _, want := range []string{"1. select ", "2. bounded partial group-by", "8 slots"} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain lacks %q:\n%s", want, ex)
		}
	}
	in := trafficInputs(3, 1, 30*stream.Second, 20)[0]
	var recs int
	err = low.Execute(map[string]stream.Source{"Traffic": stream.FromTuples(d.in, in...)},
		func(*tuple.Tuple) { recs++ }, -1)
	if err != nil {
		t.Fatal(err)
	}
	st := low.Stats()
	if len(st) != 2 {
		t.Fatalf("low plan ran %d nodes, want 2: %+v", len(st), st)
	}
	for _, s := range st {
		if s.Batches == 0 {
			t.Errorf("node %s: Batches = 0, want the batched lane", s.Op)
		}
	}
	if st[0].In != int64(len(in)) {
		t.Errorf("first node read %d rows, want %d", st[0].In, len(in))
	}
	if recs == 0 || recs >= len(in) {
		t.Errorf("%d raw rows -> %d partial records", len(in), recs)
	}
}

// nodeID names low-level node n the way streamd's low nodes do.
func nodeID(n int) string { return fmt.Sprintf("low-%d", n) }

// mergeHigh feeds the nodes' records to a fresh high level in the given
// arrival order (one node index per record, each node's records in send
// order), with progress rebuilt from the records, and returns its rows.
func mergeHigh(d *Decomposition, recs [][]*tuple.Tuple, arrival []int) []*tuple.Tuple {
	high := d.NewHigh()
	prog := stream.NewProgress(len(recs))
	var rows []*tuple.Tuple
	emit := func(e stream.Element) { rows = append(rows, e.Tuple) }
	next := make([]int, len(recs))
	for _, n := range arrival {
		rec := recs[n][next[n]]
		next[n]++
		high.Push(0, stream.Tup(rec), emit)
		prog.Observe(nodeID(n), rec.Ts)
		if pu := prog.Punct(); pu != nil {
			high.Push(0, stream.Punct(pu), emit)
		}
	}
	high.Flush(emit)
	return rows
}

// unsplitRows runs the query's own GroupBy, unsplit, over the nodes'
// inputs merged in timestamp order.
func unsplitRows(t *testing.T, sql string, cat *Catalog, inputs [][]*tuple.Tuple) []*tuple.Tuple {
	t.Helper()
	ref, err := Decompose(sql, cat, 1)
	if err != nil {
		t.Fatal(err)
	}
	var merged []*tuple.Tuple
	for _, in := range inputs {
		merged = append(merged, in...)
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Ts < merged[j].Ts })
	var rows []*tuple.Tuple
	emit := func(e stream.Element) { rows = append(rows, e.Tuple) }
	for _, tp := range merged {
		if ref.pred == nil || expr.EvalBool(ref.pred, tp) {
			ref.gb.Push(0, stream.Tup(tp), emit)
		}
	}
	ref.gb.Flush(emit)
	return rows
}

// sameRows fails unless got and want are the same rows, byte for byte,
// in the same order.
func sameRows(t *testing.T, label string, got, want []*tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(tuple.AppendEncode(nil, got[i]), tuple.AppendEncode(nil, want[i])) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i].Vals, want[i].Vals)
		}
	}
}

// trafficInputs generates per-node Traffic inputs over span of stream
// time, 10 tuples per second, with srcIP drawn from keys addresses.
func trafficInputs(seed int64, nodes int, span int64, keys int) [][]*tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]*tuple.Tuple, nodes)
	for n := range inputs {
		for ts := int64(n) * stream.Second / 1000; ts < span; ts += stream.Second / 10 {
			proto := uint64(6)
			if rng.Intn(4) == 0 {
				proto = 17
			}
			inputs[n] = append(inputs[n], trafficTuple(ts, uint32(rng.Intn(keys)), 9, proto, uint64(rng.Intn(1500))))
		}
	}
	return inputs
}

func TestDecomposeEndToEndMatchesDirectQuery(t *testing.T) {
	cat := testCatalog()
	const sql = `select srcIP, count(*) as c, sum(length) as s
		from Traffic [range 60] where protocol = 6 group by srcIP`

	d, err := Decompose(sql, cat, 64)
	if err != nil {
		t.Fatal(err)
	}

	// Workload shared by both evaluations: 250 s, five windows.
	rng := rand.New(rand.NewSource(77))
	var tuples []*tuple.Tuple
	for i := 0; i < 5000; i++ {
		ts := int64(i) * stream.Second / 20
		proto := uint64(6)
		if rng.Intn(4) == 0 {
			proto = 17
		}
		tuples = append(tuples, trafficTuple(ts, uint32(rng.Intn(100)), 9, proto, uint64(rng.Intn(1500))))
	}

	// Direct evaluation through the ordinary planner.
	direct, _, err := Run(sql, cat,
		map[string]stream.Source{"Traffic": stream.FromTuples(cat.schemas["Traffic"], tuples...)}, -1)
	if err != nil {
		t.Fatal(err)
	}

	// Decomposed evaluation: 2 low-level nodes partition the stream and
	// their records reach the high level in lockstep.
	inputs := make([][]*tuple.Tuple, 2)
	for i, tp := range tuples {
		inputs[i%2] = append(inputs[i%2], tp)
	}
	recs := lowRecords(t, d, inputs)
	var arrival []int
	for i := 0; i < len(recs[0]) || i < len(recs[1]); i++ {
		for n := range recs {
			if i < len(recs[n]) {
				arrival = append(arrival, n)
			}
		}
	}
	decomposed := mergeHigh(d, recs, arrival)

	// Row for row, window by window: the decomposed rows carry the window
	// end ahead of the select list.
	if len(decomposed) != len(direct) {
		t.Fatalf("rows: decomposed %d vs direct %d", len(decomposed), len(direct))
	}
	windows := map[int64]bool{}
	for i, got := range decomposed {
		wend, _ := got.Vals[0].AsTime()
		windows[wend] = true
		for c, want := range direct[i].Vals {
			if !got.Vals[1+c].Equal(want) {
				t.Fatalf("row %d (window end %d): decomposed %v vs direct %v", i, wend, got.Vals, direct[i].Vals)
			}
		}
	}
	if len(windows) != 5 {
		t.Errorf("rows span %d windows, want 5", len(windows))
	}
}

// TestDecomposeSplitBucketsMatchUnsplit: nodes whose inputs cross
// several windows, and whose records reach the high level one node after
// another (either way round) or randomly interleaved, still produce the
// unsplit GroupBy's rows. A high level that closed a window as soon as
// any one node had moved past it would close windows before the later
// nodes' records for them arrive, and emit a second row for each such
// (window, key).
func TestDecomposeSplitBucketsMatchUnsplit(t *testing.T) {
	cat := testCatalog()
	const sql = `select srcIP, count(*) as c, sum(length) as s
		from Traffic [range 10] where protocol = 6 group by srcIP`
	for _, nodes := range []int{2, 3} {
		inputs := trafficInputs(int64(nodes), nodes, 40*stream.Second, 8) // four windows
		want := unsplitRows(t, sql, cat, inputs)
		for _, slots := range []int{1, 4, 4096} {
			d, err := Decompose(sql, cat, slots)
			if err != nil {
				t.Fatal(err)
			}
			recs := lowRecords(t, d, inputs)
			var skewed []int
			for n := range recs {
				for range recs[n] {
					skewed = append(skewed, n)
				}
			}
			reversed := make([]int, 0, len(skewed))
			for n := len(recs) - 1; n >= 0; n-- {
				for range recs[n] {
					reversed = append(reversed, n)
				}
			}
			shuffled := append([]int(nil), skewed...)
			rand.New(rand.NewSource(int64(slots))).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			for name, arrival := range map[string][]int{"skewed": skewed, "reversed": reversed, "shuffled": shuffled} {
				sameRows(t, fmt.Sprintf("%d nodes, %d slots, %s", nodes, slots, name), mergeHigh(d, recs, arrival), want)
			}
		}
	}
}

// TestProgressEndedNodeReleasesWindows: a node that has ended no longer
// holds progress back. With one node silent, or stopped after the first
// window, the other node's records still close every window it has moved
// past before the final Flush; without the End call no window would
// close until then. Progress runs on the records' timestamps, which are
// their window ends.
func TestProgressEndedNodeReleasesWindows(t *testing.T) {
	cat := testCatalog()
	const sql = `select srcIP, count(*) as c, sum(length) as s
		from Traffic [range 10] group by srcIP`
	d, err := Decompose(sql, cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	inputs := trafficInputs(5, 2, 40*stream.Second, 8) // four windows
	var short []*tuple.Tuple
	for _, tp := range inputs[1] {
		if tp.Ts < 10*stream.Second {
			short = append(short, tp)
		}
	}
	for name, other := range map[string][]*tuple.Tuple{"silent": nil, "short": short} {
		in := [][]*tuple.Tuple{inputs[0], other}
		recs := lowRecords(t, d, in)
		high := d.NewHigh()
		prog := stream.NewProgress(2)
		var rows []*tuple.Tuple
		emit := func(e stream.Element) { rows = append(rows, e.Tuple) }
		progress := func() {
			if pu := prog.Punct(); pu != nil {
				high.Push(0, stream.Punct(pu), emit)
			}
		}
		// Node 1 finishes first; node 0 then runs through every window.
		for _, rec := range recs[1] {
			high.Push(0, stream.Tup(rec), emit)
			prog.Observe(nodeID(1), rec.Ts)
			progress()
		}
		prog.End(nodeID(1))
		progress()
		for _, rec := range recs[0] {
			high.Push(0, stream.Tup(rec), emit)
			prog.Observe(nodeID(0), rec.Ts)
			progress()
		}
		closed := len(rows)
		high.Flush(emit)
		sameRows(t, name, rows, unsplitRows(t, sql, cat, in))
		last := 40 * stream.Second
		for i, r := range rows {
			if wend, _ := r.Vals[0].AsTime(); (i < closed) != (wend < last) {
				t.Fatalf("%s: row %d (window end %d) closed before Flush = %v", name, i, wend, i < closed)
			}
		}
		if closed == 0 {
			t.Fatalf("%s: no window closed before Flush", name)
		}
	}
}

// TestDecomposeHighCheckpointRestore crashes a checkpointing
// dsms.HighNode twice. Run 1 reads 3/4 of what every stream sent, all
// of it applied and queued before the engine reads a frame, so at each
// cut the transport is ahead of the engine: the floors must be the
// rows consumed, not the rows applied, and the writers' acks must stop
// at them. Run 2, restored from run 1, hears from two streams only and
// must carry the silent stream's floor into its own checkpoints. Run 3,
// restored from run 2, takes every stream to its end. The rows
// delivered up to each run's last checkpoint, then run 3's, are the
// unsplit query's.
func TestDecomposeHighCheckpointRestore(t *testing.T) {
	cat := testCatalog()
	const sql = `select srcIP, count(*) as c, sum(length) as s
		from Traffic [range 10] group by srcIP`
	d, err := Decompose(sql, cat, 8)
	if err != nil {
		t.Fatal(err)
	}
	const nodes, wireBatch = 3, 4
	inputs := trafficInputs(5, nodes, 60*stream.Second, 20)
	recs := lowRecords(t, d, inputs)
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// The writers outlive the crashes: they dial whichever high level is
	// current and keep every frame not acknowledged past a durable floor.
	var addr atomic.Value
	var connMu sync.Mutex
	var conns []net.Conn
	writers := make([]*dsms.ReconnectWriter, nodes)
	for n := range writers {
		w, err := dsms.NewReconnectWriter(dsms.ReconnectConfig{
			StreamID: nodeID(n),
			Dial: func() (net.Conn, error) {
				c, err := net.Dial("tcp", addr.Load().(string))
				if err == nil {
					connMu.Lock()
					conns = append(conns, c)
					connMu.Unlock()
				}
				return c, err
			},
			Schema:        d.PartialSchema(),
			WireBatch:     wireBatch,
			FlushInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		writers[n] = w
	}
	// feed sends the listed streams' records up to thirds/3 of each, in
	// turns of up to 7 records per stream. A flush is answered only once
	// the server has applied, and so queued, every frame before it,
	// which fixes the queue's order. Runs 1 and 2 feed about 100 frames
	// before the engine reads one, inside the source's 256-frame bound.
	sent := make([]int, nodes)
	feed := func(thirds int, streams ...int) {
		for moved := true; moved; {
			moved = false
			for _, n := range streams {
				for k := 0; k < 7 && sent[n] < len(recs[n])*thirds/3; k++ {
					if err := writers[n].Send(recs[n][sent[n]]); err != nil {
						t.Fatal(err)
					}
					sent[n]++
					moved = true
				}
				if err := writers[n].Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	type high struct {
		ln   net.Listener
		node *dsms.HighNode
		rows []*tuple.Tuple
	}
	start := func() *high {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		h := &high{ln: ln}
		h.node, err = dsms.NewHighNode(ln, d.PartialSchema(), d.NewHigh(), func(e stream.Element) {
			if !e.IsPunct() {
				h.rows = append(h.rows, e.Tuple)
			}
		}, dsms.HighConfig{Streams: nodes, Store: store, Every: 40})
		if err != nil {
			t.Fatal(err)
		}
		addr.Store(ln.Addr().String())
		return h
	}
	// crash kills a high level's listener and connections; the rows it
	// emitted after its last checkpoint are lost.
	crash := func(h *high) {
		h.ln.Close()
		connMu.Lock()
		for _, c := range conns {
			c.Close()
		}
		conns = nil
		connMu.Unlock()
	}
	// run reads limit rows, then returns the latest checkpoint and the
	// floors it records.
	run := func(h *high, limit int) (*ckpt.Checkpoint, map[string]uint64) {
		if err := h.node.Run(int64(limit)); err != nil {
			t.Fatal(err)
		}
		latest, err := store.Latest()
		if err != nil || latest == nil {
			t.Fatalf("latest checkpoint %v (%v)", latest, err)
		}
		floors := map[string]uint64{}
		for n := range recs {
			floors[nodeID(n)] = latest.Meta["seq."+nodeID(n)]
		}
		return latest, floors
	}

	first := start()
	feed(1, 0, 1, 2)
	ckpt1, floors1 := run(first, (sent[0]+sent[1]+sent[2])*3/4)
	if ckpt1.Epoch < 2 || ckpt1.OutSeq == 0 {
		t.Fatalf("run 1: checkpoint epoch %d at %d rows; want a second epoch, mid-stream", ckpt1.Epoch, ckpt1.OutSeq)
	}
	// Every record sent was applied (each feed ends in a flush).
	queued := false
	for n := range writers {
		queued = queued || int(floors1[nodeID(n)]) < sent[n]
	}
	if !queued {
		t.Fatalf("floors %v reach the applied seqs %v: no frame was queued at the cut", floors1, sent)
	}
	// Each writer keeps exactly the frames its floor does not cover.
	for n, w := range writers {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rest := sent[n] - int(floors1[nodeID(n)])
		if b := w.Buffered(); b == sent[n] || b < rest || b >= rest+wireBatch {
			t.Fatalf("%s buffers %d of %d sent, floor %d: acks did not stop at the floor",
				nodeID(n), b, sent[n], floors1[nodeID(n)])
		}
	}
	crash(first)

	second := start()
	if second.node.Restored == nil || second.node.Restored.Epoch != ckpt1.Epoch {
		t.Fatalf("run 2 restored %v, want epoch %d", second.node.Restored, ckpt1.Epoch)
	}
	feed(2, 0, 1)
	backlog := 0
	for n := 0; n < 2; n++ {
		backlog += sent[n] - int(floors1[nodeID(n)])
	}
	ckpt2, floors2 := run(second, backlog/2)
	if ckpt2.Epoch == ckpt1.Epoch || ckpt2.OutSeq < ckpt1.OutSeq {
		t.Fatalf("run 2's checkpoint: epoch %d at %d rows after run 1's epoch %d at %d rows",
			ckpt2.Epoch, ckpt2.OutSeq, ckpt1.Epoch, ckpt1.OutSeq)
	}
	if silent := nodeID(2); floors2[silent] != floors1[silent] {
		t.Fatalf("run 2 moved silent stream %s's floor %d to %d", silent, floors1[silent], floors2[silent])
	}
	crash(second)

	third := start()
	engineDone := make(chan error, 1)
	go func() { engineDone <- third.node.Run(-1) }()
	feed(3, 0, 1, 2)
	for _, w := range writers {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-engineDone; err != nil {
		t.Fatal(err)
	}
	want := unsplitRows(t, sql, cat, inputs)
	got := append(append(append([]*tuple.Tuple(nil), first.rows[:ckpt1.OutSeq]...),
		second.rows[:ckpt2.OutSeq-ckpt1.OutSeq]...), third.rows...)
	sameRows(t, "restored twice", got, want)
}

func TestDecomposeRejections(t *testing.T) {
	cat := testCatalog()
	bad := []string{
		"select * from Traffic",                                                  // no aggregates
		"select count(*) from S, A where S.srcIP = A.destIP",                     // two streams
		"select srcIP, count(*) from Traffic group by srcIP having count(*) > 1", // HAVING
		"select median(length) from Traffic group by protocol",                   // holistic
		"select count(*) from Traffic [range 60 slide 10] group by srcIP",        // sliding window
		"select count(*) from Nowhere group by x",                                // unknown stream
		"select count(nosuchcol) from Traffic group by srcIP",                    // binding
		"select count(*) from Traffic group by nosuchcol",                        // group binding
		"not sql at all",
	}
	for _, sql := range bad {
		if _, err := Decompose(sql, cat, 64); err == nil {
			t.Errorf("decomposed %q", sql)
		}
	}
}

func TestDecomposeApproxStillRejectsNonMergeable(t *testing.T) {
	cat := testCatalog()
	// Approximate holistic states do not merge; decomposition must
	// reject them too.
	if _, err := Decompose(
		"select median(length) from Traffic group by protocol with approx",
		cat, 64); err == nil {
		t.Error("approx median decomposed")
	}
}

func TestDecomposeDefaultsAndWindowBucket(t *testing.T) {
	cat := testCatalog()
	d, err := Decompose("select count(*) from Traffic [range 10] group by srcIP", cat, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d.PartialSchema().Index("wend") != 0 {
		t.Error("partial schema does not lead with wend")
	}
	// Unbounded query still decomposes with the default bucket.
	if _, err := Decompose("select count(*) from Traffic group by srcIP", cat, 16); err != nil {
		t.Errorf("unbounded decomposition failed: %v", err)
	}
}
