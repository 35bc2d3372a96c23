package query

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"streamdb/internal/ckpt"
	"streamdb/internal/exec"
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
		_, _, err := d.RunLow(stream.FromTuples(d.in, in...), func(rec *tuple.Tuple) error {
			recs[n] = append(recs[n], rec)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// nodeID names low-level node n the way streamd's low nodes do.
func nodeID(n int) string { return fmt.Sprintf("low-%d", n) }

// mergeHigh feeds the nodes' records to a fresh high level in the given
// arrival order (one node index per record, each node's records in send
// order), with progress rebuilt from the records, and returns its rows.
func mergeHigh(d *Decomposition, recs [][]*tuple.Tuple, arrival []int) []*tuple.Tuple {
	high := d.NewHigh()
	prog := NewProgress(len(recs))
	var rows []*tuple.Tuple
	emit := func(e stream.Element) { rows = append(rows, e.Tuple) }
	next := make([]int, len(recs))
	for _, n := range arrival {
		rec := recs[n][next[n]]
		next[n]++
		high.Push(0, stream.Tup(rec), emit)
		if pu := prog.Observe(nodeID(n), rec); pu != nil {
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
// close until then.
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
		prog := NewProgress(2)
		var rows []*tuple.Tuple
		emit := func(e stream.Element) { rows = append(rows, e.Tuple) }
		progress := func(pu *stream.Punctuation) {
			if pu != nil {
				high.Push(0, stream.Punct(pu), emit)
			}
		}
		// Node 1 finishes first; node 0 then runs through every window.
		for _, rec := range recs[1] {
			high.Push(0, stream.Tup(rec), emit)
			progress(prog.Observe(nodeID(1), rec))
		}
		progress(prog.End(nodeID(1)))
		for _, rec := range recs[0] {
			high.Push(0, stream.Tup(rec), emit)
			progress(prog.Observe(nodeID(0), rec))
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

// TestDecomposeHighCheckpointRestore drives the graph streamd's high
// level builds with checkpointing on (Queue -> merge operator, progress
// from the records): a checkpoint mid-stream, a crash after it, a fresh
// graph restored from the checkpoint, and every stream replayed past its
// floor yield the rows of an uninterrupted run.
func TestDecomposeHighCheckpointRestore(t *testing.T) {
	cat := testCatalog()
	d, err := Decompose(`select srcIP, count(*) as c, sum(length) as s
		from Traffic [range 10] group by srcIP`, cat, 8)
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 3
	recs := lowRecords(t, d, trafficInputs(5, nodes, 60*stream.Second, 20))
	// Interleave the streams in runs of up to 7 records.
	var arrival []int
	for next := make([]int, nodes); ; {
		moved := false
		for n := range recs {
			for k := 0; k < 7 && next[n] < len(recs[n]); k++ {
				arrival = append(arrival, n)
				next[n]++
				moved = true
			}
		}
		if !moved {
			break
		}
	}

	type run struct {
		g    *exec.Graph
		q    *stream.Queue
		prog *Progress
		rows []*tuple.Tuple
	}
	newRun := func() *run {
		r := &run{q: stream.NewQueue(d.PartialSchema()), prog: NewProgress(nodes)}
		r.g = exec.NewGraph(func(e stream.Element) { r.rows = append(r.rows, e.Tuple) })
		si := r.g.AddSource(r.q)
		hid := r.g.AddOp(d.NewHigh())
		if err := r.g.ConnectSource(si, hid, 0); err != nil {
			t.Fatal(err)
		}
		if err := r.g.ConnectOut(hid); err != nil {
			t.Fatal(err)
		}
		return r
	}
	feed := func(r *run, n int, rec *tuple.Tuple) {
		r.q.Feed(stream.Tup(rec))
		if pu := r.prog.Observe(nodeID(n), rec); pu != nil {
			r.q.Feed(stream.Punct(pu))
		}
		r.g.Pump(-1)
	}
	finish := func(r *run) []*tuple.Tuple {
		r.q.Feed(stream.Punct(&stream.Punctuation{Ts: 1 << 62}))
		r.g.Pump(-1)
		r.g.Finish()
		if err := r.g.Err(); err != nil {
			t.Fatal(err)
		}
		return r.rows
	}

	whole := newRun()
	next := make([]int, nodes)
	for _, n := range arrival {
		feed(whole, n, recs[n][next[n]])
		next[n]++
	}
	want := finish(whole)

	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := newRun()
	next = make([]int, nodes)
	cut := len(arrival) / 2
	for k, n := range arrival[:cut+40] {
		if k == cut {
			seqs := map[string]uint64{}
			for m := range next {
				seqs["seq."+nodeID(m)] = uint64(next[m])
			}
			if err := first.g.Checkpoint(store, 1, int64(len(first.rows)), seqs); err != nil {
				t.Fatal(err)
			}
		}
		feed(first, n, recs[n][next[n]])
		next[n]++
	}
	// Crash: rows the first run emitted after its checkpoint are lost.
	latest, err := store.Latest()
	if err != nil || latest == nil {
		t.Fatalf("latest checkpoint: %v, %v", latest, err)
	}
	// The session transport owns replay, as in streamd: the queue source
	// fast-forwards nothing.
	for k := range latest.Meta {
		if strings.HasPrefix(k, "src") {
			latest.Meta[k] = 0
		}
	}
	second := newRun()
	if err := second.g.RestoreFrom(latest); err != nil {
		t.Fatal(err)
	}
	next = make([]int, nodes)
	for _, n := range arrival {
		if i := next[n]; uint64(i) >= latest.Meta["seq."+nodeID(n)] {
			feed(second, n, recs[n][i])
		}
		next[n]++
	}
	got := append(append([]*tuple.Tuple(nil), first.rows[:latest.OutSeq]...), finish(second)...)
	if latest.OutSeq == 0 || int(latest.OutSeq) == len(want) {
		t.Fatalf("checkpoint at %d of %d rows is not mid-stream", latest.OutSeq, len(want))
	}
	sameRows(t, "restored", got, want)
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
