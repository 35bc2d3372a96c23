package ops

import (
	"testing"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// TestJoinStateExpiryEvictionConsistency pins the expired/evicted
// bookkeeping against a hand-computed trace: a tuple that is both
// expired and index-dropped inside one punctuation batch must be
// counted exactly once, as expired — never double-counted, and never
// charged to the memory cap as an eviction. The cap check sweeps first,
// so `evicted` counts only live tuples genuinely shed.
func TestJoinStateExpiryEvictionConsistency(t *testing.T) {
	a, b := joinSchemas()
	j, err := NewWindowJoin("j", a, b,
		JoinConfig{Window: window.Time(10, 10), Method: JoinHash, Key: []int{1}, MaxTuples: 3},
		JoinConfig{Window: window.Time(10, 10), Method: JoinHash, Key: []int{1}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(stream.Element) {}

	// Left inserts at ts 1, 2, 3: all live, under the cap of 3.
	j.Push(0, stream.Tup(ab(1, 1)), emit)
	j.Push(0, stream.Tup(ab(2, 2)), emit)
	j.Push(0, stream.Tup(ab(3, 3)), emit)
	if l, _ := j.WindowSizes(); l != 3 {
		t.Fatalf("after 3 inserts: left = %d, want 3", l)
	}

	// Punctuation on the right at ts 12: left cutoff 12-10 = 2, so the
	// tuples at ts 1 and 2 expire — out of FIFO and index in one batch,
	// counted once each as expired, not evicted.
	j.Push(1, stream.Punct(stream.ProgressPunct(12, 0, tuple.Time(12))), emit)
	if l, _ := j.WindowSizes(); l != 1 {
		t.Fatalf("after punct@12: left = %d, want 1 (ts 3)", l)
	}
	if le, _ := j.Expired(); le != 2 {
		t.Errorf("after punct@12: expired = %d, want 2", le)
	}
	if lv, _ := j.Evicted(); lv != 0 {
		t.Errorf("after punct@12: evicted = %d, want 0", lv)
	}

	// Three more live inserts at ts 13, 14, 15. The watermark is still
	// 12 (cutoff 2), so ts 3 is live when the cap check runs at the
	// insert of ts 15 — it is genuinely shed: evicted, not expired.
	j.Push(0, stream.Tup(ab(13, 4)), emit)
	j.Push(0, stream.Tup(ab(14, 5)), emit)
	j.Push(0, stream.Tup(ab(15, 6)), emit)
	if l, _ := j.WindowSizes(); l != 3 {
		t.Fatalf("after refill: left = %d, want 3", l)
	}
	if le, _ := j.Expired(); le != 2 {
		t.Errorf("after refill: expired = %d, want 2 (unchanged)", le)
	}
	if lv, _ := j.Evicted(); lv != 1 {
		t.Errorf("after refill: evicted = %d, want 1 (ts 3 shed by cap)", lv)
	}

	// Now let time pass via a right-side tuple at ts 30 (cutoff 20):
	// ts 13, 14, 15 expire. Had they been double-counted against the
	// cap earlier, the totals would disagree with the trace.
	j.Push(1, stream.Tup(ab(30, 99)), emit)
	l, r := j.WindowSizes()
	if l != 0 || r != 1 {
		t.Errorf("after right@30: sizes = (%d, %d), want (0, 1)", l, r)
	}
	le, re := j.Expired()
	lv, rv := j.Evicted()
	if le != 5 || lv != 1 {
		t.Errorf("final left: expired = %d, evicted = %d, want 5, 1", le, lv)
	}
	if re != 0 || rv != 0 {
		t.Errorf("final right: expired = %d, evicted = %d, want 0, 0", re, rv)
	}
}

// TestJoinStateCapSweepsExpiredFirst: when the oldest stored tuple is
// already expired at insert time, the cap must reclaim it as expiry and
// keep the live tuples — not shed a live tuple while dead state holds
// the cap hostage, and not count the dead tuple as evicted.
func TestJoinStateCapSweepsExpiredFirst(t *testing.T) {
	a, b := joinSchemas()
	j, err := NewWindowJoin("j", a, b,
		JoinConfig{Window: window.Time(10, 10), Method: JoinHash, Key: []int{1}, MaxTuples: 2},
		JoinConfig{Window: window.Time(10, 10), Method: JoinHash, Key: []int{1}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(stream.Element) {}
	j.Push(0, stream.Tup(ab(1, 1)), emit)  // will expire
	j.Push(0, stream.Tup(ab(20, 2)), emit) // live; its arrival alone does not expire ts 1
	// Right-side tuple at ts 25 advances the left watermark (cutoff 15).
	j.Push(1, stream.Tup(ab(25, 9)), emit)
	// Insert at the cap: the sweep reclaims ts 1 (expired), so ts 20
	// survives and nothing is evicted.
	j.Push(0, stream.Tup(ab(26, 3)), emit)
	if l, _ := j.WindowSizes(); l != 2 {
		t.Errorf("left = %d, want 2 (ts 20, 26)", l)
	}
	if le, _ := j.Expired(); le != 1 {
		t.Errorf("expired = %d, want 1 (ts 1)", le)
	}
	if lv, _ := j.Evicted(); lv != 0 {
		t.Errorf("evicted = %d, want 0", lv)
	}
	// The surviving live tuple must still join.
	var out []stream.Element
	j.Push(1, stream.Tup(ab(27, 2)), func(e stream.Element) { out = append(out, e) })
	if len(out) != 1 {
		t.Errorf("live tuple lost by cap handling: out = %v", out)
	}
}

// TestJoinRowWindowIndexConsistency: a row-count window displacing its
// oldest tuple must also drop it from the hash index — a stale entry
// would let a displaced tuple keep joining.
func TestJoinRowWindowIndexConsistency(t *testing.T) {
	a, b := joinSchemas()
	j, err := NewWindowJoin("j", a, b,
		JoinConfig{Window: window.Rows(2), Method: JoinHash, Key: []int{1}},
		JoinConfig{Window: window.Rows(2), Method: JoinHash, Key: []int{1}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(stream.Element) {}
	j.Push(0, stream.Tup(ab(1, 7)), emit)
	j.Push(0, stream.Tup(ab(2, 8)), emit)
	j.Push(0, stream.Tup(ab(3, 9)), emit) // displaces ip 7
	if l, _ := j.WindowSizes(); l != 2 {
		t.Fatalf("left = %d, want 2", l)
	}
	if le, _ := j.Expired(); le != 1 {
		t.Errorf("expired = %d, want 1 (row displacement)", le)
	}
	var out []stream.Element
	j.Push(1, stream.Tup(ab(4, 7)), func(e stream.Element) { out = append(out, e) })
	if len(out) != 0 {
		t.Errorf("displaced tuple joined via stale index entry: %v", out)
	}
	j.Push(1, stream.Tup(ab(5, 9)), func(e stream.Element) { out = append(out, e) })
	if len(out) != 1 {
		t.Errorf("resident tuple failed to join: %v", out)
	}
}

// TestWindowJoinClonePartitionFoldsCounters: replica counters fold into
// the parent at Flush, so post-run introspection on the original covers
// the partitioned run.
func TestWindowJoinClonePartitionFoldsCounters(t *testing.T) {
	a, b := joinSchemas()
	j, err := NewWindowJoin("j", a, b,
		JoinConfig{Window: window.Time(100, 100), Method: JoinHash, Key: []int{1}},
		JoinConfig{Window: window.Time(100, 100), Method: JoinHash, Key: []int{1}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if !j.CanPartition() {
		t.Fatal("equijoin without caps should partition")
	}
	emit := func(stream.Element) {}
	clones := [2]Operator{j.ClonePartition(), j.ClonePartition()}
	for i, c := range clones {
		cj := c.(*WindowJoin)
		if cj.parent != j {
			t.Fatal("clone parent not set")
		}
		ip := uint32(7 + i)
		c.Push(0, stream.Tup(ab(1, ip)), emit)
		c.Push(1, stream.Tup(ab(2, ip)), emit) // one match per clone
		c.Flush(emit)
		c.Flush(emit) // second flush must not double-fold
	}
	if j.Emitted() != 2 || j.Probes() != 2 {
		t.Errorf("folded emitted = %d, probes = %d, want 2, 2", j.Emitted(), j.Probes())
	}
	if j.received[0] != 2 || j.received[1] != 2 {
		t.Errorf("folded received = %v", j.received)
	}
	// Hash agreement between router and both ports: same key value must
	// route both ports to the same replica.
	lt, rt := ab(9, 42), ab(10, 42)
	if j.PartitionHash(0, lt) != j.PartitionHash(1, rt) {
		t.Error("PartitionHash disagrees across ports for equal keys")
	}
}

// TestWindowJoinCanPartitionGates: global state (caps, row windows,
// keyless theta joins) must decline partitioning.
func TestWindowJoinCanPartitionGates(t *testing.T) {
	a, b := joinSchemas()
	mk := func(lcfg, rcfg JoinConfig) *WindowJoin {
		j, err := NewWindowJoin("j", a, b, lcfg, rcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	hash := func() JoinConfig {
		return JoinConfig{Window: window.Time(10, 10), Method: JoinHash, Key: []int{1}}
	}
	if !mk(hash(), hash()).CanPartition() {
		t.Error("plain equijoin should partition")
	}
	capped := hash()
	capped.MaxTuples = 5
	if mk(capped, hash()).CanPartition() {
		t.Error("capped join must decline: the cap is global state")
	}
	rows := JoinConfig{Window: window.Rows(4), Method: JoinHash, Key: []int{1}}
	if mk(rows, hash()).CanPartition() {
		t.Error("row-window join must decline: the row count is global state")
	}
	theta := JoinConfig{Window: window.Time(10, 10), Method: JoinNestedLoop}
	if mk(theta, theta).CanPartition() {
		t.Error("keyless theta join must decline: no key to partition on")
	}
}

// TestWindowJoinSteadyStateAllocFree: once the windows stop growing,
// the vectorized path copies rows into reused ring slots and links them
// into a pointer-free index, so a call allocates nothing. The test
// drives ProcessColSpan, the entry the key-partition router calls per
// span and the core of ProcessBatch, with a caller-owned output batch:
// ProcessBatch's pooled output batch is not the join's to count, and
// sync.Pool drops items at random under the race detector.
func TestWindowJoinSteadyStateAllocFree(t *testing.T) {
	j := cjJoin(t, JoinHash, JoinHash, false, 0)
	const rows = 64
	var in [2]*stream.Batch
	for port, sch := range [2]*tuple.Schema{cjLeft, cjRight} {
		var elems []stream.Element
		for k := int64(0); k < rows; k++ {
			elems = append(elems, stream.Tup(tuple.New(0, tuple.Time(0), tuple.Int(k), tuple.Int(k))))
		}
		in[port] = cjBatch(sch, elems)
	}
	span := make([]int32, rows)
	for i := range span {
		span[i] = int32(i)
	}
	out := stream.NewColPool(j.OutSchema(), 1).Get()
	ends := make([]int32, 0, rows)
	emitted := 0
	ts := int64(0)
	step := func() {
		ts++
		b := in[ts%2]
		for r := range b.Ts {
			b.Ts[r] = ts
		}
		ends = j.ProcessColSpan(int(ts%2), b, span, out, ends[:0])
		emitted += out.Rows()
		out.Ts = out.Ts[:0]
		for c := range out.Cols {
			out.Cols[c] = out.Cols[c][:0]
		}
	}
	for i := 0; i < 2000; i++ {
		step()
	}
	if emitted == 0 || len(ends) != rows {
		t.Fatalf("warm-up: %d output rows, %d span ends", emitted, len(ends))
	}
	if n := testing.AllocsPerRun(500, step); n != 0 {
		t.Errorf("steady-state ProcessColSpan allocates %.2f times per call, want 0", n)
	}
}
