package ops

// Operator-level equivalence for the columnar join path: driving the
// same port interleave through Push (row reference) and through
// ProcessBatch/ProcessColSpan (columnar) must produce identical output
// sequences AND byte-identical checkpoint snapshots — the columnar
// plan is a pure execution change. The engine-level matrix
// (internal/exec/coljoin_test.go) covers routing; these tests control
// the interleave directly so every operator branch is attributable.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"streamdb/internal/ckpt"
	"streamdb/internal/expr"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

var cjLeft = tuple.NewSchema("L",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "k", Kind: tuple.KindInt},
	tuple.Field{Name: "lv", Kind: tuple.KindInt},
)

var cjRight = tuple.NewSchema("R",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "k", Kind: tuple.KindInt},
	tuple.Field{Name: "rv", Kind: tuple.KindInt},
)

// cjUnit is one step of a controlled interleave: a run of same-port
// elements the columnar run may batch together.
type cjUnit struct {
	port  int
	elems []stream.Element
}

// cjUnits builds an adversarial interleave: alternating port runs of
// varied length, duplicate keys from a small domain, equal-timestamp
// runs, stragglers up to 28 ticks behind, and punctuations held 40
// ticks behind the local maximum (terminating their unit, as the
// engine's flush-on-punct does).
func cjUnits(n int, keys int64, seed int64) []cjUnit {
	rng := rand.New(rand.NewSource(seed))
	var units []cjUnit
	maxTs := [2]int64{}
	emitted := 0
	for emitted < n {
		port := rng.Intn(2)
		runLen := 1 + rng.Intn(9)
		u := cjUnit{port: port}
		ts := maxTs[port]
		for r := 0; r < runLen && emitted < n; r++ {
			if rng.Intn(3) != 0 { // equal-ts runs are the common case
				ts = maxTs[port] + 2*rng.Int63n(3)
			}
			if maxTs[port] > 60 && rng.Int63n(16) == 0 {
				ts = maxTs[port] - 2*rng.Int63n(15) // straggler, ≤28 behind
			}
			if ts > maxTs[port] {
				maxTs[port] = ts
			}
			u.elems = append(u.elems, stream.Tup(tuple.New(ts,
				tuple.Time(ts), tuple.Int(rng.Int63n(keys)), tuple.Int(int64(emitted)))))
			emitted++
		}
		units = append(units, u)
		if rng.Intn(8) == 0 && maxTs[port] > 40 {
			p := maxTs[port] - 40
			units = append(units, cjUnit{port: port, elems: []stream.Element{
				stream.Punct(stream.ProgressPunct(p, 0, tuple.Time(p))),
			}})
		}
	}
	return units
}

func cjJoin(t *testing.T, lm, rm JoinMethod, residual bool, maxTuples int) *WindowJoin {
	t.Helper()
	var res expr.Expr
	if residual {
		out := cjLeft.Concat(cjRight)
		r, err := expr.NewBin(expr.OpGt,
			expr.MustColumn(out, "lv"), expr.MustColumn(out, "rv"))
		if err != nil {
			t.Fatal(err)
		}
		res = r
	}
	j, err := NewWindowJoin("cj", cjLeft, cjRight,
		JoinConfig{Window: window.Time(64, 64), Method: lm, Key: []int{1}, MaxTuples: maxTuples},
		JoinConfig{Window: window.Time(32, 32), Method: rm, Key: []int{1}},
		res)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func cjFmt(e stream.Element) string {
	if e.IsPunct() {
		return fmt.Sprintf("punct@%d", e.Punct.Ts)
	}
	return fmt.Sprintf("%d|%s", e.Tuple.Ts, e.Tuple.String())
}

// cjRowRun drives units element-at-a-time through Push and returns the
// formatted output plus the final snapshot bytes.
func cjRowRun(t *testing.T, j *WindowJoin, units []cjUnit) ([]string, []byte) {
	t.Helper()
	var out []string
	emit := func(e stream.Element) { out = append(out, cjFmt(e)) }
	for _, u := range units {
		for _, e := range u.elems {
			j.Push(u.port, e, emit)
		}
	}
	enc := &ckpt.Encoder{}
	if err := j.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	return out, enc.Bytes()
}

// cjBatch transposes a run of row elements into a fresh batch holding
// one reference.
func cjBatch(sch *tuple.Schema, elems []stream.Element) *stream.Batch {
	b := &stream.Batch{Schema: sch, Cols: make([][]tuple.Value, sch.Arity())}
	for _, e := range elems {
		b.AppendRow(e.Tuple)
	}
	b.Retain()
	return b
}

// cjColRun drives the same units through ProcessBatch, splitting each
// unit into batches of at most bs rows (punctuations go through Push,
// as the engine's row lane for punctuations does).
func cjColRun(t *testing.T, j *WindowJoin, units []cjUnit, bs int) ([]string, []byte) {
	t.Helper()
	var out []string
	emit := func(e stream.Element) { out = append(out, cjFmt(e)) }
	emitB := func(b *stream.Batch) {
		var row tuple.Tuple
		row.Vals = make([]tuple.Value, len(b.Cols))
		for r := 0; r < b.Rows(); r++ {
			b.GatherRow(r, &row)
			out = append(out, cjFmt(stream.Tup(row.Clone())))
		}
		b.Release()
	}
	sch := [2]*tuple.Schema{j.leftSch, j.rightSch}
	for _, u := range units {
		pend := 0
		flush := func(hi int) {
			if hi > pend {
				j.ProcessBatch(u.port, cjBatch(sch[u.port], u.elems[pend:hi]), emitB, emit)
				pend = hi
			}
		}
		for i, e := range u.elems {
			if e.IsPunct() {
				flush(i)
				j.Push(u.port, e, emit)
				pend = i + 1
				continue
			}
			if i+1-pend == bs {
				flush(i + 1)
			}
		}
		flush(len(u.elems))
	}
	enc := &ckpt.Encoder{}
	if err := j.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	return out, enc.Bytes()
}

func cjCompare(t *testing.T, label string, row, col []string, rowSnap, colSnap []byte) {
	t.Helper()
	if len(row) != len(col) {
		t.Fatalf("%s: row emitted %d, columnar %d", label, len(row), len(col))
	}
	for i := range row {
		if row[i] != col[i] {
			t.Fatalf("%s: output %d differs:\n  row: %s\n  col: %s", label, i, row[i], col[i])
		}
	}
	if !bytes.Equal(rowSnap, colSnap) {
		t.Fatalf("%s: snapshot bytes differ (row %d bytes, col %d bytes)",
			label, len(rowSnap), len(colSnap))
	}
}

func TestWindowJoinProcessBatchMatchesPush(t *testing.T) {
	methods := []struct {
		name   string
		lm, rm JoinMethod
	}{
		{"hash_hash", JoinHash, JoinHash},
		{"inl_inl", JoinNestedLoop, JoinNestedLoop},
		{"hash_inl", JoinHash, JoinNestedLoop},
	}
	for _, m := range methods {
		for _, residual := range []bool{false, true} {
			for _, bs := range []int{1, 7, 64} {
				label := fmt.Sprintf("%s/res=%v/bs=%d", m.name, residual, bs)
				units := cjUnits(600, 5, 42)
				row, rowSnap := cjRowRun(t, cjJoin(t, m.lm, m.rm, residual, 0), units)
				col, colSnap := cjColRun(t, cjJoin(t, m.lm, m.rm, residual, 0), units, bs)
				cjCompare(t, label, row, col, rowSnap, colSnap)
				if len(row) == 0 {
					t.Fatalf("%s: no output", label)
				}
			}
		}
	}
}

// TestWindowJoinProcessBatchRowFallback: MaxTuples is outside the fast
// envelope; ProcessBatch must gather and rerun the row path with
// identical results, and count the fallback.
func TestWindowJoinProcessBatchRowFallback(t *testing.T) {
	units := cjUnits(400, 4, 7)
	jr := cjJoin(t, JoinHash, JoinHash, false, 10)
	row, rowSnap := cjRowRun(t, jr, units)
	jc := cjJoin(t, JoinHash, JoinHash, false, 10)
	col, colSnap := cjColRun(t, jc, units, 16)
	cjCompare(t, "maxtuples-fallback", row, col, rowSnap, colSnap)
	if jc.ColFallbacks() == 0 {
		t.Error("row fallback not counted")
	}
	if jr.ColFallbacks() != 0 {
		t.Error("row run counted fallbacks")
	}
}

// cjRemap rewrites every data tuple's values through f, keeping the
// interleave, timestamps and punctuations, so one unit stream can drive
// joins over other key kinds and widths.
func cjRemap(units []cjUnit, f func(port int, vals []tuple.Value) []tuple.Value) []cjUnit {
	out := make([]cjUnit, len(units))
	for i, u := range units {
		ru := cjUnit{port: u.port, elems: make([]stream.Element, len(u.elems))}
		for x, e := range u.elems {
			if e.IsPunct() {
				ru.elems[x] = e
				continue
			}
			vals := append([]tuple.Value(nil), e.Tuple.Vals...)
			ru.elems[x] = stream.Tup(tuple.New(e.Tuple.Ts, f(u.port, vals)...))
		}
		out[i] = ru
	}
	return out
}

// TestWindowJoinProcessBatchGenericKeys: every equijoin key takes the
// vectorized core — IP keys through the payload hash, composite, Float
// ⋈ Int and String keys through the generic column hash with KeyEqual
// confirmation — and each must match Push exactly without a fallback.
func TestWindowJoinProcessBatchGenericKeys(t *testing.T) {
	keyOf := func(v tuple.Value) int64 { k, _ := v.AsInt(); return k }
	cases := []struct {
		name   string
		lk, rk tuple.Kind
		key    []int
		fast   bool
		remap  func(port int, v []tuple.Value) []tuple.Value
	}{
		{"ip", tuple.KindIP, tuple.KindIP, []int{1}, true, func(_ int, v []tuple.Value) []tuple.Value {
			v[1] = tuple.IP(uint32(0x0a000000 + keyOf(v[1])))
			return v
		}},
		{"float=int", tuple.KindFloat, tuple.KindInt, []int{1}, false, func(port int, v []tuple.Value) []tuple.Value {
			if port == 0 {
				v[1] = tuple.Float(float64(keyOf(v[1])))
			}
			return v
		}},
		{"string", tuple.KindString, tuple.KindString, []int{1}, false, func(_ int, v []tuple.Value) []tuple.Value {
			v[1] = tuple.String(fmt.Sprintf("k%d", keyOf(v[1])))
			return v
		}},
		{"two-column", tuple.KindInt, tuple.KindInt, []int{1, 2}, false, func(_ int, v []tuple.Value) []tuple.Value {
			v[2] = tuple.Int(keyOf(v[2]) % 2)
			return v
		}},
	}
	methods := []struct {
		name   string
		lm, rm JoinMethod
	}{
		{"hash_hash", JoinHash, JoinHash},
		{"inl_hash", JoinNestedLoop, JoinHash},
	}
	for _, c := range cases {
		left := tuple.NewSchema("L",
			tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
			tuple.Field{Name: "k", Kind: c.lk},
			tuple.Field{Name: "lv", Kind: tuple.KindInt})
		right := tuple.NewSchema("R",
			tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
			tuple.Field{Name: "k", Kind: c.rk},
			tuple.Field{Name: "rv", Kind: tuple.KindInt})
		units := cjRemap(cjUnits(600, 5, 42), c.remap)
		for _, m := range methods {
			mk := func() *WindowJoin {
				j, err := NewWindowJoin("cj", left, right,
					JoinConfig{Window: window.Time(64, 64), Method: m.lm, Key: c.key},
					JoinConfig{Window: window.Time(32, 32), Method: m.rm, Key: c.key},
					nil)
				if err != nil {
					t.Fatal(err)
				}
				return j
			}
			row, rowSnap := cjRowRun(t, mk(), units)
			if len(row) == 0 {
				t.Fatalf("%s/%s: no output", c.name, m.name)
			}
			for _, bs := range []int{1, 7, 64} {
				label := fmt.Sprintf("%s/%s/bs=%d", c.name, m.name, bs)
				j := mk()
				if fast := j.sides[0].fastKey >= 0; fast != c.fast {
					t.Errorf("%s: payload-hash lane = %v, want %v", label, fast, c.fast)
				}
				col, colSnap := cjColRun(t, j, units, bs)
				cjCompare(t, label, row, col, rowSnap, colSnap)
				if n := j.ColFallbacks(); n != 0 {
					t.Errorf("%s: %d batches fell back to the row path", label, n)
				}
			}
		}
	}
}

// TestWindowJoinFuseProject: a join with a fused projection emits, on
// both paths, exactly the projection of the unfused join's output — in
// the same order, from byte-identical state — and replicas rebuilt from
// it (ClonePartition + Restore, the checkpoint and rescale paths) keep
// the narrowed output.
func TestWindowJoinFuseProject(t *testing.T) {
	units := cjUnits(600, 5, 17)
	cols := []int{4, 1, 5, 2} // R.k, L.k, R.rv, L.lv
	full := cjLeft.Concat(cjRight)
	fields := make([]tuple.Field, len(cols))
	for i, c := range cols {
		fields[i] = full.Fields[c]
	}
	out := tuple.NewSchema("result", fields...)
	fused := func() *WindowJoin {
		j := cjJoin(t, JoinHash, JoinNestedLoop, false, 0)
		if err := j.FuseProject(out, cols); err != nil {
			t.Fatal(err)
		}
		return j
	}
	project := func(o *tuple.Tuple) *tuple.Tuple {
		vals := make([]tuple.Value, len(cols))
		for i, c := range cols {
			vals[i] = o.Vals[c]
		}
		return tuple.New(o.Ts, vals...)
	}

	ref := cjJoin(t, JoinHash, JoinNestedLoop, false, 0)
	var want []string
	for _, u := range units {
		for _, e := range u.elems {
			ref.Push(u.port, e, func(o stream.Element) { want = append(want, cjFmt(stream.Tup(project(o.Tuple)))) })
		}
	}
	enc := &ckpt.Encoder{}
	if err := ref.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	refSnap := enc.Bytes()
	if len(want) == 0 {
		t.Fatal("no output")
	}
	row, rowSnap := cjRowRun(t, fused(), units)
	cjCompare(t, "fused row", want, row, refSnap, rowSnap)
	for _, bs := range []int{1, 7, 64} {
		col, colSnap := cjColRun(t, fused(), units, bs)
		cjCompare(t, fmt.Sprintf("fused col bs=%d", bs), want, col, refSnap, colSnap)
	}

	// Cut halfway, rebuild a replica from the cut and run both on.
	half := len(units) / 2
	parent := fused()
	for _, u := range units[:half] {
		for _, e := range u.elems {
			parent.Push(u.port, e, func(stream.Element) {})
		}
	}
	enc = &ckpt.Encoder{}
	if err := parent.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	restored := parent.ClonePartition().(*WindowJoin)
	if err := restored.Restore(ckpt.NewDecoder(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	rescaled := parent.ClonePartition().(*WindowJoin)
	if err := rescaled.RestorePartition([][]byte{enc.Bytes()}, 0, 1); err != nil {
		t.Fatal(err)
	}
	var cont, gotRestored, gotRescaled []string
	for _, u := range units[half:] {
		for _, e := range u.elems {
			parent.Push(u.port, e, func(o stream.Element) { cont = append(cont, cjFmt(o)) })
			restored.Push(u.port, e, func(o stream.Element) { gotRestored = append(gotRestored, cjFmt(o)) })
			rescaled.Push(u.port, e, func(o stream.Element) { gotRescaled = append(gotRescaled, cjFmt(o)) })
		}
	}
	if len(cont) == 0 {
		t.Fatal("no output after the cut")
	}
	cjCompare(t, "restored replica", cont, gotRestored, nil, nil)
	// RestorePartition re-sorts the window by timestamp, so probe order
	// (not content) may differ under stragglers: compare as multisets.
	sort.Strings(cont)
	sort.Strings(gotRescaled)
	cjCompare(t, "rescaled replica", cont, gotRescaled, nil, nil)
	if rescaled.OutSchema() != out || restored.OutSchema() != out {
		t.Error("a rebuilt replica lost the fused schema")
	}
}

// TestWindowJoinFuseProjectRejects: FuseProject refuses what it cannot
// honor exactly.
func TestWindowJoinFuseProjectRejects(t *testing.T) {
	full := cjLeft.Concat(cjRight)
	two := tuple.NewSchema("result", full.Fields[1], full.Fields[5])
	if err := cjJoin(t, JoinHash, JoinHash, true, 0).FuseProject(two, []int{1, 5}); err == nil {
		t.Error("fused a join whose residual reads the full row")
	}
	if err := cjJoin(t, JoinHash, JoinHash, false, 0).FuseProject(two, []int{0, 5}); err == nil {
		t.Error("fused a TIME column under an INT field")
	}
	if err := cjJoin(t, JoinHash, JoinHash, false, 0).FuseProject(two, []int{1, 6}); err == nil {
		t.Error("fused a column past the concatenation")
	}
	if err := cjJoin(t, JoinHash, JoinHash, false, 0).FuseProject(two, []int{1}); err == nil {
		t.Error("fused a map shorter than its schema")
	}
	j := cjJoin(t, JoinHash, JoinHash, false, 0)
	j.Push(0, stream.Tup(tuple.New(1, tuple.Time(1), tuple.Int(1), tuple.Int(1))), func(stream.Element) {})
	if err := j.FuseProject(two, []int{1, 5}); err == nil {
		t.Error("fused after input arrived")
	}
}

// TestWindowJoinProcessBatchSelVector: a batch arriving with a
// selection vector (refined upstream by a filter kernel) must join
// exactly its selected rows.
func TestWindowJoinProcessBatchSelVector(t *testing.T) {
	units := cjUnits(400, 5, 99)
	// Row reference: only every other element of each unit survives.
	var rowUnits []cjUnit
	for _, u := range units {
		ru := cjUnit{port: u.port}
		for i, e := range u.elems {
			if e.IsPunct() || i%2 == 0 {
				ru.elems = append(ru.elems, e)
			}
		}
		rowUnits = append(rowUnits, ru)
	}
	row, rowSnap := cjRowRun(t, cjJoin(t, JoinHash, JoinHash, true, 0), rowUnits)

	jc := cjJoin(t, JoinHash, JoinHash, true, 0)
	var out []string
	emit := func(e stream.Element) { out = append(out, cjFmt(e)) }
	emitB := func(b *stream.Batch) {
		var r tuple.Tuple
		r.Vals = make([]tuple.Value, len(b.Cols))
		for i := 0; i < b.Rows(); i++ {
			b.GatherRow(i, &r)
			out = append(out, cjFmt(stream.Tup(r.Clone())))
		}
		b.Release()
	}
	sch := [2]*tuple.Schema{cjLeft, cjRight}
	for _, u := range units {
		var data []stream.Element
		for _, e := range u.elems {
			if e.IsPunct() {
				continue
			}
			data = append(data, e)
		}
		if len(data) > 0 {
			b := cjBatch(sch[u.port], data)
			for i := 0; i < len(data); i += 2 {
				b.Sel = append(b.Sel, int32(i))
			}
			jc.ProcessBatch(u.port, b, emitB, emit)
		}
		for _, e := range u.elems {
			if e.IsPunct() {
				jc.Push(u.port, e, emit)
			}
		}
	}
	enc := &ckpt.Encoder{}
	if err := jc.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	cjCompare(t, "sel-vector", row, out, rowSnap, enc.Bytes())
}

// TestWindowJoinProcessColSpanEnds: the span API must attribute output
// rows to input rows exactly as per-row Push does — the partition
// merger relies on the cumulative ends to reassemble the serial order.
func TestWindowJoinProcessColSpanEnds(t *testing.T) {
	units := cjUnits(500, 5, 3)
	jr := cjJoin(t, JoinHash, JoinNestedLoop, true, 0)
	var perRow [][]string // output run per pushed element, row reference
	for _, u := range units {
		for _, e := range u.elems {
			var runOut []string
			jr.Push(u.port, e, func(o stream.Element) { runOut = append(runOut, cjFmt(o)) })
			if !e.IsPunct() {
				perRow = append(perRow, runOut)
			}
		}
	}

	jc := cjJoin(t, JoinHash, JoinNestedLoop, true, 0)
	pool := stream.NewColPool(jc.OutSchema(), 64)
	var colPerRow [][]string
	sch := [2]*tuple.Schema{cjLeft, cjRight}
	for _, u := range units {
		var data []stream.Element
		for _, e := range u.elems {
			if e.IsPunct() {
				jc.Push(u.port, e, func(stream.Element) {})
				continue
			}
			data = append(data, e)
		}
		if len(data) == 0 {
			continue
		}
		b := cjBatch(sch[u.port], data)
		rows := make([]int32, len(data))
		for i := range rows {
			rows[i] = int32(i)
		}
		out := pool.Get()
		ends := jc.ProcessColSpan(u.port, b, rows, out, nil)
		if len(ends) != len(rows) {
			t.Fatalf("ends length %d, want %d", len(ends), len(rows))
		}
		var row tuple.Tuple
		row.Vals = make([]tuple.Value, len(out.Cols))
		lo := int32(0)
		for _, hi := range ends {
			var runOut []string
			for r := lo; r < hi; r++ {
				out.GatherRow(int(r), &row)
				runOut = append(runOut, cjFmt(stream.Tup(row.Clone())))
			}
			colPerRow = append(colPerRow, runOut)
			lo = hi
		}
		out.Release()
		b.Release() // ProcessColSpan does not consume the reference
	}
	if len(perRow) != len(colPerRow) {
		t.Fatalf("row path %d data rows, span path %d", len(perRow), len(colPerRow))
	}
	total := 0
	for i := range perRow {
		if len(perRow[i]) != len(colPerRow[i]) {
			t.Fatalf("row %d: %d outputs vs %d", i, len(perRow[i]), len(colPerRow[i]))
		}
		for x := range perRow[i] {
			if perRow[i][x] != colPerRow[i][x] {
				t.Fatalf("row %d output %d: %q vs %q", i, x, perRow[i][x], colPerRow[i][x])
			}
		}
		total += len(perRow[i])
	}
	if total == 0 {
		t.Fatal("no join output attributed")
	}
}

// TestXJoinProcessBatchMatchesPush: the in-memory probe/insert loop and
// the spill decisions run per arrival in both paths, so output order
// and spill state must match exactly, including the cleanup phase.
func TestXJoinProcessBatchMatchesPush(t *testing.T) {
	mk := func() *XJoin {
		x, err := NewXJoin("x", cjLeft, cjRight, []int{1}, []int{1}, 4, 64, nil, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	units := cjUnits(600, 6, 11)
	xr := mk()
	var row []string
	emitR := func(e stream.Element) { row = append(row, cjFmt(e)) }
	for _, u := range units {
		for _, e := range u.elems {
			xr.Push(u.port, e, emitR)
		}
	}
	xr.Flush(emitR)

	xc := mk()
	var col []string
	emitC := func(e stream.Element) { col = append(col, cjFmt(e)) }
	emitB := func(b *stream.Batch) {
		var r tuple.Tuple
		r.Vals = make([]tuple.Value, len(b.Cols))
		for i := 0; i < b.Rows(); i++ {
			b.GatherRow(i, &r)
			col = append(col, cjFmt(stream.Tup(r.Clone())))
		}
		b.Release()
	}
	sch := [2]*tuple.Schema{cjLeft, cjRight}
	for _, u := range units {
		var data []stream.Element
		for _, e := range u.elems {
			if e.IsPunct() {
				xc.Push(u.port, e, emitC)
				continue
			}
			data = append(data, e)
		}
		if len(data) > 0 {
			xc.ProcessBatch(u.port, cjBatch(sch[u.port], data), emitB, emitC)
		}
	}
	xc.Flush(emitC)

	if len(row) != len(col) {
		t.Fatalf("row emitted %d, columnar %d", len(row), len(col))
	}
	for i := range row {
		if row[i] != col[i] {
			t.Fatalf("output %d differs:\n  row: %s\n  col: %s", i, row[i], col[i])
		}
	}
	if len(row) == 0 {
		t.Fatal("no output")
	}
	_, spills, _, _ := xc.Stats()
	if spills == 0 {
		t.Fatal("budget never exceeded: spill path not exercised")
	}
}
