package ops

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"streamdb/internal/ckpt"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// goldenSnapshotFile holds the WindowJoin snapshot bytes of the fixed
// input goldenUnits builds. The join's state layout may change; these
// bytes may not: checkpoints written before a change must restore
// after it.
var goldenSnapshotFile = filepath.Join("testdata", "windowjoin_snapshot.golden")

var goldenLeft = tuple.NewSchema("GL",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "k", Kind: tuple.KindInt},
	tuple.Field{Name: "name", Kind: tuple.KindString},
)

// goldenJoin builds the join the golden input drives: a hash-indexed
// left side with a STRING payload column against a nested-loop right
// side, both over 40-tick time windows.
func goldenJoin(t *testing.T) *WindowJoin {
	t.Helper()
	j, err := NewWindowJoin("golden", goldenLeft, cjRight,
		JoinConfig{Window: window.Time(40, 40), Method: JoinHash, Key: []int{1}},
		JoinConfig{Window: window.Time(40, 40), Method: JoinNestedLoop, Key: []int{1}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func goldenRow(port int, ts, k, v int64) stream.Element {
	if port == 0 {
		return stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(k), tuple.String(string(rune('a'+v%26))+"-row")))
	}
	return stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(k), tuple.Int(v)))
}

func goldenPunct(port int, ts int64) cjUnit {
	return cjUnit{port: port, elems: []stream.Element{stream.Punct(stream.ProgressPunct(ts, 0, tuple.Time(ts)))}}
}

// goldenUnits returns the input up to the snapshot and the input after
// it. Before the cut: 100 left rows over three keys with right rows
// interleaved, a punctuation that expires the oldest ~60 left rows (the
// left window's live rows now straddle the end of its first slot
// array), a 100-row equal-timestamp left burst that grows the window
// past two doublings while every key chain wraps, an out-of-order left
// row that flips the left side to unsorted mode, and a right
// punctuation sweep. After the cut: more rows on both sides.
func goldenUnits() (before, after []cjUnit) {
	v := int64(0)
	row := func(port int, ts, k int64) stream.Element {
		v++
		return goldenRow(port, ts, k, v)
	}
	for ts := int64(0); ts < 100; ts += 4 {
		u := cjUnit{port: 0}
		for d := int64(0); d < 4; d++ {
			u.elems = append(u.elems, row(0, ts+d, (ts+d)%3))
		}
		before = append(before, u, cjUnit{port: 1, elems: []stream.Element{row(1, ts+3, ts%3)}})
	}
	before = append(before, goldenPunct(1, 99))
	burst := cjUnit{port: 0}
	for i := int64(0); i < 100; i++ {
		burst.elems = append(burst.elems, row(0, 100, i%3))
	}
	before = append(before, burst,
		cjUnit{port: 1, elems: []stream.Element{row(1, 101, 1), row(1, 102, 2)}},
		cjUnit{port: 0, elems: []stream.Element{row(0, 95, 2)}}, // out of order
		goldenPunct(1, 120),
		cjUnit{port: 1, elems: []stream.Element{row(1, 121, 0)}},
	)
	for ts := int64(122); ts < 200; ts += 3 {
		after = append(after,
			cjUnit{port: 0, elems: []stream.Element{row(0, ts, ts%3), row(0, ts+1, (ts+1)%3)}},
			cjUnit{port: 1, elems: []stream.Element{row(1, ts+2, ts%3)}})
	}
	after = append(after, goldenPunct(0, 190), cjUnit{port: 1, elems: []stream.Element{row(1, 200, 1)}})
	return before, after
}

// goldenFeed drives units into j: data runs of more than one row as one
// column batch, single rows and punctuations through Push, so both the
// vectorized and the row path build the state. Output is formatted
// into the returned slice.
func goldenFeed(j *WindowJoin, units []cjUnit) []string {
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
	sch := [2]*tuple.Schema{j.leftSch, j.rightSch}
	for _, u := range units {
		if len(u.elems) > 1 {
			j.ProcessBatch(u.port, cjBatch(sch[u.port], u.elems), emitB, emit)
			continue
		}
		j.Push(u.port, u.elems[0], emit)
	}
	return out
}

func goldenSnapshot(t *testing.T, j *WindowJoin) []byte {
	t.Helper()
	enc := &ckpt.Encoder{}
	if err := j.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// TestWindowJoinSnapshotGolden pins the checkpoint format of the window
// join: the snapshot after the golden input must equal the committed
// bytes, and those bytes must restore — into a fresh join, and split
// over two replicas by RestorePartition — to state that produces the
// same later output as the join that never stopped.
func TestWindowJoinSnapshotGolden(t *testing.T) {
	want, err := os.ReadFile(goldenSnapshotFile)
	if err != nil {
		t.Fatal(err)
	}
	before, after := goldenUnits()
	j := goldenJoin(t)
	if len(goldenFeed(j, before)) == 0 {
		t.Fatal("no output before the cut")
	}
	if j.sides[0].sorted {
		t.Fatal("the out-of-order row did not flip the left side to unsorted mode")
	}
	got := goldenSnapshot(t, j)
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot differs from %s: %d bytes, want %d", goldenSnapshotFile, len(got), len(want))
	}

	cont := goldenFeed(j, after)
	if len(cont) == 0 {
		t.Fatal("no output after the cut")
	}

	restored := goldenJoin(t)
	if err := restored.Restore(ckpt.NewDecoder(want)); err != nil {
		t.Fatal(err)
	}
	if again := goldenSnapshot(t, restored); !bytes.Equal(again, want) {
		t.Fatal("a restored join snapshots different bytes")
	}
	cjCompare(t, "restored", cont, goldenFeed(restored, after), nil, nil)

	// P = 2: each replica restores its key slice and sees only its keys'
	// rows (punctuations go to both). RestorePartition re-sorts each
	// window by timestamp, so compare the union as a multiset.
	var union []string
	for k := 0; k < 2; k++ {
		rep := goldenJoin(t)
		if err := rep.RestorePartition([][]byte{want}, k, 2); err != nil {
			t.Fatal(err)
		}
		var mine []cjUnit
		for _, u := range after {
			var keep []stream.Element
			for _, e := range u.elems {
				if e.IsPunct() || rep.PartitionHash(u.port, e.Tuple)%2 == uint64(k) {
					keep = append(keep, e)
				}
			}
			for _, e := range keep {
				mine = append(mine, cjUnit{port: u.port, elems: []stream.Element{e}})
			}
		}
		union = append(union, goldenFeed(rep, mine)...)
	}
	sorted := append([]string(nil), cont...)
	sort.Strings(sorted)
	sort.Strings(union)
	cjCompare(t, "RestorePartition P=2", sorted, union, nil, nil)
}
