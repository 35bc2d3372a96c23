package query

// The planner folds a plain-column select list into the join's output
// column map. Every rebuild of the join's replicas must keep it: a
// checkpoint cut mid-run through the partitioned columnar lane,
// restored into a fresh build of the same plan, must stitch to the
// bytes of an uninterrupted run.

import (
	"fmt"
	"testing"

	"streamdb/internal/ckpt"
	"streamdb/internal/exec"
	"streamdb/internal/stream"
)

func TestFusedJoinCheckpointResume(t *testing.T) {
	cat := testCatalog()
	cat.Register("Other", stream.TrafficSchema("Other"))
	const sql = `select T.srcIP, T.length as tlen, O.length as olen
		from Traffic [range 250000 ns] T, Other [range 250000 ns] O where T.srcIP = O.destIP`
	gen := func(seed int64) []stream.Element {
		return stream.Drain(stream.WithProgressPunctuation(stream.NewTrafficStream(seed, 1e5, 50), 100000), 2400)
	}
	traffic, other := gen(5), gen(6)

	run := func(maxElements int64, opts *exec.RunOptions) []string {
		t.Helper()
		q, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Compile(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		g := exec.NewGraph(func(e stream.Element) {
			if !e.IsPunct() {
				got = append(got, fmt.Sprintf("%d|%s", e.Tuple.Ts, e.Tuple))
			}
		})
		err = plan.Build(g, map[string]stream.Source{
			"Traffic": stream.FromElements(stream.TrafficSchema("Traffic"), traffic...),
			"Other":   stream.FromElements(stream.TrafficSchema("Other"), other...),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range g.AllStats() {
			if st.Op == "project" {
				t.Fatal("the plain-column select list was not fused into the join")
			}
		}
		if opts == nil {
			g.Run(maxElements)
		} else {
			g.RunWith(maxElements, *opts)
		}
		if err := g.Err(); err != nil {
			t.Fatal(err)
		}
		return got
	}

	base := run(-1, nil)
	if len(base) == 0 {
		t.Fatal("serial baseline produced nothing")
	}
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	commits := 0
	opts := exec.RunOptions{
		Columnar: true, BatchSize: 16, Parallelism: 2, ForceParallelism: true, PartitionJoins: true,
		Checkpoint: &exec.CheckpointConfig{Store: store, Every: 307, OnCommit: func(_ int64, err error) {
			if err == nil {
				commits++
			}
		}},
	}
	first := run(900, &opts)
	if commits == 0 {
		t.Fatal("crash run committed no epochs")
	}
	c, err := store.Latest()
	if err != nil || c == nil {
		t.Fatalf("Latest: %v, %v", c, err)
	}
	if int(c.OutSeq) > len(first) {
		t.Fatalf("OutSeq %d beyond delivered %d", c.OutSeq, len(first))
	}
	opts.Restore = c
	second := run(-1, &opts)
	got := append(append([]string{}, first[:c.OutSeq]...), second...)
	if len(got) != len(base) {
		t.Fatalf("stitched run has %d rows, uninterrupted %d", len(got), len(base))
	}
	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("row %d: stitched %s, uninterrupted %s", i, got[i], base[i])
		}
	}
}
