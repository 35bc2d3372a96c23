package agg

// The flat group index (table.go) against a Go-map reference, and the
// probes' agreement with key equality.

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// indexKeys is the fuzz key universe: one payload under every integral
// kind (equal across INT, UINT, IP and TIME), the integral FLOAT of the
// same value, NULL, negative INTs, BOOLs, a fractional FLOAT, STRINGs,
// and payloads past 2^32 and 2^63.
var indexKeys = func() []tuple.Value {
	var ks []tuple.Value
	for _, p := range []uint64{0, 1, 2, 7, 4095, 4096, 1 << 20, 1<<32 + 5} {
		ks = append(ks, tuple.Int(int64(p)), tuple.Uint(p), tuple.Time(int64(p)))
		if p <= math.MaxUint32 {
			ks = append(ks, tuple.IP(uint32(p)))
		}
		if p < 1<<53 {
			ks = append(ks, tuple.Float(float64(p)))
		}
	}
	return append(ks,
		tuple.Null, tuple.Int(-1), tuple.Int(-4096), tuple.Float(-1), tuple.Uint(math.MaxUint64),
		tuple.Uint(1<<63), tuple.Bool(false), tuple.Bool(true), tuple.Float(0.5), tuple.Float(math.Copysign(0, -1)),
		tuple.String(""), tuple.String("x"), tuple.String("4096"))
}()

// canonKey names a key's equality class under keysEqual for the values
// of indexKeys: integral kinds and integral FLOATs by numeric value
// (INT signed, the other integral kinds unsigned), every other kind by
// kind and payload.
func canonKey(v tuple.Value) string {
	switch v.Kind {
	case tuple.KindNull:
		return "null"
	case tuple.KindInt:
		return strconv.FormatInt(int64(v.Raw()), 10)
	case tuple.KindUint, tuple.KindIP, tuple.KindTime:
		return strconv.FormatUint(v.Raw(), 10)
	case tuple.KindFloat:
		if f := v.Fl(); f == math.Trunc(f) {
			return strconv.FormatInt(int64(f), 10)
		}
		return fmt.Sprintf("float %v", v.Fl())
	}
	return fmt.Sprintf("%v %v", v.Kind, v)
}

// TestProbesKeepEqualKeysTogether: equal keys share a payload probe and
// a chain hash, and canonKey is exactly keysEqual on the universe.
func TestProbesKeepEqualKeysTogether(t *testing.T) {
	for _, a := range indexKeys {
		for _, b := range indexKeys {
			eq := keysEqual([]tuple.Value{a}, []tuple.Value{b})
			if eq != (canonKey(a) == canonKey(b)) {
				t.Fatalf("%v (%v) vs %v (%v): keysEqual %v, canonKey %q vs %q", a, a.Kind, b, b.Kind, eq, canonKey(a), canonKey(b))
			}
			if !eq {
				continue
			}
			if payloadProbe(a) != payloadProbe(b) {
				t.Errorf("equal keys %v (%v) and %v (%v) have payload probes %x and %x", a, a.Kind, b, b.Kind, payloadProbe(a), payloadProbe(b))
			}
			if chainHash([]tuple.Value{a}) != chainHash([]tuple.Value{b}) {
				t.Errorf("equal keys %v (%v) and %v (%v) have different chain hashes", a, a.Kind, b, b.Kind)
			}
		}
	}
}

// FuzzGroupIndex runs find / insert / remove / recycle sequences on one
// groupTable against a map from equality class to group. The first
// byte picks the probe: the payload probe, the chain hash, one constant
// for every key, or the payload probe cut to two bits (forced equal
// probes between unequal keys). Each later byte pair is an operation
// and a key of indexKeys.
func FuzzGroupIndex(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 1, 1, 2, 1, 0, 9})
	f.Add([]byte{2, 0, 0, 0, 5, 0, 10, 0, 15, 1, 0, 3, 5, 1, 10, 0, 0, 2, 0})
	f.Add([]byte{3, 0, 40, 0, 41, 0, 42, 0, 43, 2, 41, 1, 40, 1, 43})
	f.Add([]byte{1, 0, 5, 0, 44, 0, 45, 1, 44, 3, 0, 1, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		probe := func(v tuple.Value) uint64 {
			switch ops[0] % 4 {
			case 0:
				return payloadProbe(v)
			case 1:
				return chainHash([]tuple.Value{v})
			case 2:
				return 42
			}
			return payloadProbe(v) & 3
		}
		var tbl groupTable
		var free []*group
		ref := map[string]*group{}
		for i := 1; i+1 < len(ops); i += 2 {
			v := indexKeys[int(ops[i+1])%len(indexKeys)]
			keys, h, c := []tuple.Value{v}, probe(v), canonKey(v)
			at := tbl.find(keys, h)
			var got *group
			if at >= 0 {
				got = tbl.slots[at].grp
			}
			if got != ref[c] {
				t.Fatalf("op %d: find %v (%v) = %v, want %v", i, v, v.Kind, got, ref[c])
			}
			switch ops[i] % 4 {
			case 0: // insert when absent
				if got == nil {
					grp := &group{keys: keys, states: []State{&countState{}}}
					tbl.insert(grp, h)
					ref[c] = grp
				}
			case 1: // remove when present
				if got != nil {
					tbl.removeAt(at)
					delete(ref, c)
				}
			case 2: // recycle the whole table
				recycleGroups(&tbl, &free)
				clear(ref)
			}
			live := 0
			for _, s := range tbl.slots {
				if s.grp != nil {
					live++
				}
			}
			if tbl.n != len(ref) || live != len(ref) {
				t.Fatalf("op %d: table n %d, %d live slots; want %d groups", i, tbl.n, live, len(ref))
			}
			for _, grp := range ref {
				if at := tbl.find(grp.keys, probe(grp.keys[0])); at < 0 || tbl.slots[at].grp != grp {
					t.Fatalf("op %d: group %v lost", i, grp.keys[0])
				}
			}
		}
	})
}

// walkMemSize is GroupBy.MemSize by a walk over every group of every
// table it counts.
func walkMemSize(g *GroupBy) int {
	n := 128 + 16*len(g.paneWins)
	walk := func(tbl *groupTable) {
		for _, s := range tbl.slots {
			if s.grp != nil {
				n += groupMemSize(s.grp)
			}
		}
	}
	for _, tbl := range g.windows {
		walk(tbl)
	}
	for _, p := range g.panes {
		walk(&p.groupTable)
	}
	if g.run != nil {
		walk(&g.run.tbl)
	}
	if g.unbounded != nil {
		walk(g.unbounded)
	}
	return n
}

// TestMemSizeMatchesWalk: an IP-keyed GroupBy (fixed group size) and a
// STRING-keyed one (walked) report the walk over every group after
// folds, after a punctuation closes a group, with a late side table,
// and after panes retire.
func TestMemSizeMatchesWalk(t *testing.T) {
	for _, kind := range []tuple.Kind{tuple.KindIP, tuple.KindString} {
		sc := tuple.NewSchema("M",
			tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
			tuple.Field{Name: "g", Kind: kind},
			tuple.Field{Name: "v", Kind: tuple.KindUint},
		)
		key := func(i int64) tuple.Value {
			if kind == tuple.KindIP {
				return tuple.IP(uint32(i*7919 + 5000))
			}
			return tuple.String(strconv.FormatInt(i*i, 10))
		}
		g := groupByOver(t, sc, window.Time(40, 10), specsOver(t, sc, "v", "count", "sum"), nil)
		if fixed := g.groupSize > 0; fixed != (kind == tuple.KindIP) {
			t.Fatalf("%v key: fixed group size %v", kind, fixed)
		}
		emit := func(stream.Element) {}
		check := func(when string) {
			t.Helper()
			if got, want := g.MemSize(), walkMemSize(g); got != want || want <= 128+16*len(g.paneWins) {
				t.Fatalf("%v key, %s: MemSize %d, walk %d", kind, when, got, want)
			}
		}
		push := func(ts, k int64) {
			g.Push(0, stream.Tup(tuple.New(ts, tuple.Time(ts), key(k), tuple.Uint(uint64(k)))), emit)
		}
		for ts := int64(0); ts < 45; ts++ {
			for k := int64(0); k < 1+ts%9; k++ {
				push(ts, k*(1+ts%4))
			}
		}
		check("after folds")
		g.Push(0, stream.Punct(stream.EndGroupPunct(45, 1, key(0))), emit)
		check("after a punctuation close")
		push(5, 3) // behind closed window [0, 40)
		if len(g.windows) == 0 {
			t.Fatalf("%v key: the late row opened no side table", kind)
		}
		check("with a late side table")
		push(70, 1)
		push(71, 2)
		check("after panes retire")
	}
}
