package agg

import (
	"math/rand"
	"sort"
	"testing"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// MaxGroups is sampled only where groups are about to leave; that must
// still be the exact maximum a per-tuple scan would have seen, on the
// pane path, the legacy path and across late tuples.
func TestMaxGroupsIsExactWithoutPerTupleSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, spec := range []window.Spec{window.Tumbling(50), window.Time(100, 25)} {
		for _, legacy := range []bool{false, true} {
			g := newPaneGroupBy(t, spec, newAggs(t, "sum", "count"), nil)
			if legacy {
				g.DisablePanes()
			}
			emit := func(stream.Element) {}
			want := 0
			ts := int64(0)
			for i := 0; i < 3000; i++ {
				ts += int64(rng.Intn(3))
				at := ts
				if i%97 == 0 && ts > 120 {
					at = ts - 120 // late: re-opens a closed window
				}
				g.Push(0, row(at, int64(rng.Intn(40)), 1), emit)
				if n := g.liveGroups(); n > want {
					want = n
				}
			}
			if got := g.MaxGroups(); got != want {
				t.Errorf("%s legacy=%v: MaxGroups = %d, a scan after every tuple saw %d", spec, legacy, got, want)
			}
			g.Flush(emit)
			if got := g.MaxGroups(); got != want {
				t.Errorf("%s legacy=%v: MaxGroups = %d after Flush, want %d", spec, legacy, got, want)
			}
		}
	}
}

// The payload sort is Value.Compare's order for every kind it admits,
// and anything else takes the generic comparison.
func TestSortGroupsMatchesValueCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := map[string]func() tuple.Value{
		"ip":       func() tuple.Value { return tuple.IP(rng.Uint32()) },
		"port":     func() tuple.Value { return tuple.Uint(uint64(rng.Intn(65536))) },
		"bucket":   func() tuple.Value { return tuple.Time(rng.Int63n(1 << 32)) },
		"small":    func() tuple.Value { return tuple.Int(rng.Int63n(1 << 20)) },
		"wide":     func() tuple.Value { return tuple.Uint(rng.Uint64() | 1<<40) },
		"negative": func() tuple.Value { return tuple.Int(rng.Int63n(1<<20) - 1<<19) },
		"float":    func() tuple.Value { return tuple.Float(rng.NormFloat64()) },
		"mixed": func() tuple.Value {
			if rng.Intn(2) == 0 {
				return tuple.Int(-rng.Int63n(1000))
			}
			return tuple.Uint(uint64(rng.Int63n(1000)))
		},
	}
	fast := map[string]bool{"ip": true, "port": true, "bucket": true, "small": true}
	for name, gen := range mk {
		grps := make([]*group, 500)
		for i := range grps {
			grps[i] = &group{keys: []tuple.Value{gen()}}
		}
		want := append([]*group(nil), grps...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].keys[0].Compare(want[j].keys[0]) < 0 })
		sortGroups(grps)
		for i := range grps {
			if grps[i].keys[0].Compare(want[i].keys[0]) != 0 {
				t.Fatalf("%s keys: position %d holds %v, Value.Compare puts %v there", name, i, grps[i].keys[0], want[i].keys[0])
			}
		}
		if took := sortByPayload(grps); took != fast[name] {
			t.Errorf("%s keys: payload sort taken = %v, want %v", name, took, fast[name])
		}
	}
}
