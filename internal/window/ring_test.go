package window

import (
	"math/rand"
	"testing"

	"streamdb/internal/tuple"
)

var ringSchema = tuple.NewSchema("R",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "k", Kind: tuple.KindInt},
	tuple.Field{Name: "s", Kind: tuple.KindString},
)

// refRow and refRing are the model the Ring is checked against: a
// plain slice FIFO, with chains found by filtering it.
type refRow struct {
	pos, ts int64
	h       uint64
	vals    []tuple.Value
}

type refRing struct {
	rows []refRow
	next int64
}

func (m *refRing) push(ts int64, h uint64, vals []tuple.Value) {
	m.next++
	m.rows = append(m.rows, refRow{pos: m.next, ts: ts, h: h, vals: vals})
}

func (m *refRing) pop() { m.rows = m.rows[1:] }

// chain returns the live rows of hash h, oldest first (all live rows
// when all is set: the nested-loop scan).
func (m *refRing) chain(h uint64, all bool) []refRow {
	var out []refRow
	for _, r := range m.rows {
		if all || r.h == h {
			out = append(out, r)
		}
	}
	return out
}

// TestRingMatchesSliceModel drives a Ring and the slice model through
// seeded random inserts, expiries and probes under time, row-count and
// cap windows: every probe must return the same rows in the same order,
// including probes right after a push that grew the ring with a chain
// wrapped around the old slot array.
func TestRingMatchesSliceModel(t *testing.T) {
	for _, mode := range []string{"time", "rows", "cap"} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r, m := NewRing(ringSchema, true), &refRing{}
			grew := 0
			check := func(h uint64, all bool) {
				want := m.chain(h, all)
				var got []int64
				if all {
					for pos := r.Head(); pos < r.Tail(); pos++ {
						got = append(got, pos)
					}
				} else {
					for pos := r.First(h); pos != 0; pos = r.Next(pos) {
						got = append(got, pos)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%d: probe %x found %d rows, want %d", mode, seed, h, len(got), len(want))
				}
				row := tuple.Tuple{Vals: make([]tuple.Value, 3)}
				for i, w := range want {
					r.Row(got[i], &row)
					if got[i] != w.pos || row.Ts != w.ts || !row.Vals[1].Equal(w.vals[1]) || row.Vals[2].Str() != w.vals[2].Str() {
						t.Fatalf("%s/%d: probe %x row %d = pos %d %v, want pos %d %v", mode, seed, h, i, got[i], row.Vals, w.pos, w.vals)
					}
				}
			}
			ts := int64(0)
			for step := 0; step < 3000; step++ {
				// Bursts let the window outgrow its ring; quiet phases let
				// it drain so the live region wraps before the next burst.
				burst := (step/500)%2 == 0
				ts += int64(rng.Intn(2))
				h := uint64(rng.Intn(7))
				vals := []tuple.Value{tuple.Time(ts), tuple.Int(int64(h)), tuple.String(string(rune('a' + rng.Intn(26))))}
				span, limit := int64(40), 30
				if burst {
					span, limit = 400, 300
				}
				switch mode {
				case "time":
					for r.Len() > 0 && r.Ts(r.Head()) <= ts-span {
						r.PopFront()
						m.pop()
					}
				case "rows":
					for r.Len() >= limit {
						r.PopFront()
						m.pop()
					}
				case "cap": // a long time window under a cap: one eviction per insert at most
					for r.Len() > 0 && r.Ts(r.Head()) <= ts-10*span {
						r.PopFront()
						m.pop()
					}
					if r.Len() >= limit {
						r.PopFront()
						m.pop()
					}
				}
				before := len(r.ts)
				r.PushTuple(h, &tuple.Tuple{Ts: ts, Vals: vals})
				m.push(ts, h, vals)
				if len(r.ts) != before {
					grew++
					for k := uint64(0); k < 7; k++ {
						check(k, false)
					}
				}
				if r.Len() != len(m.rows) {
					t.Fatalf("%s/%d: Len %d, want %d", mode, seed, r.Len(), len(m.rows))
				}
				check(uint64(rng.Intn(8)), rng.Intn(10) == 0)
			}
			if grew < 2 {
				t.Fatalf("%s/%d: the ring grew %d times, want several", mode, seed, grew)
			}
			for r.Len() > 0 {
				r.PopFront()
				m.pop()
			}
			if r.index.n != 0 || r.strBytes != 0 {
				t.Fatalf("%s/%d: drained ring keeps %d chains, %d string bytes", mode, seed, r.index.n, r.strBytes)
			}
		}
	}
}

// TestRingIndexSurvivesChurn: keys coming and going forever leave the
// index table at the size its peak population needed, and every chain
// still resolves. The hashes share their low bits in sevens, so probe
// runs are long and every removal shifts entries back across them.
func TestRingIndexSurvivesChurn(t *testing.T) {
	r := NewRing(ringSchema, true)
	row := &tuple.Tuple{Vals: make([]tuple.Value, 3)}
	for i := int64(0); i < 20000; i++ {
		if r.Len() == 100 {
			r.PopFront()
		}
		h := uint64(i)<<32 | uint64(i%7) // a fresh key per row
		row.Ts = i
		r.PushTuple(h, row)
		for pos := r.Head(); pos < r.Tail(); pos++ {
			if r.First(r.hash[r.Slot(pos)]) != pos {
				t.Fatalf("row %d: the chain of live row %d does not start at it", i, pos)
			}
		}
	}
	if n := len(r.index.slots); n > 256 {
		t.Errorf("index table grew to %d slots for 100 live keys", n)
	}
}
