package main

import (
	"math"

	"streamdb/internal/tuple"
)

// The reference evaluator: a naive computation of each workload's
// result that shares no code with expr, ops, agg, exec or query. It
// reads plain rows and produces the same order-independent digest the
// harness folds the engine's result rows into, so any pass (timed or
// not) is checked by comparing two small values.

// digest is a multiset hash of result rows: the row count plus the
// wrapping sum of per-row hashes. Equal digests mean equal multisets
// up to a 2^-64 collision chance per differing row.
type digest struct {
	rows int64
	sum  uint64
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// addRow folds one result row given as its timestamp and the raw
// 64-bit payloads of its columns (floats by their IEEE bits).
func (d *digest) addRow(ts int64, cols ...uint64) {
	h := mix(uint64(ts))
	for _, c := range cols {
		h = mix(h ^ c)
	}
	d.sum += h
	d.rows++
}

// addTuple folds an engine result row into the digest.
func (d *digest) addTuple(t *tuple.Tuple) {
	h := mix(uint64(t.Ts))
	for _, v := range t.Vals {
		h = mix(h ^ payload(v))
	}
	d.sum += h
	d.rows++
}

func payload(v tuple.Value) uint64 {
	switch v.Kind {
	case tuple.KindNull:
		return 0x6e756c6c // a NULL must not collide with a zero
	case tuple.KindFloat:
		return math.Float64bits(v.Fl())
	default:
		return v.Raw()
	}
}

// refRow is one Traffic tuple as the reference sees it.
type refRow struct {
	ts                      int64
	src, dst, proto, length uint64
}

func toRefRow(ts int64, t *tuple.Tuple) refRow {
	return refRow{ts: ts, src: t.Vals[colSrc].Raw(), dst: t.Vals[colDst].Raw(),
		proto: t.Vals[colProto].Raw(), length: t.Vals[colLen].Raw()}
}

// refInput yields the i-th input row of a pass in arrival order; for
// the join, port tells which stream it arrived on.
type refInput func(i int) (row refRow, port int)

// reference computes the expected result digest of n input rows.
func (s *spec) reference(n int, in refInput) digest {
	switch s.shape {
	case shapeFilter:
		return s.refFilter(n, in)
	case shapeAgg:
		return s.refWindowAgg(n, in)
	default:
		return s.refJoin(n, in)
	}
}

func (s *spec) passes(r refRow) bool {
	return r.length > s.minLen && (!s.tcpOnly || r.proto == 6)
}

// refFilter: linear scan, project (srcIP, length).
func (s *spec) refFilter(n int, in refInput) digest {
	var d digest
	for i := 0; i < n; i++ {
		if r, _ := in(i); s.passes(r) {
			d.addRow(r.ts, r.src, r.length)
		}
	}
	return d
}

// refWindowAgg: one map per window instance. A tuple at ts belongs to
// every window [k*slide, k*slide+range) with k >= 0 that contains it;
// every non-empty (window, group) yields one row stamped with the
// window's end, whether it closed mid-stream or at end of input.
func (s *spec) refWindowAgg(n int, in refInput) digest {
	type acc struct {
		count int64
		sum   float64
	}
	windows := make(map[int64]map[uint64]*acc)
	for i := 0; i < n; i++ {
		r, _ := in(i)
		if !s.passes(r) {
			continue
		}
		for start := r.ts / s.slide * s.slide; start > r.ts-s.rng && start >= 0; start -= s.slide {
			w := windows[start]
			if w == nil {
				w = make(map[uint64]*acc)
				windows[start] = w
			}
			a := w[r.src]
			if a == nil {
				a = &acc{}
				w[r.src] = a
			}
			a.count++
			a.sum += float64(r.length)
		}
	}
	var d digest
	for start, w := range windows {
		for src, a := range w {
			cols := []uint64{src, uint64(a.count), math.Float64bits(a.sum)}
			if s.avg {
				cols = append(cols, math.Float64bits(a.sum/float64(a.count)))
			}
			d.addRow(start+s.rng, cols...)
		}
	}
	return d
}

// refJoin: nested loops over the in-order input. An arrival on one
// port matches every earlier arrival on the other port that is still
// inside the window (its ts is newer than the arrival's ts minus the
// range) and whose key is equal: Traffic.srcIP = Other.destIP. The
// result carries the later timestamp and (T.srcIP, T.length, O.length).
func (s *spec) refJoin(n int, in refInput) digest {
	var d digest
	var seen [2][]refRow
	for i := 0; i < n; i++ {
		r, port := in(i)
		opp := seen[1-port]
		live := 0
		for live < len(opp) && opp[live].ts <= r.ts-s.rng {
			live++
		}
		opp = opp[live:]
		seen[1-port] = opp
		for _, c := range opp {
			if port == 0 && r.src == c.dst {
				d.addRow(r.ts, r.src, r.length, c.length)
			} else if port == 1 && c.src == r.dst {
				d.addRow(r.ts, c.src, c.length, r.length)
			}
		}
		seen[port] = append(seen[port], r)
	}
	return d
}
