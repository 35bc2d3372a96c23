package main

import "time"

// Host calibration. The benchmark runs on a few cores of a shared host
// whose speed drifts by tens of percent over minutes (a busy neighbour
// slows every pass of a run alike), so a wall-clock rate compares two
// commits only if both happened to meet the same host. Between any two
// timed passes the harness therefore runs a fixed kernel of its own over
// the same slab and divides the pass's time by how much slower than
// nominal the kernel ran: what is left is the engine's speed on the
// nominal host. The kernel lives in this directory, so no change that
// claims a gain can touch it.

// calibNominalNs is the kernel's cost per tuple on the host
// BASELINE.json was taken on, quiet: a host factor of 1 is that host.
const calibNominalNs = 68.0

// calibration is the kernel's state. Its result rows stay reachable for
// a while, so they are heap allocations the collector has to trace and
// free, as an engine's result rows are.
type calibration struct {
	ring   [1024]*refRow
	groups map[uint64]*[2]uint64
	sum    uint64 // keeps the kernel's work observable
}

// hostFactor runs the kernel over the first slab, whole passes until
// atLeast has gone by (at least one), and returns how much slower than
// nominal this host ran it. The kernel does per tuple what a naive
// engine would: read the fields, test a predicate, allocate a result
// row per survivor, find the tuple's group in a map and fold it in.
func (w *workload) hostFactor(atLeast time.Duration) float64 {
	c := &w.calib
	if c.groups == nil {
		c.groups = make(map[uint64]*[2]uint64)
	}
	rows := w.slabs[0].tuples
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start) < atLeast {
		for i, t := range rows {
			if i%4096 == 0 {
				clear(c.groups)
			}
			r := toRefRow(t.Ts, t)
			if r.length > 512 {
				out := r
				c.ring[i%len(c.ring)] = &out
			}
			g := c.groups[r.src]
			if g == nil {
				g = new([2]uint64)
				c.groups[r.src] = g
			}
			g[0]++
			g[1] += r.length
			c.sum += mix(r.src ^ uint64(r.ts))
		}
		n += len(rows)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n) / calibNominalNs
}
