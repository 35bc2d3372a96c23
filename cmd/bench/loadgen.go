package main

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"time"
)

// The open-loop load generator: a schedule that does not slow when the
// system slows. Tuple i of a phase is due at i/rate seconds after the
// phase starts and is stamped with that instant, whenever it is
// actually handed over; a late hand-over therefore counts against the
// result's latency, and how late the generator ran is reported.

// pacer schedules one open-loop phase.
type pacer struct {
	start    time.Time
	periodNs float64 // ns between due instants
	limitNs  int64   // phase length
	baseNs   int64   // stream time at the phase's start
	yield    bool    // spin with Gosched: the generator shares its cores with engine goroutines

	handed     int64 // tuples handed over so far
	now        int64 // last clock reading, ns since start
	stale      int   // hand-overs since that reading
	lag        hist  // hand-over instant minus due instant, ns
	midBacklog int64 // tuples due but not handed over at half time
	endBacklog int64 // ... and when the phase ran out
	midSeen    bool
	done       bool
}

// newPacer schedules rate tuples per second for length. Stream time
// starts at base rather than at zero: a window query emits nothing until
// stream time has covered one full window range, and starting a range in
// lets the first window close one slide after the phase starts.
func newPacer(rate float64, length time.Duration, base int64, yield bool) *pacer {
	return &pacer{periodNs: 1e9 / rate, limitNs: length.Nanoseconds(), baseNs: base, yield: yield}
}

// due is the scheduled creation time of tuple i, ns since phase start.
func (p *pacer) due(i int64) int64 { return int64(float64(i) * p.periodNs) }

// stamp is tuple i's creation time in stream time.
func (p *pacer) stamp(i int64) int64 { return p.baseNs + p.due(i) }

// dueBy counts the tuples scheduled in [0, now).
func (p *pacer) dueBy(now int64) int64 {
	if now > p.limitNs {
		now = p.limitNs
	}
	return int64(math.Ceil(float64(now) / p.periodNs))
}

// wait blocks until tuple i is due and reports ok=false once the phase
// is over: either every scheduled tuple was handed over, or time ran
// out with a backlog. Callers hand over tuples handed..i inclusive.
func (p *pacer) wait(i int64) (ok bool) {
	if p.done {
		return false
	}
	if p.start.IsZero() {
		p.start = time.Now()
	}
	due := p.due(i)
	if due >= p.limitNs {
		p.done = true
		return false
	}
	// A generator that is behind hands over at once; it re-reads the
	// clock only every few tuples, so that catching up costs the system
	// under test a fraction of a clock read per tuple.
	now := p.now
	if p.stale++; due >= now || p.stale >= staleMax {
		now = time.Since(p.start).Nanoseconds()
		for now < due {
			if p.yield {
				if due-now > int64(2*time.Millisecond) {
					time.Sleep(time.Duration(due-now) - time.Millisecond)
				} else {
					runtime.Gosched()
				}
			}
			now = time.Since(p.start).Nanoseconds()
		}
		p.now, p.stale = now, 0
	}
	if now >= p.limitNs {
		p.endBacklog = p.dueBy(now) - p.handed
		p.done = true
		return false
	}
	if !p.midSeen && now >= p.limitNs/2 {
		p.midSeen = true
		p.midBacklog = p.dueBy(now) - p.handed
	}
	p.lag.add(now - due)
	p.handed = i + 1
	return true
}

// staleMax bounds how many tuples a late generator hands over on one
// clock reading.
const staleMax = 16

// sliceNs is the width of one latency slice. Ten milliseconds holds
// thousands of rows of a per-tuple workload and exactly one close of a
// windowed one (every row of a close carries the window's end as its
// creation stamp), and is short enough that a collection cycle touches
// under a quarter of the slices.
const sliceNs = int64(10 * time.Millisecond)

// latRec records result latencies of one open-loop phase, cut into
// slices by creation time. A phase's figure is the mean over its
// quietest slices' percentiles, so a GC or scheduler stall moves the
// slices it hits and not the reported figure.
type latRec struct {
	p       *pacer
	epoch   time.Time // rows are timed against this; the pacer's start is subtracted afterwards
	lat     []int64   // emit instant (since epoch) minus creation stamp (since phase start), ns
	cuts    []int     // lat[cuts[k]:cuts[k+1]] is slice k
	nextCut int64
}

func newLatRec(p *pacer, expectRows int) *latRec {
	return &latRec{p: p, epoch: time.Now(), lat: make([]int64, 0, expectRows), nextCut: sliceNs}
}

// observe records one result row stamped ts. No tuple is created at or
// after the phase's end, so a row stamped there (a window that was
// still open) comes from the end-of-stream flush, not from an arrival,
// and has no latency. The sink may run on another goroutine than the
// generator, so observe reads nothing the generator writes.
func (r *latRec) observe(ts int64) {
	if ts -= r.p.baseNs; ts >= r.p.limitNs {
		return
	}
	for ts >= r.nextCut {
		r.cuts = append(r.cuts, len(r.lat))
		r.nextCut += sliceNs
	}
	r.lat = append(r.lat, time.Since(r.epoch).Nanoseconds()-ts)
}

// latSummary is one phase's latency figures in microseconds.
type latSummary struct {
	p50, p99 float64 // mean over the quietest quarter of slices of each slice's percentile
	p999     float64 // over the whole phase: where the stalls the slices set aside show
	samples  int
	slices   int
}

// summary is called once the phase is over.
func (r *latRec) summary() latSummary {
	started := r.p.start.Sub(r.epoch).Nanoseconds()
	for i := range r.lat {
		r.lat[i] -= started
	}
	cuts := append(append([]int{0}, r.cuts...), len(r.lat))
	var p50s, p99s []float64
	for k := 0; k+1 < len(cuts); k++ {
		s := append([]int64(nil), r.lat[cuts[k]:cuts[k+1]]...)
		if len(s) == 0 {
			continue
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		p50s = append(p50s, float64(quantile(s, 0.50))/1e3)
		p99s = append(p99s, float64(quantile(s, 0.99))/1e3)
	}
	sum := latSummary{p50: quietMean(p50s), p99: quietMean(p99s), samples: len(r.lat), slices: len(p50s)}
	if len(r.lat) > 0 {
		all := append([]int64(nil), r.lat...)
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		sum.p999 = float64(quantile(all, 0.999)) / 1e3
	}
	return sum
}

// quantile is the nearest-rank quantile of a sorted sample.
func quantile(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quietMean is the mean of the lowest quarter of v: what a slice reads
// when nothing outside the engine disturbs it. Interference only ever
// adds latency - a collection cycle, a host interrupt, a busy
// neighbour - and it comes and goes in phases that last minutes, so
// the middle of the slice distribution drifts with the host (the
// interquartile mean of a filter's slice p99 read 12.6-17.9 us across
// ten identical runs) while its low end hardly does (the tenth
// percentile read 9.4-10.9 us).
// Anything the engine itself does to every result - a slower close, a
// batch that waits to fill, a flush timer - moves the quiet slices as
// much as the rest.
func quietMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quiet := s[:(len(s)+3)/4]
	sum := 0.0
	for _, x := range quiet {
		sum += x
	}
	return sum / float64(len(quiet))
}

// quietRate is quietMean for rates: the mean of the highest quarter.
func quietRate(v []float64) float64 {
	neg := make([]float64, len(v))
	for i, x := range v {
		neg[i] = -x
	}
	return -quietMean(neg)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them (exclusive method), the rule
// the acceptance check applies to run-to-run spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}

// hist is a log-linear histogram of nanosecond values: 16 sub-buckets
// per power of two, so a reported quantile is within ~6% of the sample
// it stands for. Used where one sample per input tuple would be too
// many to keep (generator lag).
type hist struct {
	counts [64 * 16]int64
	n      int64
}

func (h *hist) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	exp := 63 - bits.LeadingZeros64(uint64(ns))
	sub := 0
	if exp >= 4 {
		sub = int(uint64(ns)>>(uint(exp)-4)) & 15
	} else {
		sub = int(uint64(ns)<<(4-uint(exp))) & 15
	}
	h.counts[exp*16+sub]++
	h.n++
}

// quantileUs returns the q-quantile's bucket upper edge in microseconds.
func (h *hist) quantileUs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	want := int64(math.Ceil(q * float64(h.n)))
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= want {
			exp, sub := b/16, b%16
			edge := math.Ldexp(1+float64(sub+1)/16, exp)
			return edge / 1e3
		}
	}
	return 0
}
