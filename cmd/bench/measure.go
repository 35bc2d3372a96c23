package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// result is what one invocation on one workload reports: the contract's
// last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// checker tallies operations attempted and failed: every front-door
// pass is one operation per result row it should have produced, plus
// one for the call itself.
type checker struct {
	attempted, failed int64
	log               io.Writer
}

// pass compares one pass's output against the reference digest. A
// multiset hash cannot say which rows differ, so a mismatch at equal
// counts fails every row of the pass.
func (c *checker) pass(what string, got, want digest, err error) {
	c.attempted += want.rows + 1
	switch {
	case err != nil:
		c.failed++
		fmt.Fprintf(c.log, "FAIL %s: %v\n", what, err)
	case got.rows != want.rows:
		d := got.rows - want.rows
		if d < 0 {
			d = -d
		}
		c.failed += d
		fmt.Fprintf(c.log, "FAIL %s: %d result rows, reference has %d\n", what, got.rows, want.rows)
	case got.sum != want.sum:
		c.failed += want.rows
		fmt.Fprintf(c.log, "FAIL %s: %d result rows differ from the reference\n", what, got.rows)
	}
}

// wire checks the transport's own account of a session: every tuple
// sent was applied exactly once.
func (c *checker) wire(what string, ws wireStats) {
	c.attempted += ws.sent
	if lost := ws.sent - ws.received; lost != 0 {
		if lost < 0 {
			lost = -lost
		}
		c.failed += lost
		fmt.Fprintf(c.log, "FAIL %s: sent %d tuples, server applied %d\n", what, ws.sent, ws.received)
	}
	if ws.dupes != 0 {
		c.failed += ws.dupes
		fmt.Fprintf(c.log, "FAIL %s: %d duplicate tuples on the wire\n", what, ws.dupes)
	}
}

// setupRounds is how many times a run sets the workload up from
// scratch; setup_s is the median.
const setupRounds = 3

// setUp builds the workload setupRounds times and keeps the last. Each
// round's time is divided by the host factor measured right after it
// (calib.go).
func setUp(s spec, seed int64, quick bool) (*workload, float64, error) {
	var w *workload
	var took []float64
	for i := 0; i < setupRounds; i++ {
		if w != nil {
			w.free()
		}
		runtime.GC() // the previous round's garbage is not this round's burden
		t := time.Now()
		var err error
		if w, err = newWorkload(s, seed, quick); err != nil {
			return nil, 0, err
		}
		d := time.Since(t)
		took = append(took, d.Seconds()/w.hostFactor(d/calibShare))
	}
	return w, median(took), nil
}

// calibShare: a calibration lasts this fraction of the timed section it
// follows (and at least one pass of the kernel over the slab), so a
// fifth of the closed loop's time goes to knowing the host.
const calibShare = 4

// phase is one open-loop phase's outcome.
type phase struct {
	rate    float64
	lat     latSummary
	pacer   *pacer
	res     passResult
	passed  bool
	invalid bool // the generator itself ran later than the latency limit
}

// openLoop runs one open-loop phase at rate for length and checks its
// output against the reference for exactly the tuples handed over.
func (w *workload) openLoop(rate float64, length time.Duration, c *checker) phase {
	p := newPacer(rate, length, w.rng, w.door == doorWire)
	expect := float64(p.dueBy(p.limitNs)) * w.outPerIn * 1.25
	if w.shape == shapeJoin {
		// Matches per arrival grow with the tuples inside the window.
		expect *= rate / (genRate * float64(len(w.slabs)))
	}
	rec := newLatRec(p, int(expect)+1024)
	runtime.GC()
	res, err := w.pass(p, rec, nil)
	what := fmt.Sprintf("%s open loop at %.0f tuples/s", w.name, rate)
	c.pass(what, res.out, w.refPaced(res.in, p), err)
	if w.door == doorWire {
		c.wire(what, res.wire)
	}
	w.restore()
	ph := phase{rate: rate, lat: rec.summary(), pacer: p, res: res}
	lagUs := p.lag.quantileUs(0.99)
	ph.invalid = lagUs > w.limitUs
	ph.passed = !ph.invalid && err == nil && ph.lat.samples > 0 && ph.lat.p99 <= w.limitUs &&
		p.endBacklog <= p.midBacklog+res.in/100
	return ph
}

// measureEndToEnd is the -trace 0 run: set-up, a closed-loop (or
// saturation) phase for throughput, an open-loop phase at the reference
// rate for latency, then the reference check.
func measureEndToEnd(s spec, seed int64, seconds float64, quick bool, log io.Writer) (result, error) {
	w, setupS, err := setUp(s, seed, quick)
	if err != nil {
		return result{}, err
	}
	c := &checker{log: log}

	// Each loop gets half of the run.
	length := time.Duration(seconds * 0.5 * float64(time.Second))

	// Closed loop: passes alternate with calibrations, and a pass's rate
	// is scaled by the mean host factor of the two around it.
	want := w.refClosed()
	var tps, raw, hosts []float64
	host := w.hostFactor(0)
	for deadline := time.Now().Add(length); len(tps) < 4 || time.Now().Before(deadline); {
		runtime.GC()
		res, err := w.pass(nil, nil, nil)
		c.pass(s.name+" closed loop", res.out, want, err)
		if s.door == doorWire {
			c.wire(s.name+" saturation", res.wire)
		}
		next := w.hostFactor(res.wall / calibShare)
		rate := float64(res.in) / res.wall.Seconds()
		raw = append(raw, rate)
		tps = append(tps, rate*(host+next)/2)
		hosts = append(hosts, next)
		host = next
	}

	ph := w.openLoop(s.refRate, length, c)

	fmt.Fprintf(log, "%s seed %d: tuples_per_s %.0f (quiet quarter of %d passes of %d tuples; median %.0f; unscaled median %.0f, host factor median %.3f); "+
		"latency at %.0f tuples/s over %d slices, %d samples: p50 %.1f us, p99 %.1f us (whole phase p99.9 %.1f us); generator lag p99 %.1f us; "+
		"backlog mid %d end %d; %d operations, %d failed\n",
		s.name, seed, quietRate(tps), len(tps), w.inputTuples(), median(tps), median(raw), median(hosts),
		ph.rate, ph.lat.slices, ph.lat.samples, ph.lat.p50, ph.lat.p99, ph.lat.p999, ph.pacer.lag.quantileUs(0.99),
		ph.pacer.midBacklog, ph.pacer.endBacklog, c.attempted, c.failed)

	m := metricSet{
		"setup_s":        setupS,
		"tuples_per_s":   quietRate(tps),
		"latency_p50_us": ph.lat.p50,
	}
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m.render(endToEnd)}, nil
}
