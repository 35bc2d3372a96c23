package main

import (
	"fmt"
	"net"
	"sort"
	"time"

	"streamdb"
	"streamdb/internal/dsms"
	"streamdb/internal/exec"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// workload is one spec bound to generated input and a fresh engine.
type workload struct {
	spec
	slabs    []*slab
	eng      *streamdb.Engine
	outPerIn float64 // result rows per input tuple on the closed loop; sizes latency buffers
	calib    calibration
}

// newWorkload does everything a user pays before the first result:
// generate the input, declare the schemas, check that the query
// compiles, and run the front door once so lazy set-up is done.
func newWorkload(s spec, seed int64, quick bool) (*workload, error) {
	if quick {
		s.slabLog2 -= 5
	}
	w := &workload{spec: s, eng: streamdb.New()}
	for k, name := range s.streams() {
		sl := newSlab(name, seed+int64(k), 1<<s.slabLog2, s.addrPool)
		w.slabs = append(w.slabs, sl)
		w.eng.RegisterSchema(name, sl.sch)
	}
	if _, err := w.eng.Compile(s.sql); err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	warm, err := w.pass(nil, nil, nil)
	if err != nil {
		return nil, err
	}
	w.outPerIn = float64(warm.out.rows) / float64(warm.in)
	return w, nil
}

// inputTuples is the size of one closed-loop pass.
func (w *workload) inputTuples() int64 { return int64(len(w.slabs) * len(w.slabs[0].tuples)) }

// portElem is one input element of a pass with the port it arrives on.
type portElem struct {
	e    stream.Element
	port int
}

// merged is the closed-loop input in the order the serial engine
// consumes it: by timestamp, first stream first on ties.
func (w *workload) merged() []portElem {
	out := make([]portElem, 0, w.inputTuples())
	for k, sl := range w.slabs {
		for _, e := range sl.elems {
			out = append(out, portElem{e, k})
		}
	}
	if len(w.slabs) > 1 {
		sort.SliceStable(out, func(i, j int) bool { return out[i].e.Tuple.Ts < out[j].e.Tuple.Ts })
	}
	return out
}

// refClosed is the reference result of one closed-loop pass.
func (w *workload) refClosed() digest {
	in := w.merged()
	return w.reference(len(in), func(i int) (refRow, int) {
		t := in[i].e.Tuple
		return toRefRow(t.Ts, t), in[i].port
	})
}

// refPaced is the reference result of an open-loop phase that handed
// over n tuples at the pacer's schedule: the streams alternate, each
// replaying its slab in order.
func (w *workload) refPaced(n int64, p *pacer) digest {
	k := len(w.slabs)
	return w.reference(int(n), func(i int) (refRow, int) {
		sl := w.slabs[i%k]
		return toRefRow(p.stamp(int64(i)), sl.tuples[i/k%len(sl.tuples)]), i % k
	})
}

// free releases the slabs; the workload is unusable afterwards.
func (w *workload) free() {
	for _, sl := range w.slabs {
		sl.free()
	}
}

// restore undoes open-loop re-stamping.
func (w *workload) restore() {
	for _, sl := range w.slabs {
		sl.restore()
	}
}

// passResult is what one run of the front door consumed and produced.
type passResult struct {
	in   int64 // input tuples consumed
	out  digest
	wall time.Duration
	wire wireStats
}

// pass runs the workload's front door once. With a nil pacer it is a
// closed-loop pass over the slabs as generated; with a pacer it is an
// open-loop phase whose result latencies go to rec. A non-nil tracer
// gets spans around the Feed and Send calls.
func (w *workload) pass(p *pacer, rec *latRec, tr *tracer) (passResult, error) {
	var res passResult
	sink := func(t *tuple.Tuple) {
		res.out.addTuple(t)
		if rec != nil {
			rec.observe(t.Ts)
		}
	}
	var err error
	start := time.Now()
	switch w.door {
	case doorQuery:
		err = w.passQuery(p, sink)
	case doorFeed:
		err = w.passFeed(p, sink, tr)
	case doorWire:
		res.wire, err = w.passWire(p, sink, tr)
	}
	res.wall = time.Since(start)
	res.in = w.inputTuples()
	if p != nil {
		res.in = p.handed
	}
	return res, err
}

// pacedSource is a pull source on the pacer's schedule: Next blocks
// until its next tuple is due, then hands it over stamped with the due
// instant. Stream k of stride streams owns tuples k, k+stride, ...
type pacedSource struct {
	p      *pacer
	s      *slab
	k, j   int64
	stride int64
}

func (ps *pacedSource) Schema() *tuple.Schema { return ps.s.sch }

func (ps *pacedSource) Next() (stream.Element, bool) {
	i := ps.j*ps.stride + ps.k
	if !ps.p.wait(i) {
		return stream.Element{}, false
	}
	idx := int(ps.j % int64(len(ps.s.tuples)))
	ps.s.stamp(idx, ps.p.stamp(i))
	ps.j++
	return ps.s.elems[idx], true
}

func (w *workload) passQuery(p *pacer, sink func(*tuple.Tuple)) error {
	for k, name := range w.streams() {
		var src stream.Source = stream.FromElements(w.slabs[k].sch, w.slabs[k].elems...)
		if p != nil {
			src = &pacedSource{p: p, s: w.slabs[k], k: int64(k), stride: int64(len(w.slabs))}
		}
		if err := w.eng.SetSource(name, src); err != nil {
			return err
		}
	}
	_, err := w.eng.QueryInto(w.sql, -1, sink)
	return err
}

// advanceEvery is how often the feeder asserts progress on a standing
// query, in tuples.
const advanceEvery = 4096

func (w *workload) passFeed(p *pacer, sink func(*tuple.Tuple), tr *tracer) error {
	cq, err := w.eng.RegisterContinuous(w.sql, sink)
	if err != nil {
		return err
	}
	sl := w.slabs[0]
	n := int64(len(sl.tuples))
	sp := int32(-1)
	defer func() { tr.end(sp) }()
	for i := int64(0); ; i++ {
		if tr != nil && i%chunk == 0 {
			tr.end(sp)
			sp = tr.begin("cq.feed", int32(i/chunk), -1)
		}
		var t *tuple.Tuple
		if p == nil {
			if i == n {
				break
			}
			t = sl.tuples[i]
		} else {
			if !p.wait(i) {
				break
			}
			t = sl.stamp(int(i%n), p.stamp(i))
		}
		if err := cq.Feed("Traffic", t); err != nil {
			return err
		}
		if (i+1)%advanceEvery == 0 {
			if err := cq.Advance("Traffic", t.Ts); err != nil {
				return err
			}
		}
	}
	cq.Close()
	return nil
}

// Wire-path settings: what streamd ships partials with, plus the
// engine lane the issue names.
const (
	wireBatch     = 64
	wireBatchSize = 256
	wireParallel  = 2
)

// wireStats is what the transport reports about one session.
type wireStats struct {
	sent, received, dupes int64
	bytes                 int64
	resent, reconnects    int64
	sendNs                int64   // time inside Send and Close
	sourceWaitShare       float64 // share of the run the engine's source sat waiting for the wire
}

// timedColSource measures how long the engine waits on the wire: time
// inside the source's batch reads, which block while its queue is empty.
type timedColSource struct {
	*dsms.SessionSource
	waitNs int64
}

func (s *timedColSource) NextBatch(dst []stream.Element, max int) ([]stream.Element, bool) {
	t := time.Now()
	dst, more := s.SessionSource.NextBatch(dst, max)
	s.waitNs += time.Since(t).Nanoseconds()
	return dst, more
}

func (s *timedColSource) NextColBatch(max int) (*stream.Batch, bool) {
	t := time.Now()
	b, more := s.SessionSource.NextColBatch(max)
	s.waitNs += time.Since(t).Nanoseconds()
	return b, more
}

// passWire ships the input over one loopback TCP session into a
// columnar RunWith of the compiled plan. The sender is this goroutine;
// it is paced a wire batch at a time, which is when a tuple-at-a-time
// sender's frame would leave too.
func (w *workload) passWire(p *pacer, sink func(*tuple.Tuple), tr *tracer) (wireStats, error) {
	var ws wireStats
	sl := w.slabs[0]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ws, err
	}
	defer ln.Close()
	srv := dsms.NewSessionServer(ln, sl.sch, dsms.SessionConfig{})
	src := &timedColSource{SessionSource: dsms.NewSessionSource(srv, 1, 0)}
	plan, err := w.eng.Compile(w.sql)
	if err != nil {
		return ws, err
	}
	g := exec.NewGraph(tuplesTo(sink))
	if err := plan.Build(g, map[string]stream.Source{"Traffic": src}); err != nil {
		return ws, err
	}
	start := time.Now()
	engineDone := make(chan struct{})
	go func() {
		defer close(engineDone)
		g.RunWith(-1, exec.RunOptions{Columnar: true, BatchSize: wireBatchSize, Parallelism: wireParallel})
	}()
	wr, err := w.dialWriter(ln)
	if err != nil {
		return ws, err
	}
	sendErr := w.sendAll(wr, p, &ws, tr)
	t := time.Now()
	closeErr := wr.Close() // EOS: the server completes the stream and the engine drains
	ws.sendNs += time.Since(t).Nanoseconds()
	if sendErr != nil || closeErr != nil {
		ln.Close() // unblock the server so the engine goroutine ends
	}
	<-engineDone
	ws.sourceWaitShare = float64(src.waitNs) / float64(time.Since(start).Nanoseconds())
	st, cs := srv.Stats(), wr.Stats()
	ws.sent, ws.bytes, ws.resent, ws.reconnects = cs.Sent, cs.Bytes, cs.Resent, cs.Reconnects
	ws.received, ws.dupes = st.Frames, st.Dupes
	for _, e := range []error{sendErr, closeErr, src.Err(), g.Err()} {
		if e != nil {
			return ws, e
		}
	}
	return ws, nil
}

// dialWriter is the sending side of a session to ln, configured as
// streamd configures it: wire v3 batches, every other setting default.
func (w *workload) dialWriter(ln net.Listener) (*dsms.ReconnectWriter, error) {
	return dsms.NewReconnectWriter(dsms.ReconnectConfig{
		StreamID:  w.name,
		Dial:      func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
		Schema:    w.slabs[0].sch,
		WireBatch: wireBatch,
	})
}

// tuplesTo adapts a tuple sink to a graph sink: punctuations are the
// engine's own and not results.
func tuplesTo(sink func(*tuple.Tuple)) exec.Sink {
	return func(e stream.Element) {
		if !e.IsPunct() {
			sink(e.Tuple)
		}
	}
}

func (w *workload) sendAll(wr *dsms.ReconnectWriter, p *pacer, ws *wireStats, tr *tracer) error {
	sl := w.slabs[0]
	n := int64(len(sl.tuples))
	for i := int64(0); ; i += wireBatch {
		hi := i + wireBatch
		if p == nil {
			if i >= n {
				return nil
			}
			if hi > n {
				hi = n
			}
		} else if !p.wait(hi - 1) {
			return nil
		}
		sp := tr.begin("dsms.send", int32(i/chunk), -1)
		t := time.Now()
		for j := i; j < hi; j++ {
			tp := sl.tuples[j%n]
			if p != nil {
				tp = sl.stamp(int(j%n), p.stamp(j))
			}
			if err := wr.Send(tp); err != nil {
				return err
			}
		}
		ws.sendNs += time.Since(t).Nanoseconds()
		tr.end(sp)
	}
}
