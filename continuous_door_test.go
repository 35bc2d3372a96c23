package streamdb

// The push front door: a standing query over one stream runs on the
// batched engine behind a bounded push source for as long as it is
// registered. These tests pin what a caller can rely on — the same
// bytes as the pull door, the Flush barrier, backpressure at a constant
// bound, per-arrival delivery without a timer, and failures that
// surface instead of vanishing.

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamdb/internal/exec"
	"streamdb/internal/query"
	"streamdb/internal/stream"
)

// feedElem hands one input element to a standing query through the
// public calls where there is one: tuples through Feed, progress
// punctuations through Advance, anything else (a group-end
// punctuation) through the element door behind both.
func feedElem(cq *ContinuousQuery, name string, sch *Schema, e Element) error {
	if !e.IsPunct() {
		return cq.Feed(name, e.Tuple)
	}
	if pat, ok := e.Punct.Fields[sch.OrderingIndex()]; ok && len(e.Punct.Fields) == 1 && pat.Kind == stream.PatLE {
		return cq.Advance(name, e.Punct.Ts)
	}
	return cq.push(name, e)
}

// arrival is one input element with the stream it arrives on.
type arrival struct {
	stream string
	e      Element
}

// arrivals merges a case's inputs into the order the serial engine
// admits them: by timestamp, FROM order on ties.
func (c doorCase) arrivals(t *testing.T) []arrival {
	t.Helper()
	q, err := query.Parse(c.sql)
	if err != nil {
		t.Fatal(err)
	}
	var out []arrival
	for _, fi := range q.From {
		for _, e := range c.input[fi.Stream] {
			out = append(out, arrival{fi.Stream, e})
		}
	}
	if len(q.From) > 1 {
		sort.SliceStable(out, func(i, j int) bool { return out[i].e.Ts() < out[j].e.Ts() })
	}
	return out
}

// The front-door corpus through RegisterContinuous, Feed, Advance, an
// occasional Flush and Close gives the bytes Engine.Query gives, and
// every single-stream plan runs batched: no Pump per arrival.
func TestContinuousDoorMatchesPullDoor(t *testing.T) {
	for _, c := range doorCorpus() {
		if c.name == "self join" {
			// One stream name bound to both join ports: the pull door lets
			// the two ports take turns on one source, the per-arrival door
			// delivers every arrival to the first. Not this door's change.
			continue
		}
		want, _, _ := c.run(t, bulk, -1)

		eng := New()
		for name, sch := range c.schemas {
			eng.RegisterSchema(name, sch)
		}
		var got []string
		cq, err := eng.RegisterContinuous(c.sql, func(r *Tuple) { got = append(got, r.String()) })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, a := range c.arrivals(t) {
			if err := feedElem(cq, a.stream, c.schemas[a.stream], a.e); err != nil {
				t.Fatalf("%s: element %d: %v", c.name, i, err)
			}
			if i%997 == 996 {
				if err := cq.Flush(); err != nil {
					t.Fatalf("%s: flush: %v", c.name, err)
				}
			}
		}
		if err := cq.Close(); err != nil {
			t.Fatalf("%s: close: %v", c.name, err)
		}
		sameRows(t, c.name+" (standing)", got, want)

		batched := false
		for _, st := range cq.Plan().Stats() {
			if st.Batches > 0 {
				batched = true
			}
		}
		if single := len(c.schemas) == 1; batched != single {
			t.Errorf("%s: standing query ran batched=%v, want %v", c.name, batched, single)
		}
	}
}

// After Flush returns, the sink holds exactly what the per-arrival
// engine has emitted for the same prefix of the input — every row of
// every window the prefix closed and nothing held back in a batch —
// whether the prefix since the last Flush is one element, seven, a full
// bulk read, or ends in a punctuation.
func TestContinuousFlushIsABarrier(t *testing.T) {
	sch := stream.TrafficSchema("Traffic")
	input := trafficElems(7, 3000)
	for _, sql := range []string{
		"select srcIP, count(*) as c, sum(length) as b from Traffic [range 0.1] group by srcIP",
		"select srcIP, length from Traffic where length > 700",
	} {
		eng := New()
		eng.RegisterSchema("Traffic", sch)

		// Oracle: the serial graph, one Pump per arrival.
		plan, err := eng.Compile(sql)
		if err != nil {
			t.Fatal(err)
		}
		var oracle []string
		g := exec.NewGraph(func(e Element) {
			if !e.IsPunct() {
				oracle = append(oracle, e.Tuple.String())
			}
		})
		qu := stream.NewQueue(sch)
		if err := plan.Build(g, map[string]stream.Source{"Traffic": qu}); err != nil {
			t.Fatal(err)
		}
		after := make([]int, len(input)+1) // oracle rows once i elements are in
		for i, e := range input {
			qu.Feed(e)
			g.Pump(-1)
			after[i+1] = len(oracle)
		}
		g.Finish()

		var got []string
		cq, err := eng.RegisterContinuous(sql, func(r *Tuple) { got = append(got, r.String()) })
		if err != nil {
			t.Fatal(err)
		}
		sizes, next, flushes := []int{1, 7, 256}, 0, 0
		since := 0
		for i, e := range input {
			if err := feedElem(cq, "Traffic", sch, e); err != nil {
				t.Fatal(err)
			}
			since++
			if since < sizes[next%len(sizes)] && !e.IsPunct() {
				continue
			}
			since, next = 0, next+1
			if err := cq.Flush(); err != nil {
				t.Fatal(err)
			}
			flushes++
			if len(got) != after[i+1] {
				t.Fatalf("%s: %d rows at the sink after Flush behind element %d (punct=%v), the per-arrival engine has %d",
					sql, len(got), i, e.IsPunct(), after[i+1])
			}
		}
		if err := cq.Close(); err != nil {
			t.Fatal(err)
		}
		sameRows(t, sql, got, oracle)
		if flushes < 20 || len(oracle) == 0 {
			t.Fatalf("%d flushes over %d rows: the case checks nothing", flushes, len(oracle))
		}
	}
}

// A sink that blocks holds the producer at the queue bound: what sits
// between Feed and the sink is a constant, not a function of how much
// the producer wants to feed. Releasing the sink drains in order.
func TestContinuousBackpressure(t *testing.T) {
	const total = 200000
	eng := contEngine(t)
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	var rows []int64
	cq, err := eng.RegisterContinuous("select * from Traffic", func(r *Tuple) {
		once.Do(func() { close(entered); <-release })
		rows = append(rows, r.Ts)
	})
	if err != nil {
		t.Fatal(err)
	}
	var fed atomic.Int64
	feedErr := make(chan error, 1)
	go func() {
		for i := int64(0); i < total; i++ {
			if err := cq.Feed("Traffic", tupleAt(i, 1, 100)); err != nil {
				feedErr <- err
				return
			}
			fed.Add(1)
		}
		feedErr <- nil
	}()
	<-entered
	// The producer runs until every buffer between it and the blocked sink
	// is full, then stops; wait for its count to stand still.
	deadline := time.Now().Add(20 * time.Second)
	last, still := int64(-1), 0
	for still < 5 {
		if time.Now().After(deadline) {
			t.Fatal("producer never settled")
		}
		time.Sleep(10 * time.Millisecond)
		if n := fed.Load(); n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	// The queue bound plus what the engine holds in flight: a few edge
	// channels of 256-element batches.
	if limit := int64(stream.DefaultPushBound + 40*256); last >= limit || last >= total {
		t.Fatalf("producer fed %d of %d tuples against a blocked sink; want it held under %d", last, total, limit)
	}
	close(release)
	if err := <-feedErr; err != nil {
		t.Fatal(err)
	}
	if err := cq.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != total {
		t.Fatalf("%d rows after the sink was released, want %d", len(rows), total)
	}
	for i, ts := range rows {
		if ts != int64(i) {
			t.Fatalf("row %d carries timestamp %d: backpressure reordered the stream", i, ts)
		}
	}
}

// A lone Feed reaches the sink with no Feed, Flush or Close behind it:
// the engine flushes when it goes idle, so per-arrival latency needs no
// timer and no second tuple.
func TestContinuousLoneFeedIsDelivered(t *testing.T) {
	eng := contEngine(t)
	seen := make(chan int64, 4)
	cq, err := eng.RegisterContinuous("select srcIP, length from Traffic where length > 100",
		func(r *Tuple) { seen <- r.Ts })
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()
	for _, ts := range []int64{5, 9} {
		if err := cq.Feed("Traffic", tupleAt(ts, 1, 200)); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-seen:
			if got != ts {
				t.Fatalf("sink saw timestamp %d, want %d", got, ts)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("tuple %d never reached the sink without a following Feed", ts)
		}
	}
}

// Close may come from another goroutine than the one feeding, and more
// than once; the feeder then gets errors, not a hang or a race. Both
// doors.
func TestContinuousCloseAgainstFeeder(t *testing.T) {
	for door, sql := range map[string]string{
		"batched":     "select srcIP, count(*) as c from Traffic [range 0.000001] group by srcIP",
		"per-arrival": "select A.length from Traffic [range 0.000001] A, Other [range 0.000001] B where A.srcIP = B.srcIP",
	} {
		eng := contEngine(t)
		eng.RegisterSchema("Other", NewSchema("Other", trafficSchema().Fields...))
		var rows int
		cq, err := eng.RegisterContinuous(sql, func(*Tuple) { rows++ })
		if err != nil {
			t.Fatalf("%s: %v", door, err)
		}
		started := make(chan struct{})
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			for i := int64(1); ; i++ {
				if i == 100 {
					close(started)
				}
				if cq.Feed("Traffic", tupleAt(i*1000, uint32(i%4), 10)) != nil {
					return
				}
				if i%50 == 0 && cq.Advance("Traffic", i*1000) != nil {
					return
				}
				if i%75 == 0 && cq.Flush() != nil {
					return
				}
			}
		}()
		<-started
		var wg sync.WaitGroup
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := cq.Close(); err != nil {
					t.Errorf("%s: close: %v", door, err)
				}
			}()
		}
		wg.Wait()
		<-stopped
		if door == "batched" && rows == 0 {
			t.Errorf("%s: no rows reached the sink before Close returned", door)
		}
		if err := cq.Feed("Traffic", tupleAt(1, 1, 1)); err == nil {
			t.Errorf("%s: feed after close accepted", door)
		}
	}
}

// A failing run must not be silent: a tuple one value short of its
// schema crashes the engine where it is first read, and from then on
// Flush, Feed, Advance and Close all say so. Both doors.
func TestContinuousReportsFailure(t *testing.T) {
	short := NewTuple(60, Time(60), IP(1))
	for door, sql := range map[string]string{
		"batched":     "select srcIP from Traffic where length > 0",
		"per-arrival": "select A.srcIP from Traffic [range 1] A, Other [range 1] B where A.length = B.length",
	} {
		eng := contEngine(t)
		eng.RegisterSchema("Other", NewSchema("Other", trafficSchema().Fields...))
		cq, err := eng.RegisterContinuous(sql, func(*Tuple) {})
		if err != nil {
			t.Fatalf("%s: %v", door, err)
		}
		for i := int64(0); i < 10; i++ {
			if err := cq.Feed("Traffic", tupleAt(i, 1, 100)); err != nil {
				t.Fatalf("%s: %v", door, err)
			}
		}
		if err := cq.Flush(); err != nil {
			t.Fatalf("%s: flush before the bad tuple: %v", door, err)
		}
		feedErr := cq.Feed("Traffic", short)
		flushErr := cq.Flush()
		for what, err := range map[string]error{
			"flush":   flushErr,
			"feed":    cq.Feed("Traffic", tupleAt(70, 1, 100)),
			"advance": cq.Advance("Traffic", 80),
			"close":   cq.Close(),
		} {
			if err == nil {
				t.Errorf("%s: %s returned nil after a tuple crashed the run", door, what)
			} else if !strings.Contains(err.Error(), "panicked") {
				t.Errorf("%s: %s error %q does not name the failure", door, what, err)
			}
		}
		if door == "per-arrival" && feedErr == nil {
			t.Errorf("%s: the Feed that crashed the join returned nil", door)
		}
	}
}
