package streamdb

import (
	"testing"
)

func contEngine(t *testing.T) *Engine {
	t.Helper()
	eng := New()
	eng.RegisterSchema("Traffic", trafficSchema())
	return eng
}

func tupleAt(ts int64, ip uint32, length uint64) *Tuple {
	return NewTuple(ts, Time(ts), IP(ip), Uint(length))
}

func TestContinuousFilterStreamsIncrementally(t *testing.T) {
	eng := contEngine(t)
	var got []uint64
	cq, err := eng.RegisterContinuous(
		"select srcIP, length from Traffic where length > 100",
		func(tp *Tuple) {
			v, _ := tp.Vals[1].AsUint()
			got = append(got, v)
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := cq.Feed("Traffic", tupleAt(1, 1, 50)); err != nil {
		t.Fatal(err)
	}
	if err := cq.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("filtered tuple emitted")
	}
	if err := cq.Feed("Traffic", tupleAt(2, 1, 200)); err != nil {
		t.Fatal(err)
	}
	if err := cq.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 200 {
		t.Fatalf("got = %v (results must arrive as fed, not at Close)", got)
	}
	if err := cq.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("close produced extra results: %v", got)
	}
}

func TestContinuousWindowedAggregateClosesOnAdvance(t *testing.T) {
	eng := contEngine(t)
	var counts []int64
	cq, err := eng.RegisterContinuous(
		"select srcIP, count(*) as c from Traffic [range 10] group by srcIP",
		func(tp *Tuple) {
			c, _ := tp.Vals[1].AsInt()
			counts = append(counts, c)
		})
	if err != nil {
		t.Fatal(err)
	}
	cq.Feed("Traffic", tupleAt(1*Second, 1, 10))
	cq.Feed("Traffic", tupleAt(2*Second, 1, 10))
	if err := cq.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(counts) != 0 {
		t.Fatal("window emitted early")
	}
	// Progress punctuation past the window boundary closes it.
	if err := cq.Advance("Traffic", 10*Second); err != nil {
		t.Fatal(err)
	}
	if err := cq.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(counts) != 1 || counts[0] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	// More data in the next window, flushed by Close.
	cq.Feed("Traffic", tupleAt(11*Second, 2, 10))
	cq.Close()
	if len(counts) != 2 || counts[1] != 1 {
		t.Fatalf("final counts = %v", counts)
	}
}

func TestContinuousErrors(t *testing.T) {
	eng := contEngine(t)
	if _, err := eng.RegisterContinuous("select * from Traffic", nil); err == nil {
		t.Error("nil sink accepted")
	}
	if _, err := eng.RegisterContinuous("not sql", func(*Tuple) {}); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := eng.RegisterContinuous("select * from Nowhere", func(*Tuple) {}); err == nil {
		t.Error("unknown stream accepted")
	}
	cq, err := eng.RegisterContinuous("select * from Traffic", func(*Tuple) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := cq.Feed("Other", tupleAt(1, 1, 1)); err == nil {
		t.Error("feeding unknown stream accepted")
	}
	if err := cq.Advance("Other", 1); err == nil {
		t.Error("advancing unknown stream accepted")
	}
	if err := cq.Close(); err != nil {
		t.Error(err)
	}
	if err := cq.Close(); err != nil { // idempotent
		t.Error(err)
	}
	if err := cq.Feed("Traffic", tupleAt(1, 1, 1)); err == nil {
		t.Error("feed after close accepted")
	}
	if err := cq.Advance("Traffic", 1); err == nil {
		t.Error("advance after close accepted")
	}
	if err := cq.Flush(); err == nil {
		t.Error("flush after close accepted")
	}
	if cq.Plan() == nil {
		t.Error("plan missing")
	}
}

func TestContinuousMultipleQueriesIndependent(t *testing.T) {
	eng := contEngine(t)
	var a, b int
	q1, err := eng.RegisterContinuous("select * from Traffic where length > 100", func(*Tuple) { a++ })
	if err != nil {
		t.Fatal(err)
	}
	q2, err := eng.RegisterContinuous("select * from Traffic where length > 500", func(*Tuple) { b++ })
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		tp := tupleAt(i, 1, uint64(i*100))
		q1.Feed("Traffic", tp)
		q2.Feed("Traffic", tp)
	}
	if err := q1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
	if a != 8 || b != 4 {
		t.Errorf("a = %d (want 8), b = %d (want 4)", a, b)
	}
}

func TestContinuousJoin(t *testing.T) {
	eng := New()
	synSch := NewSchema("Syn",
		Field{Name: "time", Kind: KindTime, Ordering: true},
		Field{Name: "ip", Kind: KindIP},
	)
	ackSch := NewSchema("Ack",
		Field{Name: "time", Kind: KindTime, Ordering: true},
		Field{Name: "ip", Kind: KindIP},
	)
	eng.RegisterSchema("Syn", synSch)
	eng.RegisterSchema("Ack", ackSch)
	var rtts []int64
	cq, err := eng.RegisterContinuous(
		"select Ack.time - Syn.time as rtt from Syn [range 30], Ack [range 30] where Syn.ip = Ack.ip",
		func(tp *Tuple) {
			v, _ := tp.Vals[0].AsInt()
			rtts = append(rtts, v)
		})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ts int64, ip uint32) *Tuple { return NewTuple(ts, Time(ts), IP(ip)) }
	cq.Feed("Syn", mk(1*Second, 7))
	cq.Feed("Ack", mk(3*Second, 7))
	if len(rtts) != 1 || rtts[0] != 2*Second {
		t.Fatalf("rtts = %v", rtts)
	}
	cq.Close()
}
