package streamdb_test

import (
	"fmt"

	"streamdb"
)

func trafficSchema() *streamdb.Schema {
	return streamdb.NewSchema("Traffic",
		streamdb.Field{Name: "time", Kind: streamdb.KindTime, Ordering: true},
		streamdb.Field{Name: "srcIP", Kind: streamdb.KindIP},
		streamdb.Field{Name: "length", Kind: streamdb.KindUint},
	)
}

func packet(ts int64, ip uint32, length uint64) *streamdb.Tuple {
	return streamdb.NewTuple(ts,
		streamdb.Time(ts), streamdb.IP(ip), streamdb.Uint(length))
}

// A one-shot query over a bound finite source.
func ExampleEngine_Query() {
	eng := streamdb.New()
	sch := trafficSchema()
	eng.RegisterSchema("Traffic", sch)
	eng.SetSource("Traffic", streamdb.FromTuples(sch,
		packet(1, 0x0a000001, 100),
		packet(2, 0x0a000002, 1500),
		packet(3, 0x0a000001, 900),
	))
	res, err := eng.Query("select ip4(srcIP) as src, length from Traffic where length > 512")
	if err != nil {
		panic(err)
	}
	for _, row := range res.Rows {
		src, _ := row.Vals[0].AsString()
		l, _ := row.Vals[1].AsUint()
		fmt.Println(src, l)
	}
	// Output:
	// 10.0.0.2 1500
	// 10.0.0.1 900
}

// Windowed grouped aggregation with the GSQL time-bucket idiom.
func ExampleEngine_Query_aggregate() {
	eng := streamdb.New()
	sch := trafficSchema()
	eng.RegisterSchema("Traffic", sch)
	var tuples []*streamdb.Tuple
	for i := int64(0); i < 6; i++ {
		tuples = append(tuples, packet(i*streamdb.Second, uint32(i%2), 100))
	}
	eng.SetSource("Traffic", streamdb.FromTuples(sch, tuples...))
	res, err := eng.Query(
		"select srcIP, count(*) as pkts from Traffic [range 60] group by srcIP")
	if err != nil {
		panic(err)
	}
	for _, row := range res.Rows {
		ip, _ := row.Vals[0].AsUint()
		c, _ := row.Vals[1].AsInt()
		fmt.Printf("src %d: %d packets\n", ip, c)
	}
	// Output:
	// src 0: 3 packets
	// src 1: 3 packets
}

// The planner's bounded-memory analysis (slide 36 of the tutorial),
// available without running the query.
func ExampleEngine_Compile() {
	eng := streamdb.New()
	eng.RegisterSchema("Traffic", trafficSchema())
	for _, sql := range []string{
		"select length, count(*) from Traffic where length > 512 group by length",
		"select length, count(*) from Traffic where length > 512 and length < 1024 group by length",
	} {
		plan, err := eng.Compile(sql)
		if err != nil {
			panic(err)
		}
		fmt.Println(plan.Bounded.OK)
	}
	// Output:
	// false
	// true
}

// A persistent query: results stream out as elements are pushed in.
// Feed only enqueues; Flush waits until what was fed has reached the
// sink.
func ExampleEngine_RegisterContinuous() {
	eng := streamdb.New()
	eng.RegisterSchema("Traffic", trafficSchema())
	cq, err := eng.RegisterContinuous(
		"select length from Traffic where length > 1000",
		func(t *streamdb.Tuple) {
			l, _ := t.Vals[0].AsUint()
			fmt.Println("alert:", l)
		})
	if err != nil {
		panic(err)
	}
	cq.Feed("Traffic", packet(1, 1, 200))  // no output
	cq.Feed("Traffic", packet(2, 1, 1400)) // alert fires without waiting for more input
	cq.Flush()                             // ... and has fired by now
	fmt.Println("flushed")
	cq.Close()
	// Output:
	// alert: 1400
	// flushed
}
