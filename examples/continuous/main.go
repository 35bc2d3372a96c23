// Continuous (persistent) queries: slide 19's Tapestry/NiagaraCQ
// lineage. Queries are registered once and results stream out as data
// is pushed in — including a windowed aggregate whose windows are
// closed by explicit progress punctuations (slide 28).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"streamdb"
)

func main() {
	eng := streamdb.New()
	eng.RegisterSchema("Traffic", streamdb.NewSchema("Traffic",
		streamdb.Field{Name: "time", Kind: streamdb.KindTime, Ordering: true},
		streamdb.Field{Name: "srcIP", Kind: streamdb.KindIP},
		streamdb.Field{Name: "length", Kind: streamdb.KindUint},
	))

	// Standing query 1: an alerting filter. Every matching tuple is
	// delivered the moment it is fed.
	alerts := 0
	alert, err := eng.RegisterContinuous(
		"select time, ip4(srcIP) as src, length from Traffic where length > 1400",
		func(t *streamdb.Tuple) {
			alerts++
			if alerts <= 3 {
				src, _ := t.Vals[1].AsString()
				l, _ := t.Vals[2].AsUint()
				fmt.Printf("ALERT: jumbo packet from %s (%d bytes)\n", src, l)
			}
		})
	if err != nil {
		log.Fatal(err)
	}

	// Standing query 2: per-second top talkers, windows closed by
	// punctuation.
	talkers, err := eng.RegisterContinuous(
		`select tb, ip4(srcIP) as src, count(*) as pkts
		 from Traffic [range 1]
		 group by time/1000000000 as tb, srcIP
		 having count(*) > 300`,
		func(t *streamdb.Tuple) {
			sec, _ := t.Vals[0].AsInt()
			src, _ := t.Vals[1].AsString()
			pkts, _ := t.Vals[2].AsInt()
			fmt.Printf("second %d: top talker %s with %d packets\n", sec, src, pkts)
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("registered standing queries:")
	fmt.Printf("  alert filter (bounded-memory: %v)\n", alert.Plan().Bounded.OK)
	fmt.Printf("  top talkers  (bounded-memory: %v)\n\n", talkers.Plan().Bounded.OK)

	// Simulate a live feed: 5 virtual seconds of traffic, with a
	// progress punctuation at each second boundary so the aggregate
	// emits without waiting for future data.
	rng := rand.New(rand.NewSource(9))
	ts := int64(0)
	for sec := int64(0); sec < 5; sec++ {
		for i := 0; i < 2000; i++ {
			ts += streamdb.Second / 2000
			ip := uint32(rng.Intn(6))
			if sec%2 == 1 {
				ip = uint32(rng.Intn(3)) // skew toward few talkers on odd seconds
			}
			t := streamdb.NewTuple(ts,
				streamdb.Time(ts), streamdb.IP(ip), streamdb.Uint(uint64(40+rng.Intn(1461))))
			if err := alert.Feed("Traffic", t); err != nil {
				log.Fatal(err)
			}
			if err := talkers.Feed("Traffic", t); err != nil {
				log.Fatal(err)
			}
		}
		// Feed and Advance only enqueue; Flush returns once the sinks have
		// seen everything fed so far, which keeps this second's output
		// ahead of the next second's.
		if err := alert.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := talkers.Advance("Traffic", (sec+1)*streamdb.Second); err != nil {
			log.Fatal(err)
		}
		if err := talkers.Flush(); err != nil {
			log.Fatal(err)
		}
	}
	if err := alert.Close(); err != nil {
		log.Fatal(err)
	}
	if err := talkers.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntotal jumbo-packet alerts: %d\n", alerts)
}
