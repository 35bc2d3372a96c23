package streamdb

// Integration test for the 3-level architecture's DBMS role (slide 15):
// the stream system populates relations, and the resource-rich DBMS
// audits the stream system's answers by recomputing them one-time over
// the stored raw data.

import (
	"testing"

	"streamdb/internal/relation"
)

func TestDBMSAuditsStreamResults(t *testing.T) {
	eng := New()
	sch := trafficSchema()
	eng.RegisterSchema("Traffic", sch)

	// Raw feed captured into a relation while the stream query runs.
	db := relation.NewDB()
	rawTbl, err := db.Create("raw_traffic", sch)
	if err != nil {
		t.Fatal(err)
	}
	var tuples []*Tuple
	for i := int64(0); i < 1000; i++ {
		tp := NewTuple(i*Second/10,
			Time(i*Second/10), IP(uint32(i%8)), Uint(uint64(100+i%1400)))
		tuples = append(tuples, tp)
		if err := rawTbl.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}

	// Continuous query result, also persisted to a relation
	// (stream-in, relation-out).
	eng.SetSource("Traffic", FromTuples(sch, tuples...))
	res, err := eng.Query(
		"select srcIP, count(*) as pkts from Traffic where length > 512 group by srcIP")
	if err != nil {
		t.Fatal(err)
	}
	resultTbl, err := db.Create("per_source", res.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if err := resultTbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	// Audit: one-time query over the STORED raw relation through the
	// same query processor (transient query, slide 19), compared with
	// the stream system's persisted answers.
	auditEng := New()
	auditEng.RegisterSchema("raw_traffic", sch)
	auditEng.SetSource("raw_traffic", rawTbl.Source())
	audit, err := auditEng.Query(
		"select srcIP, count(*) as pkts from raw_traffic where length > 512 group by srcIP")
	if err != nil {
		t.Fatal(err)
	}

	fromStream := map[uint64]int64{}
	resultTbl.Scan(func(r *Tuple) bool {
		ip, _ := r.Vals[0].AsUint()
		c, _ := r.Vals[1].AsInt()
		fromStream[ip] += c
		return true
	})
	fromAudit := map[uint64]int64{}
	for _, r := range audit.Rows {
		ip, _ := r.Vals[0].AsUint()
		c, _ := r.Vals[1].AsInt()
		fromAudit[ip] += c
	}
	if len(fromStream) == 0 || len(fromStream) != len(fromAudit) {
		t.Fatalf("group counts differ: stream %d vs audit %d", len(fromStream), len(fromAudit))
	}
	for ip, want := range fromAudit {
		if fromStream[ip] != want {
			t.Errorf("srcIP %d: stream %d vs audit %d", ip, fromStream[ip], want)
		}
	}
}

func TestRelationToStreamFeedsContinuousQuery(t *testing.T) {
	// IStream over a changing relation drives a standing query: the
	// CQL relation-to-stream composition (slide 25).
	eng := New()
	sch := trafficSchema()
	eng.RegisterSchema("Traffic", sch)
	var alerts int
	cq, err := eng.RegisterContinuous(
		"select * from Traffic where length > 1000",
		func(*Tuple) { alerts++ })
	if err != nil {
		t.Fatal(err)
	}
	tbl := relation.NewTable(sch)
	streamer := relation.NewStreamer(relation.IStream)

	insert := func(ts int64, length uint64) {
		tbl.Insert(NewTuple(ts, Time(ts), IP(1), Uint(length)))
	}
	insert(1, 50)
	insert(2, 1500)
	for _, el := range streamer.Snapshot(10, tbl) {
		if !el.IsPunct() {
			if err := cq.Feed("Traffic", el.Tuple); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cq.Flush(); err != nil {
		t.Fatal(err)
	}
	if alerts != 1 {
		t.Fatalf("alerts = %d after first snapshot", alerts)
	}
	insert(3, 2000)
	for _, el := range streamer.Snapshot(20, tbl) {
		if !el.IsPunct() {
			cq.Feed("Traffic", el.Tuple)
		}
	}
	if err := cq.Flush(); err != nil {
		t.Fatal(err)
	}
	if alerts != 2 {
		t.Fatalf("alerts = %d after second snapshot (IStream must emit only the insertion)", alerts)
	}
	if err := cq.Close(); err != nil {
		t.Fatal(err)
	}
}
