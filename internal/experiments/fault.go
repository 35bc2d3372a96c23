package experiments

import (
	"cmp"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"streamdb/internal/dsms"
	"streamdb/internal/query"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// E17FaultTolerance is the chaos experiment for the fault-tolerant
// distributed tier: low-level nodes ship partial aggregates to a
// high-level node over connections that drop, stall mid-frame, and
// corrupt bytes at increasing rates. The claim under test is the one
// production engines are measured by (Fragkoulis et al.): injected
// faults cost only recovery latency and retransmission — the final
// merged results stay byte-identical to the zero-fault run
// (exactly-once partial aggregation), because the session protocol
// resumes from the last acknowledged sequence number instead of
// double-counting or losing partials.
func E17FaultTolerance(scale Scale) *Table {
	t := &Table{
		ID:    "E17",
		Title: "fault-tolerant distributed evaluation: accuracy + recovery vs drop rate",
		Header: []string{"dropRate", "wirebatch", "frames", "reconnects", "resent", "dupes",
			"meanRecovery", "exact"},
	}

	const nodes = 2
	n := scale.N(40000) // raw tuples per low-level node

	cat := query.NewCatalog()
	cat.Register("Traffic", stream.TrafficSchema("Traffic"))
	d, err := query.Decompose(`select srcIP, count(*) as pkts, sum(length) as bytes
		from Traffic [range 60] where length > 512 group by srcIP`, cat, 4096)
	if err != nil {
		panic(err)
	}

	var baseline []byte
	for _, rate := range []float64{0, 0.02, 0.05, 0.10} {
		// wirebatch 1 ships one tuple per frame; 16 ships batch frames
		// of 16. Exactly-once must hold for both.
		for _, wirebatch := range []int{1, 16} {
			fp, frames, cs, ss := runChaosSession(d, nodes, n, rate, wirebatch)
			if baseline == nil {
				baseline = fp
			}
			exact := string(fp) == string(baseline)
			recovery := "-"
			if cs.Reconnects > 0 {
				recovery = fmt.Sprintf("%.1fms",
					float64(cs.RecoveryNanos)/float64(cs.Reconnects)/1e6)
			}
			t.AddRow(fmt.Sprintf("%.0f%%", rate*100), wirebatch, frames, cs.Reconnects,
				cs.Resent, ss.Dupes, recovery, exact)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: reconnects and resends grow with the drop rate; results stay byte-identical to the zero-fault run (exactly-once)",
		"wirebatch>1 rows replay at batch granularity; resume may land mid-batch, counted under dupes",
		"drops/stalls/corruption injected client-side per write with a per-node deterministic seed")
	return t
}

// runChaosSession runs one low->high session set under injected faults,
// with the high level as streamd runs it (a dsms.HighNode), and
// returns the fingerprint of the sorted final rows, the partial frames
// shipped, and the summed client + server stats.
func runChaosSession(d *query.Decomposition, nodes, n int, dropRate float64, wirebatch int) (fingerprint []byte, frames int64, cs dsms.ReconnectStats, ss dsms.SessionStats) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	var finals []*tuple.Tuple
	h, err := dsms.NewHighNode(ln, d.PartialSchema(), d.NewHigh(), func(e stream.Element) {
		if !e.IsPunct() {
			finals = append(finals, e.Tuple)
		}
	}, dsms.HighConfig{Session: dsms.SessionConfig{IdleTimeout: 10 * time.Second}, Streams: nodes})
	if err != nil {
		panic(err)
	}

	var wg sync.WaitGroup
	var statsMu sync.Mutex
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			dials := 0
			cfg := dsms.ReconnectConfig{
				StreamID: fmt.Sprintf("low-%d", node),
				Dial: func() (net.Conn, error) {
					c, err := net.Dial("tcp", addr)
					if err != nil || dropRate == 0 {
						return c, err
					}
					dials++
					return dsms.InjectFaults(c, dsms.FaultConfig{
						Seed:        int64(node*10000 + dials),
						DropRate:    dropRate,
						PartialRate: dropRate / 4,
						CorruptRate: dropRate / 4,
					}), nil
				},
				AckEvery:    32,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  20 * time.Millisecond,
				Timeout:     10 * time.Second,
				Seed:        int64(node + 1),
				Schema:      d.PartialSchema(),
				WireBatch:   wirebatch,
				// Size-only flushing keeps the run deterministic.
				FlushInterval: -1,
			}
			w, err := dsms.NewReconnectWriter(cfg)
			if err != nil {
				panic(err)
			}
			src := stream.Limit(stream.NewTrafficStream(int64(node+1), 100000, 5000), n)
			var sendErr error
			err = d.Low().Execute(map[string]stream.Source{"Traffic": src}, func(rec *tuple.Tuple) {
				if sendErr == nil {
					sendErr = w.Send(rec)
				}
			}, -1)
			if err = cmp.Or(err, sendErr); err != nil {
				panic(err)
			}
			if err := w.Close(); err != nil {
				panic(err)
			}
			st := w.Stats()
			statsMu.Lock()
			frames += st.Sent
			cs.Resent += st.Resent
			cs.Reconnects += st.Reconnects
			cs.RecoveryNanos += st.RecoveryNanos
			statsMu.Unlock()
		}(node)
	}
	if err := h.Run(-1); err != nil {
		panic(err)
	}
	wg.Wait()

	// Fingerprint the final rows independent of merge/flush order.
	rows := make([][]byte, len(finals))
	for i, f := range finals {
		rows[i] = tuple.AppendEncode(nil, f)
	}
	sort.Slice(rows, func(i, j int) bool { return string(rows[i]) < string(rows[j]) })
	for _, r := range rows {
		fingerprint = append(fingerprint, r...)
	}
	ss = h.Server.Stats()
	return fingerprint, frames, cs, ss
}
