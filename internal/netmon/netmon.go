// Package netmon is the Gigascope-style network monitoring substrate
// (slides 10-13, 48): layered protocol schemas defined at the packet
// level, and synthetic trace generators that stand in for the AT&T
// backbone taps the tutorial's applications ran on (see DESIGN.md §2).
//
// Three generators cover the tutorial's applications:
//
//   - NewPacketTrace: general TCP/UDP traffic with payloads, including
//     P2P sessions that spread across well-known and ephemeral ports —
//     the workload of the P2P-detection case study (slide 10).
//   - NewHandshakeTrace: TCP SYN and SYN-ACK streams with configurable
//     round-trip times — the web client performance monitor (slides
//     11, 13).
//   - NewFlowTrace: NetFlow-style flow records aggregated from packets,
//     the baseline the payload inspector is compared against.
package netmon

import (
	"math/rand"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// Layered protocol schemas (slide 12): each level inherits the fields
// of the level below, the way GSQL's PROTOCOL definitions do.

// IPv4Schema is the layer-3 schema.
func IPv4Schema(name string) *tuple.Schema {
	return tuple.NewSchema(name,
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "srcIP", Kind: tuple.KindIP},
		tuple.Field{Name: "destIP", Kind: tuple.KindIP},
		tuple.Field{Name: "protocol", Kind: tuple.KindUint, Bounded: true},
		tuple.Field{Name: "ttl", Kind: tuple.KindUint, Bounded: true},
		tuple.Field{Name: "len", Kind: tuple.KindUint},
	)
}

// TCPSchema is the layer-4 TCP schema: IPv4 plus ports, flags and the
// application payload (layers 5-7 packet data, slide 12).
func TCPSchema(name string) *tuple.Schema {
	return tuple.NewSchema(name,
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "srcIP", Kind: tuple.KindIP},
		tuple.Field{Name: "destIP", Kind: tuple.KindIP},
		tuple.Field{Name: "protocol", Kind: tuple.KindUint, Bounded: true},
		tuple.Field{Name: "ttl", Kind: tuple.KindUint, Bounded: true},
		tuple.Field{Name: "len", Kind: tuple.KindUint},
		tuple.Field{Name: "srcPort", Kind: tuple.KindUint},
		tuple.Field{Name: "destPort", Kind: tuple.KindUint},
		tuple.Field{Name: "syn", Kind: tuple.KindBool, Bounded: true},
		tuple.Field{Name: "ack", Kind: tuple.KindBool, Bounded: true},
		tuple.Field{Name: "payload", Kind: tuple.KindString},
	)
}

// FlowSchema is the NetFlow-style record schema.
func FlowSchema(name string) *tuple.Schema {
	return tuple.NewSchema(name,
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "srcIP", Kind: tuple.KindIP},
		tuple.Field{Name: "destIP", Kind: tuple.KindIP},
		tuple.Field{Name: "srcPort", Kind: tuple.KindUint},
		tuple.Field{Name: "destPort", Kind: tuple.KindUint},
		tuple.Field{Name: "packets", Kind: tuple.KindUint},
		tuple.Field{Name: "bytes", Kind: tuple.KindUint},
	)
}

// P2P protocol constants for the slide-10 experiment.
var (
	// P2PKeywords are the application-layer markers payload inspection
	// searches for.
	P2PKeywords = []string{"BitTorrent protocol", "GNUTELLA CONNECT", "eDonkey"}
	// P2PWellKnownPorts are the registered P2P ports a port-based
	// classifier (NetFlow, slide 10's "previous approach") looks at.
	P2PWellKnownPorts = []uint64{6881, 6346, 4662}
)

// TraceConfig parameterizes the packet generator.
type TraceConfig struct {
	Seed     int64
	Rate     float64 // packets/sec
	AddrPool int
	// P2PFraction is the fraction of packets belonging to P2P sessions.
	P2PFraction float64
	// P2PKnownPortFraction is the fraction of P2P packets using a
	// well-known P2P port; the rest hide on ephemeral ports, which is
	// why port-based classification undercounts ~3x (slide 10).
	P2PKnownPortFraction float64
}

// PacketTrace generates a TCP packet stream per the config.
type PacketTrace struct {
	cfg    TraceConfig
	rng    *rand.Rand
	sch    *tuple.Schema
	arr    stream.Arrival
	now    int64
	srcGen stream.ValueGen
	dstGen stream.ValueGen

	// Ground truth for evaluating classifiers.
	TrueP2PPackets int64
	TrueP2PBytes   int64
	TotalPackets   int64
}

// NewPacketTrace builds the generator.
func NewPacketTrace(cfg TraceConfig) *PacketTrace {
	if cfg.Rate <= 0 {
		cfg.Rate = 10000
	}
	if cfg.AddrPool <= 0 {
		cfg.AddrPool = 1000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &PacketTrace{
		cfg:    cfg,
		rng:    rng,
		sch:    TCPSchema("TCP"),
		arr:    stream.PoissonArrival{Rate: cfg.Rate, Rng: rng},
		srcGen: stream.ZipfIP(rng, 1.2, cfg.AddrPool),
		dstGen: stream.ZipfIP(rng, 1.2, cfg.AddrPool),
	}
}

// Schema implements stream.Source.
func (p *PacketTrace) Schema() *tuple.Schema { return p.sch }

// Next implements stream.Source.
func (p *PacketTrace) Next() (stream.Element, bool) {
	p.now = p.arr.Next(p.now)
	p.TotalPackets++
	isP2P := p.rng.Float64() < p.cfg.P2PFraction
	length := uint64(40 + p.rng.Intn(1461))
	var srcPort, destPort uint64
	payload := httpPayloads[p.rng.Intn(len(httpPayloads))]
	if isP2P {
		kw := P2PKeywords[p.rng.Intn(len(P2PKeywords))]
		payload = kw + filler[:p.rng.Intn(len(filler))]
		if p.rng.Float64() < p.cfg.P2PKnownPortFraction {
			destPort = P2PWellKnownPorts[p.rng.Intn(len(P2PWellKnownPorts))]
		} else {
			destPort = uint64(10000 + p.rng.Intn(50000)) // ephemeral
		}
		srcPort = uint64(10000 + p.rng.Intn(50000))
		p.TrueP2PPackets++
		p.TrueP2PBytes += int64(length)
	} else {
		destPort = []uint64{80, 443, 25, 53}[p.rng.Intn(4)]
		srcPort = uint64(10000 + p.rng.Intn(50000))
	}
	t := tuple.New(p.now,
		tuple.Time(p.now),
		p.srcGen(),
		p.dstGen(),
		tuple.Uint(6),
		tuple.Uint(uint64(32+p.rng.Intn(96))),
		tuple.Uint(length),
		tuple.Uint(srcPort),
		tuple.Uint(destPort),
		tuple.Bool(false),
		tuple.Bool(true),
		tuple.String(payload),
	)
	return stream.Tup(t), true
}

// NextBatch implements stream.BulkSource: the trace is generated, never
// waited for.
func (p *PacketTrace) NextBatch(dst []stream.Element, max int) ([]stream.Element, bool) {
	return stream.FillBatch(p, dst, max)
}

var httpPayloads = []string{
	"GET /index.html HTTP/1.1\r\nHost: example.com",
	"HTTP/1.1 200 OK\r\nContent-Type: text/html",
	"POST /api/v1/metrics HTTP/1.1\r\nHost: collector",
	"EHLO mail.example.com",
}

const filler = " xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"

// HandshakeConfig parameterizes the SYN / SYN-ACK generator.
type HandshakeConfig struct {
	Seed int64
	// Rate is new connections per second.
	Rate float64
	// RTTMu, RTTSigma parameterize the lognormal RTT in seconds.
	RTTMu, RTTSigma float64
	// LossProb is the probability a SYN never gets a SYN-ACK.
	LossProb float64
	// Servers is the server address pool size.
	Servers int
}

// HandshakeTrace produces two correlated streams: tcp_syn and
// tcp_syn_ack (slide 13's RTT query inputs). Both are timestamp-ordered.
type HandshakeTrace struct {
	Syn stream.Source
	Ack stream.Source
	// TrueRTTs holds the ground-truth RTT (in virtual ns) of every
	// answered handshake, for accuracy evaluation.
	TrueRTTs []int64
}

// SynSchema is the schema shared by both handshake streams.
func SynSchema(name string) *tuple.Schema {
	return tuple.NewSchema(name,
		tuple.Field{Name: "tstmp", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "srcIP", Kind: tuple.KindIP},
		tuple.Field{Name: "destIP", Kind: tuple.KindIP},
		tuple.Field{Name: "srcPort", Kind: tuple.KindUint},
		tuple.Field{Name: "destPort", Kind: tuple.KindUint},
	)
}

// NewHandshakeTrace synthesizes n handshakes.
func NewHandshakeTrace(cfg HandshakeConfig, n int) *HandshakeTrace {
	if cfg.Rate <= 0 {
		cfg.Rate = 1000
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 50
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	arr := stream.PoissonArrival{Rate: cfg.Rate, Rng: rng}
	rtt := stream.LognormalFloat(rng, cfg.RTTMu, cfg.RTTSigma)

	synSch := SynSchema("tcp_syn")
	ackSch := SynSchema("tcp_syn_ack")
	var syns, acks []stream.Element
	var truth []int64
	now := int64(0)
	for i := 0; i < n; i++ {
		now = arr.Next(now)
		client := tuple.IP(uint32(10<<24) + uint32(rng.Intn(1<<20)))
		server := tuple.IP(uint32(192<<24|168<<16) + uint32(rng.Intn(cfg.Servers)))
		cport := tuple.Uint(uint64(10000 + rng.Intn(50000)))
		sport := tuple.Uint(443)
		syns = append(syns, stream.Tup(tuple.New(now,
			tuple.Time(now), client, server, cport, sport)))
		if rng.Float64() < cfg.LossProb {
			continue
		}
		r, _ := rtt().AsFloat()
		rttNs := int64(r * float64(stream.Second))
		if rttNs < 1 {
			rttNs = 1
		}
		ackTs := now + rttNs
		// SYN-ACK swaps the endpoints (slide 13's join predicate).
		acks = append(acks, stream.Tup(tuple.New(ackTs,
			tuple.Time(ackTs), server, client, sport, cport)))
		truth = append(truth, rttNs)
	}
	stream.SortByTs(acks)
	return &HandshakeTrace{
		Syn:      stream.FromElements(synSch, syns...),
		Ack:      stream.FromElements(ackSch, acks...),
		TrueRTTs: truth,
	}
}

// FlowTrace aggregates a packet source into NetFlow-style flow records
// keyed by 5-tuple, flushed when idle for the timeout. This is the
// "previous approach" baseline of slide 10.
type FlowTrace struct {
	sch     *tuple.Schema
	src     stream.Source
	timeout int64
	flows   map[uint64]*flowState
	pending []stream.Element
	done    bool
}

type flowState struct {
	first, last        int64
	srcIP, destIP      tuple.Value
	srcPort, destPort  tuple.Value
	packets, byteCount uint64
}

// NewFlowTrace builds the aggregator over a TCP packet source.
func NewFlowTrace(src stream.Source, timeout int64) *FlowTrace {
	return &FlowTrace{
		sch: FlowSchema("Flows"), src: src, timeout: timeout,
		flows: make(map[uint64]*flowState),
	}
}

// Schema implements stream.Source.
func (f *FlowTrace) Schema() *tuple.Schema { return f.sch }

// Next implements stream.Source.
func (f *FlowTrace) Next() (stream.Element, bool) {
	for {
		if len(f.pending) > 0 {
			e := f.pending[0]
			f.pending = f.pending[1:]
			return e, true
		}
		if f.done {
			return stream.Element{}, false
		}
		e, ok := f.src.Next()
		if !ok {
			f.done = true
			for _, fs := range f.flows {
				f.pending = append(f.pending, f.emit(fs))
			}
			f.flows = nil
			stream.SortByTs(f.pending)
			continue
		}
		if e.IsPunct() {
			continue
		}
		t := e.Tuple
		key := t.Key([]int{1, 2, 6, 7})
		fs, exists := f.flows[key]
		if exists && t.Ts-fs.last > f.timeout {
			f.pending = append(f.pending, f.emit(fs))
			delete(f.flows, key)
			exists = false
		}
		if !exists {
			fs = &flowState{
				first: t.Ts,
				srcIP: t.Vals[1], destIP: t.Vals[2],
				srcPort: t.Vals[6], destPort: t.Vals[7],
			}
			f.flows[key] = fs
		}
		fs.last = t.Ts
		fs.packets++
		b, _ := t.Vals[5].AsUint()
		fs.byteCount += b
	}
}

func (f *FlowTrace) emit(fs *flowState) stream.Element {
	return stream.Tup(tuple.New(fs.last,
		tuple.Time(fs.last), fs.srcIP, fs.destIP, fs.srcPort, fs.destPort,
		tuple.Uint(fs.packets), tuple.Uint(fs.byteCount)))
}
