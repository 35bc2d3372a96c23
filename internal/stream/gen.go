package stream

import (
	"math"
	"math/rand"

	"streamdb/internal/tuple"
)

// This file holds the synthetic workload generators that substitute for
// the tutorial's proprietary feeds (DESIGN.md §2). All generators are
// deterministic given a seed, and emit virtual-nanosecond timestamps so
// experiments replay identically.

// Second is one virtual second in timestamp units.
const Second = int64(1e9)

// Arrival models an arrival process: Next returns the timestamp of the
// following arrival given the previous one.
type Arrival interface {
	Next(prev int64) int64
}

// UniformArrival spaces arrivals exactly 1/Rate seconds apart.
type UniformArrival struct {
	Rate float64 // tuples per second
}

// Next implements Arrival.
func (u UniformArrival) Next(prev int64) int64 {
	return prev + int64(float64(Second)/u.Rate)
}

// PoissonArrival draws exponential inter-arrival times with the given
// mean rate.
type PoissonArrival struct {
	Rate float64
	Rng  *rand.Rand
}

// Next implements Arrival.
func (p PoissonArrival) Next(prev int64) int64 {
	gap := p.Rng.ExpFloat64() / p.Rate
	return prev + int64(gap*float64(Second)) + 1
}

// BurstyArrival alternates between an "on" period at OnRate and a silent
// "off" period, the bursty regime that motivates memory-based
// optimization (slide 42: "when streams are bursty, tuple backlog
// between operators may increase").
type BurstyArrival struct {
	OnRate   float64 // tuples/sec while bursting
	OnLen    int64   // burst length in timestamp units
	OffLen   int64   // gap length in timestamp units
	phaseEnd int64
	inBurst  bool
	initDone bool
}

// Next implements Arrival.
func (b *BurstyArrival) Next(prev int64) int64 {
	if !b.initDone {
		b.inBurst = true
		b.phaseEnd = prev + b.OnLen
		b.initDone = true
	}
	next := prev + int64(float64(Second)/b.OnRate)
	for next >= b.phaseEnd {
		if b.inBurst {
			next = b.phaseEnd + b.OffLen
			b.phaseEnd += b.OffLen
			b.inBurst = false
		} else {
			b.inBurst = true
			b.phaseEnd = next + b.OnLen
		}
	}
	return next
}

// ValueGen produces one attribute value per call.
type ValueGen func() tuple.Value

// UniformInt yields integers uniform in [lo, hi].
func UniformInt(rng *rand.Rand, lo, hi int64) ValueGen {
	return func() tuple.Value { return tuple.Int(lo + rng.Int63n(hi-lo+1)) }
}

// ZipfInt yields integers 0..n-1 with Zipf skew s (>1). Heavy-hitter
// workloads (slide 38's "having count(*) > φ|S|") use high skew.
func ZipfInt(rng *rand.Rand, s float64, n uint64) ValueGen {
	z := rand.NewZipf(rng, s, 1, n-1)
	return func() tuple.Value { return tuple.Int(int64(z.Uint64())) }
}

// ZipfIP yields IPv4 addresses from a Zipf-weighted pool, modelling the
// skewed address mix of backbone traffic.
func ZipfIP(rng *rand.Rand, s float64, pool int) ValueGen {
	z := rand.NewZipf(rng, s, 1, uint64(pool-1))
	base := uint32(10 << 24) // 10.0.0.0/8
	return func() tuple.Value {
		return tuple.IP(base + uint32(z.Uint64()))
	}
}

// NormalFloat yields Gaussian floats.
func NormalFloat(rng *rand.Rand, mean, stddev float64) ValueGen {
	return func() tuple.Value { return tuple.Float(mean + stddev*rng.NormFloat64()) }
}

// LognormalFloat yields lognormal floats (RTT-like latency values).
func LognormalFloat(rng *rand.Rand, mu, sigma float64) ValueGen {
	return func() tuple.Value { return tuple.Float(math.Exp(mu + sigma*rng.NormFloat64())) }
}

// ConstStr yields a fixed string.
func ConstStr(s string) ValueGen {
	v := tuple.String(s)
	return func() tuple.Value { return v }
}

// Generator synthesizes an unbounded stream: each tuple's timestamp comes
// from the arrival process and each attribute from its ValueGen. The
// ordering attribute (if the schema declares one) is overwritten with the
// arrival timestamp, keeping the stream consistent with its declared
// order.
type Generator struct {
	schema  *tuple.Schema
	arrival Arrival
	gens    []ValueGen
	now     int64
	ordIdx  int
}

// NewGenerator builds a generator. gens must have one entry per schema
// field; entries may be nil for the ordering attribute.
func NewGenerator(schema *tuple.Schema, arrival Arrival, gens []ValueGen) *Generator {
	if len(gens) != schema.Arity() {
		panic("stream: generator arity mismatch")
	}
	return &Generator{schema: schema, arrival: arrival, gens: gens, ordIdx: schema.OrderingIndex()}
}

// Schema implements Source.
func (g *Generator) Schema() *tuple.Schema { return g.schema }

// Next implements Source.
func (g *Generator) Next() (Element, bool) {
	g.now = g.arrival.Next(g.now)
	vals := make([]tuple.Value, len(g.gens))
	for i, gen := range g.gens {
		if i == g.ordIdx || gen == nil {
			vals[i] = tuple.Time(g.now)
			continue
		}
		vals[i] = gen()
	}
	return Tup(tuple.New(g.now, vals...)), true
}

// NextBatch implements BulkSource: the generator computes its elements
// and never waits for them.
func (g *Generator) NextBatch(dst []Element, max int) ([]Element, bool) {
	return FillBatch(g, dst, max)
}

// MeasurementSchema is the generic sensor/measurement stream schema
// (slide 3: "measurement data streams monitor evolution of entity
// states").
func MeasurementSchema(name string) *tuple.Schema {
	return tuple.NewSchema(name,
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "sensor", Kind: tuple.KindInt, Bounded: true},
		tuple.Field{Name: "value", Kind: tuple.KindFloat},
	)
}

// NewMeasurementStream generates readings from nsensors sensors at the
// aggregate rate, values drifting as independent random walks.
func NewMeasurementStream(seed int64, nsensors int, rate float64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	state := make([]float64, nsensors)
	for i := range state {
		state[i] = 20 + 5*rng.NormFloat64()
	}
	schema := MeasurementSchema("Measurements")
	which := 0
	return NewGenerator(schema, PoissonArrival{Rate: rate, Rng: rng}, []ValueGen{
		nil,
		func() tuple.Value { which = rng.Intn(nsensors); return tuple.Int(int64(which)) },
		func() tuple.Value {
			state[which] += 0.1 * rng.NormFloat64()
			return tuple.Float(state[which])
		},
	})
}

// TrafficSchema is the running example schema of slides 29-36:
// Traffic(time, srcIP, destIP, protocol, length).
func TrafficSchema(name string) *tuple.Schema {
	return tuple.NewSchema(name,
		tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
		tuple.Field{Name: "srcIP", Kind: tuple.KindIP},
		tuple.Field{Name: "destIP", Kind: tuple.KindIP},
		tuple.Field{Name: "protocol", Kind: tuple.KindUint, Bounded: true},
		tuple.Field{Name: "length", Kind: tuple.KindUint},
	)
}

// NewTrafficStream generates the Traffic stream: Zipf addresses, TCP/UDP
// mix, packet lengths in [40, 1500].
func NewTrafficStream(seed int64, rate float64, addrPool int) *Generator {
	rng := rand.New(rand.NewSource(seed))
	src := ZipfIP(rng, 1.2, addrPool)
	dst := ZipfIP(rng, 1.2, addrPool)
	return NewGenerator(TrafficSchema("Traffic"), PoissonArrival{Rate: rate, Rng: rng}, []ValueGen{
		nil,
		src,
		dst,
		func() tuple.Value {
			if rng.Float64() < 0.8 {
				return tuple.Uint(6) // TCP
			}
			return tuple.Uint(17) // UDP
		},
		func() tuple.Value { return tuple.Uint(uint64(40 + rng.Intn(1461))) },
	})
}

// WithProgressPunctuation interleaves progress punctuations on the
// ordering attribute every interval of stream time, enabling blocking
// operators downstream (slide 28).
func WithProgressPunctuation(src Source, interval int64) Source {
	ordIdx := src.Schema().OrderingIndex()
	var pending *Element
	nextPunct := interval
	return &FuncSource{Sch: src.Schema(), Fn: func() (Element, bool) {
		if pending != nil {
			e := *pending
			pending = nil
			return e, true
		}
		e, ok := src.Next()
		if !ok {
			return Element{}, false
		}
		if !e.IsPunct() && e.Ts() >= nextPunct {
			p := Punct(ProgressPunct(nextPunct, ordIdx, tuple.Time(nextPunct)))
			pending = &e
			nextPunct += interval
			return p, true
		}
		return e, ok
	}}
}
