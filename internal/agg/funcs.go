// Package agg implements stream aggregation (slides 34-38): the
// distributive / algebraic / holistic aggregate taxonomy, windowed
// group-by with HAVING, approximate holistic aggregates backed by
// synopses, and Gigascope's two-level partial aggregation (slide 37).
package agg

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"streamdb/internal/synopsis"
	"streamdb/internal/tuple"
)

// Class is the aggregate taxonomy of slide 34.
type Class uint8

// Aggregate classes: distributive aggregates (sum, count, min, max)
// merge by combining partials; algebraic aggregates (avg) merge via a
// fixed-size intermediate; holistic aggregates (median, count-distinct)
// need the whole multiset — or a synopsis — and are the bounded-memory
// troublemakers of [ABB+02].
const (
	Distributive Class = iota
	Algebraic
	Holistic
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Distributive:
		return "distributive"
	case Algebraic:
		return "algebraic"
	default:
		return "holistic"
	}
}

// State is one group's accumulator.
type State interface {
	Add(v tuple.Value)
	// Merge folds another state of the same function into this one.
	// Holistic exact states support it (by keeping everything);
	// synopsis-backed states may return an error.
	Merge(o State) error
	Result() tuple.Value
	MemSize() int
}

// Func describes an aggregate function.
type Func struct {
	Name  string
	Class Class
	// Result maps the argument kind to the result kind.
	Result func(arg tuple.Kind) tuple.Kind
	// New creates a fresh accumulator.
	New func() State
	// NeedsArg is false only for count(*).
	NeedsArg bool
}

// Lookup resolves an aggregate function by name. The approx flag selects
// synopsis-backed variants of the holistic functions (slide 38: "use
// summary structures").
func Lookup(name string, approx bool) (*Func, error) {
	switch strings.ToLower(name) {
	case "count":
		return &Func{Name: "count", Class: Distributive, NeedsArg: false,
			Result: func(tuple.Kind) tuple.Kind { return tuple.KindInt },
			New:    func() State { return &countState{} }}, nil
	case "sum":
		return &Func{Name: "sum", Class: Distributive, NeedsArg: true,
			Result: func(tuple.Kind) tuple.Kind { return tuple.KindFloat },
			New:    func() State { return &sumState{} }}, nil
	case "min":
		return &Func{Name: "min", Class: Distributive, NeedsArg: true,
			Result: func(k tuple.Kind) tuple.Kind { return k },
			New:    func() State { return &minmaxState{min: true} }}, nil
	case "max":
		return &Func{Name: "max", Class: Distributive, NeedsArg: true,
			Result: func(k tuple.Kind) tuple.Kind { return k },
			New:    func() State { return &minmaxState{} }}, nil
	case "avg":
		return &Func{Name: "avg", Class: Algebraic, NeedsArg: true,
			Result: func(tuple.Kind) tuple.Kind { return tuple.KindFloat },
			New:    func() State { return &avgState{} }}, nil
	case "stddev":
		return &Func{Name: "stddev", Class: Algebraic, NeedsArg: true,
			Result: func(tuple.Kind) tuple.Kind { return tuple.KindFloat },
			New:    func() State { return &stddevState{} }}, nil
	case "count_distinct", "countdistinct":
		f := &Func{Name: "count_distinct", Class: Holistic, NeedsArg: true,
			Result: func(tuple.Kind) tuple.Kind { return tuple.KindInt }}
		if approx {
			f.New = func() State { return &fmState{fm: synopsis.NewFM(64)} }
		} else {
			f.New = func() State { return &distinctState{seen: map[uint64]int64{}} }
		}
		return f, nil
	case "median":
		f := &Func{Name: "median", Class: Holistic, NeedsArg: true,
			Result: func(tuple.Kind) tuple.Kind { return tuple.KindFloat }}
		if approx {
			f.New = func() State { return &gkState{gk: synopsis.NewGK(0.01)} }
		} else {
			f.New = func() State { return &medianState{} }
		}
		return f, nil
	}
	return nil, fmt.Errorf("agg: unknown aggregate %q", name)
}

// invertible is implemented by states whose Merge the running window
// (pane.go) can undo. Counts are int64 and always exact; float64 totals
// are exact only while they hold integers below exactLimit (a UINT
// argument: see runningGate), when any association of the merges yields
// the same bits and unmerge restores them. exact reports whether that
// still holds.
type invertible interface {
	unmerge(o State)
	exact() bool
}

// exactLimit is 2^53: every integer below it is a float64.
const exactLimit = 1 << 53

type countState struct{ n int64 }

func (s *countState) Add(tuple.Value) { s.n++ }
func (s *countState) Merge(o State) error {
	s.n += o.(*countState).n
	return nil
}
func (s *countState) Result() tuple.Value { return tuple.Int(s.n) }
func (s *countState) MemSize() int        { return 8 }
func (s *countState) reset()              { s.n = 0 }
func (s *countState) unmerge(o State)     { s.n -= o.(*countState).n }
func (s *countState) exact() bool         { return true }

// sumState counts its non-null inputs so that "any input at all" (NULL
// for an empty sum) survives an unmerge; partials and checkpoints still
// carry it as the (sum, any) pair.
type sumState struct {
	sum float64
	n   int64
}

func (s *sumState) Add(v tuple.Value) {
	if f, ok := v.AsFloat(); ok {
		s.sum += f
		s.n++
	}
}
func (s *sumState) Merge(o State) error {
	os := o.(*sumState)
	s.sum += os.sum
	s.n += os.n
	return nil
}
func (s *sumState) Result() tuple.Value {
	if s.n == 0 {
		return tuple.Null
	}
	return tuple.Float(s.sum)
}
func (s *sumState) MemSize() int { return 16 }
func (s *sumState) reset()       { s.sum, s.n = 0, 0 }
func (s *sumState) unmerge(o State) {
	os := o.(*sumState)
	s.sum -= os.sum
	s.n -= os.n
}
func (s *sumState) exact() bool { return s.sum < exactLimit }

type minmaxState struct {
	min  bool
	best tuple.Value
}

func (s *minmaxState) Add(v tuple.Value) {
	if v.IsNull() {
		return
	}
	if s.best.IsNull() {
		s.best = v
		return
	}
	c := v.Compare(s.best)
	if (s.min && c < 0) || (!s.min && c > 0) {
		s.best = v
	}
}
func (s *minmaxState) Merge(o State) error {
	s.Add(o.(*minmaxState).best)
	return nil
}
func (s *minmaxState) Result() tuple.Value { return s.best }
func (s *minmaxState) MemSize() int        { return 8 + s.best.MemSize() }
func (s *minmaxState) reset()              { s.best = tuple.Null }

type avgState struct {
	sum float64
	n   int64
}

func (s *avgState) Add(v tuple.Value) {
	if f, ok := v.AsFloat(); ok {
		s.sum += f
		s.n++
	}
}
func (s *avgState) Merge(o State) error {
	os := o.(*avgState)
	s.sum += os.sum
	s.n += os.n
	return nil
}
func (s *avgState) Result() tuple.Value {
	if s.n == 0 {
		return tuple.Null
	}
	return tuple.Float(s.sum / float64(s.n))
}
func (s *avgState) MemSize() int { return 16 }
func (s *avgState) reset()       { s.sum, s.n = 0, 0 }
func (s *avgState) unmerge(o State) {
	os := o.(*avgState)
	s.sum -= os.sum
	s.n -= os.n
}
func (s *avgState) exact() bool { return s.sum < exactLimit }

type stddevState struct {
	sum, sq float64
	n       int64
}

func (s *stddevState) Add(v tuple.Value) {
	if f, ok := v.AsFloat(); ok {
		s.sum += f
		s.sq += f * f
		s.n++
	}
}
func (s *stddevState) Merge(o State) error {
	os := o.(*stddevState)
	s.sum += os.sum
	s.sq += os.sq
	s.n += os.n
	return nil
}
func (s *stddevState) Result() tuple.Value {
	if s.n < 2 {
		return tuple.Null
	}
	mean := s.sum / float64(s.n)
	variance := s.sq/float64(s.n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return tuple.Float(math.Sqrt(variance))
}
func (s *stddevState) MemSize() int { return 24 }
func (s *stddevState) reset()       { s.sum, s.sq, s.n = 0, 0, 0 }
func (s *stddevState) unmerge(o State) {
	os := o.(*stddevState)
	s.sum -= os.sum
	s.sq -= os.sq
	s.n -= os.n
}
func (s *stddevState) exact() bool { return s.sum < exactLimit && s.sq < exactLimit }

// distinctState is exact count-distinct: memory grows with cardinality,
// exactly the unbounded-memory hazard of slide 36.
type distinctState struct{ seen map[uint64]int64 }

func (s *distinctState) Add(v tuple.Value) {
	if !v.IsNull() {
		s.seen[v.Hash()]++
	}
}
func (s *distinctState) Merge(o State) error {
	for h, c := range o.(*distinctState).seen {
		s.seen[h] += c
	}
	return nil
}
func (s *distinctState) Result() tuple.Value { return tuple.Int(int64(len(s.seen))) }
func (s *distinctState) MemSize() int        { return 48 + 16*len(s.seen) }

// fmState is Flajolet-Martin approximate count-distinct: bounded memory.
type fmState struct{ fm *synopsis.FM }

func (s *fmState) Add(v tuple.Value) {
	if !v.IsNull() {
		s.fm.Add(v)
	}
}
func (s *fmState) Merge(o State) error {
	return fmt.Errorf("agg: approximate count_distinct states do not merge")
}
func (s *fmState) Result() tuple.Value { return tuple.Int(int64(s.fm.Estimate())) }
func (s *fmState) MemSize() int        { return s.fm.MemSize() }

// medianState is exact median: keeps every value.
type medianState struct{ vals []float64 }

func (s *medianState) Add(v tuple.Value) {
	if f, ok := v.AsFloat(); ok {
		s.vals = append(s.vals, f)
	}
}
func (s *medianState) Merge(o State) error {
	s.vals = append(s.vals, o.(*medianState).vals...)
	return nil
}
func (s *medianState) Result() tuple.Value {
	if len(s.vals) == 0 {
		return tuple.Null
	}
	v := append([]float64(nil), s.vals...)
	sort.Float64s(v)
	return tuple.Float(v[len(v)/2])
}
func (s *medianState) MemSize() int { return 24 + 8*len(s.vals) }

// gkState is Greenwald-Khanna approximate median: bounded memory.
type gkState struct{ gk *synopsis.GK }

func (s *gkState) Add(v tuple.Value) {
	if f, ok := v.AsFloat(); ok {
		s.gk.Add(f)
	}
}
func (s *gkState) Merge(o State) error {
	return fmt.Errorf("agg: approximate median states do not merge")
}
func (s *gkState) Result() tuple.Value {
	m, ok := s.gk.Query(0.5)
	if !ok {
		return tuple.Null
	}
	return tuple.Float(m)
}
func (s *gkState) MemSize() int { return s.gk.MemSize() }
