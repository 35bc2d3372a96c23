package agg

import (
	"fmt"

	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// Partializable is implemented by aggregate states that can ship a
// fixed-arity partial representation to a higher-level combiner. Only
// distributive and algebraic aggregates qualify — holistic states have
// unbounded partials, which is exactly why Gigascope's low level cannot
// compute them (slides 34-37).
type Partializable interface {
	State
	// PartialVals serializes the accumulator into a fixed set of values.
	PartialVals() []tuple.Value
	// PartialKinds reports the serialized column kinds.
	PartialKinds() []tuple.Kind
	// MergePartial folds a serialized partial into the accumulator.
	MergePartial(vals []tuple.Value) error
}

// PartialVals implements Partializable for countState.
func (s *countState) PartialVals() []tuple.Value { return []tuple.Value{tuple.Int(s.n)} }

// PartialKinds implements Partializable for countState.
func (s *countState) PartialKinds() []tuple.Kind { return []tuple.Kind{tuple.KindInt} }

// MergePartial implements Partializable for countState.
func (s *countState) MergePartial(vals []tuple.Value) error {
	n, ok := vals[0].AsInt()
	if !ok {
		return fmt.Errorf("agg: bad count partial")
	}
	s.n += n
	return nil
}

// PartialVals implements Partializable for sumState.
func (s *sumState) PartialVals() []tuple.Value {
	return []tuple.Value{tuple.Float(s.sum), tuple.Bool(s.n > 0)}
}

// PartialKinds implements Partializable for sumState.
func (s *sumState) PartialKinds() []tuple.Kind {
	return []tuple.Kind{tuple.KindFloat, tuple.KindBool}
}

// MergePartial implements Partializable for sumState. The partial says
// only whether inputs were seen, so it counts as one: n > 0 still means
// "any input", which is all Result and PartialVals read.
func (s *sumState) MergePartial(vals []tuple.Value) error {
	f, ok1 := vals[0].AsFloat()
	a, ok2 := vals[1].AsBool()
	if !ok1 || !ok2 {
		return fmt.Errorf("agg: bad sum partial")
	}
	s.sum += f
	if a {
		s.n++
	}
	return nil
}

// PartialVals implements Partializable for minmaxState.
func (s *minmaxState) PartialVals() []tuple.Value { return []tuple.Value{s.best} }

// PartialKinds implements Partializable for minmaxState.
func (s *minmaxState) PartialKinds() []tuple.Kind { return []tuple.Kind{s.best.Kind} }

// MergePartial implements Partializable for minmaxState.
func (s *minmaxState) MergePartial(vals []tuple.Value) error {
	s.Add(vals[0])
	return nil
}

// PartialVals implements Partializable for avgState.
func (s *avgState) PartialVals() []tuple.Value {
	return []tuple.Value{tuple.Float(s.sum), tuple.Int(s.n)}
}

// PartialKinds implements Partializable for avgState.
func (s *avgState) PartialKinds() []tuple.Kind {
	return []tuple.Kind{tuple.KindFloat, tuple.KindInt}
}

// MergePartial implements Partializable for avgState.
func (s *avgState) MergePartial(vals []tuple.Value) error {
	f, ok1 := vals[0].AsFloat()
	n, ok2 := vals[1].AsInt()
	if !ok1 || !ok2 {
		return fmt.Errorf("agg: bad avg partial")
	}
	s.sum += f
	s.n += n
	return nil
}

// PartialVals implements Partializable for stddevState.
func (s *stddevState) PartialVals() []tuple.Value {
	return []tuple.Value{tuple.Float(s.sum), tuple.Float(s.sq), tuple.Int(s.n)}
}

// PartialKinds implements Partializable for stddevState.
func (s *stddevState) PartialKinds() []tuple.Kind {
	return []tuple.Kind{tuple.KindFloat, tuple.KindFloat, tuple.KindInt}
}

// MergePartial implements Partializable for stddevState.
func (s *stddevState) MergePartial(vals []tuple.Value) error {
	a, ok1 := vals[0].AsFloat()
	b, ok2 := vals[1].AsFloat()
	n, ok3 := vals[2].AsInt()
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("agg: bad stddev partial")
	}
	s.sum += a
	s.sq += b
	s.n += n
	return nil
}

// PartialAgg is the low-level half of Gigascope's two-level aggregation
// (slide 37): a fixed-size direct-mapped group table sized for the
// resource-limited observation point. On a slot collision the incumbent
// partial is emitted downstream and the slot is recycled — "bounded
// number of groups maintained at low level, unbounded number of groups
// maintainable at high level". Slots also flush when the tuple's time
// bucket advances past theirs.
type PartialAgg struct {
	name      string
	groupBy   []expr.Expr
	aggs      []Spec
	bucketLen int64 // time-bucket width; 0 disables bucket flushing
	slots     []*pslot
	out       *tuple.Schema
	curBucket int64
	evictions int64
	emitted   int64
	absorbed  int64
}

type pslot struct {
	keys   []tuple.Value
	bucket int64
	states []Partializable
	used   bool
}

// NewPartialAgg builds the low-level aggregator with the given slot
// count. Every aggregate must be partializable.
func NewPartialAgg(name string, in *tuple.Schema, groupBy []expr.Expr, groupNames []string, aggs []Spec, slots int, bucketLen int64) (*PartialAgg, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("agg: partial aggregation needs positive slot count")
	}
	if len(groupBy) != len(groupNames) {
		return nil, fmt.Errorf("agg: %d group exprs, %d names", len(groupBy), len(groupNames))
	}
	fields := []tuple.Field{{Name: "bucket", Kind: tuple.KindTime, Ordering: true}}
	for i, g := range groupBy {
		fields = append(fields, tuple.Field{Name: groupNames[i], Kind: g.Kind()})
	}
	for _, a := range aggs {
		st := a.Fn.New()
		p, ok := st.(Partializable)
		if !ok {
			return nil, fmt.Errorf("agg: %s (%s) cannot be partially aggregated", a.Fn.Name, a.Fn.Class)
		}
		for j, k := range p.PartialKinds() {
			fields = append(fields, tuple.Field{Name: fmt.Sprintf("%s#%d", a.Name, j), Kind: k})
		}
	}
	pa := &PartialAgg{
		name: name, groupBy: groupBy, aggs: aggs, bucketLen: bucketLen,
		slots: make([]*pslot, slots),
		out:   tuple.NewSchema(name, fields...),
	}
	for i := range pa.slots {
		pa.slots[i] = &pslot{}
	}
	return pa, nil
}

// Name implements ops.Operator.
func (p *PartialAgg) Name() string { return p.name }

// OutSchema implements ops.Operator.
func (p *PartialAgg) OutSchema() *tuple.Schema { return p.out }

// NumInputs implements ops.Operator.
func (p *PartialAgg) NumInputs() int { return 1 }

// Push implements ops.Operator.
func (p *PartialAgg) Push(_ int, e stream.Element, emit ops.Emit) {
	if e.IsPunct() {
		return
	}
	t := e.Tuple
	bucket := int64(0)
	if p.bucketLen > 0 {
		bucket = (t.Ts / p.bucketLen) * p.bucketLen
	}
	// Bucket boundary: flush every slot still holding an older bucket,
	// so the high level can finalize a bucket as soon as it sees a
	// partial from a newer one.
	if bucket > p.curBucket {
		for _, slot := range p.slots {
			if slot.used && slot.bucket < bucket {
				p.flushSlot(slot, emit)
			}
		}
		p.curBucket = bucket
	}
	keys := make([]tuple.Value, len(p.groupBy))
	h := uint64(1469598103934665603)
	for i, ge := range p.groupBy {
		keys[i] = ge.Eval(t)
		h ^= keys[i].Hash()
		h *= 1099511628211
	}
	slot := p.slots[h%uint64(len(p.slots))]
	if slot.used && (slot.bucket != bucket || !keysEqual(slot.keys, keys)) {
		p.flushSlot(slot, emit)
		p.evictions++
	}
	if !slot.used {
		slot.used = true
		slot.keys = keys
		slot.bucket = bucket
		slot.states = make([]Partializable, len(p.aggs))
		for i, a := range p.aggs {
			slot.states[i] = a.Fn.New().(Partializable)
		}
	}
	for i, a := range p.aggs {
		if a.Arg == nil {
			slot.states[i].Add(tuple.Int(1))
		} else {
			slot.states[i].Add(a.Arg.Eval(t))
		}
	}
	p.absorbed++
}

func (p *PartialAgg) flushSlot(slot *pslot, emit ops.Emit) {
	vals := []tuple.Value{tuple.Time(slot.bucket)}
	vals = append(vals, slot.keys...)
	for _, st := range slot.states {
		vals = append(vals, st.PartialVals()...)
	}
	p.emitted++
	emit(stream.Tup(tuple.New(slot.bucket, vals...)))
	slot.used = false
	slot.keys = nil
	slot.states = nil
}

// Flush implements ops.Operator.
func (p *PartialAgg) Flush(emit ops.Emit) {
	for _, slot := range p.slots {
		if slot.used {
			p.flushSlot(slot, emit)
		}
	}
}

// MemSize implements ops.Operator: fixed by construction — the whole
// point of the low-level design.
func (p *PartialAgg) MemSize() int {
	n := 64
	for _, slot := range p.slots {
		n += 24
		if slot.used {
			for _, k := range slot.keys {
				n += k.MemSize()
			}
			for _, st := range slot.states {
				n += st.MemSize()
			}
		}
	}
	return n
}

// Stats reports (tuples absorbed, partials emitted, evictions). The
// data-reduction factor of experiment E8 is absorbed/emitted.
func (p *PartialAgg) Stats() (absorbed, emitted, evictions int64) {
	return p.absorbed, p.emitted, p.evictions
}

// FinalAgg is the high-level half: it re-groups partial records on the
// group keys and merges their partial values, emitting final results
// when the time bucket advances (or at Flush).
type FinalAgg struct {
	name      string
	in        *tuple.Schema
	nkeys     int
	aggs      []Spec
	out       *tuple.Schema
	groups    map[uint64][]*fgroup
	n         int
	watermk   int64
	emitted   int64
	mergeErrs int64
}

type fgroup struct {
	bucket int64
	keys   []tuple.Value
	states []Partializable
}

// NewFinalAgg builds the combiner for partial records produced by a
// PartialAgg with the same group and aggregate specification.
func NewFinalAgg(name string, partial *PartialAgg) (*FinalAgg, error) {
	in := partial.OutSchema()
	nkeys := len(partial.groupBy)
	fields := []tuple.Field{{Name: "bucket", Kind: tuple.KindTime, Ordering: true}}
	fields = append(fields, in.Fields[1:1+nkeys]...)
	for _, a := range partial.aggs {
		argKind := tuple.KindInt
		if a.Arg != nil {
			argKind = a.Arg.Kind()
		}
		fields = append(fields, tuple.Field{Name: a.Name, Kind: a.Fn.Result(argKind)})
	}
	return &FinalAgg{
		name: name, in: in, nkeys: nkeys, aggs: partial.aggs,
		out:    tuple.NewSchema(name, fields...),
		groups: make(map[uint64][]*fgroup),
	}, nil
}

// Name implements ops.Operator.
func (f *FinalAgg) Name() string { return f.name }

// OutSchema implements ops.Operator.
func (f *FinalAgg) OutSchema() *tuple.Schema { return f.out }

// NumInputs implements ops.Operator.
func (f *FinalAgg) NumInputs() int { return 1 }

// Push implements ops.Operator.
func (f *FinalAgg) Push(_ int, e stream.Element, emit ops.Emit) {
	if e.IsPunct() {
		f.advance(e.Punct.Ts, emit)
		return
	}
	t := e.Tuple
	bucket, _ := t.Vals[0].AsTime()
	keys := t.Vals[1 : 1+f.nkeys]
	h := uint64(bucket) * 1099511628211
	for _, k := range keys {
		h ^= k.Hash()
		h *= 1099511628211
	}
	var grp *fgroup
	for _, cand := range f.groups[h] {
		if cand.bucket == bucket && keysEqual(cand.keys, keys) {
			grp = cand
			break
		}
	}
	if grp == nil {
		grp = &fgroup{bucket: bucket, keys: append([]tuple.Value(nil), keys...),
			states: make([]Partializable, len(f.aggs))}
		for i, a := range f.aggs {
			grp.states[i] = a.Fn.New().(Partializable)
		}
		f.groups[h] = append(f.groups[h], grp)
		f.n++
	}
	off := 1 + f.nkeys
	for i := range f.aggs {
		arity := len(grp.states[i].PartialKinds())
		if err := grp.states[i].MergePartial(t.Vals[off : off+arity]); err != nil {
			f.mergeErrs++
		}
		off += arity
	}
	// Buckets strictly older than the incoming partial's bucket are
	// complete once the low level has moved on.
	if bucket > f.watermk {
		f.advance(bucket, emit)
	}
}

func (f *FinalAgg) advance(now int64, emit ops.Emit) {
	if now <= f.watermk {
		return
	}
	f.watermk = now
	for h, chain := range f.groups {
		keep := chain[:0]
		for _, grp := range chain {
			if grp.bucket < now {
				f.emitGroup(grp, emit)
				f.n--
			} else {
				keep = append(keep, grp)
			}
		}
		if len(keep) == 0 {
			delete(f.groups, h)
		} else {
			f.groups[h] = keep
		}
	}
}

func (f *FinalAgg) emitGroup(grp *fgroup, emit ops.Emit) {
	vals := []tuple.Value{tuple.Time(grp.bucket)}
	vals = append(vals, grp.keys...)
	for _, st := range grp.states {
		vals = append(vals, st.Result())
	}
	f.emitted++
	emit(stream.Tup(tuple.New(grp.bucket, vals...)))
}

// Flush implements ops.Operator.
func (f *FinalAgg) Flush(emit ops.Emit) {
	for _, chain := range f.groups {
		for _, grp := range chain {
			f.emitGroup(grp, emit)
		}
	}
	f.groups = make(map[uint64][]*fgroup)
	f.n = 0
}

// MemSize implements ops.Operator.
func (f *FinalAgg) MemSize() int {
	n := 64
	for _, chain := range f.groups {
		for _, grp := range chain {
			n += 32
			for _, k := range grp.keys {
				n += k.MemSize()
			}
			for _, st := range grp.states {
				n += st.MemSize()
			}
		}
	}
	return n
}

// Groups reports the number of live final groups.
func (f *FinalAgg) Groups() int { return f.n }

// Emitted reports final rows produced.
func (f *FinalAgg) Emitted() int64 { return f.emitted }

// MergeErrors reports partial records that failed to merge (malformed
// input, e.g. a stream not produced by the matching PartialAgg).
func (f *FinalAgg) MergeErrors() int64 { return f.mergeErrs }
