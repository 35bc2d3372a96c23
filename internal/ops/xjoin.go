package ops

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync/atomic"

	"streamdb/internal/expr"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// XJoin extends the symmetric hash join with memory-overflow processing
// [UF00] (slide 31): "overflowing inputs spilled to disk for later
// evaluation". State is hash-partitioned; when the in-memory tuple count
// exceeds the budget, the largest partition is flushed to a disk file.
// A cleanup phase at end-of-stream joins spilled tuples exactly once,
// using XJoin's arrival/departure interval rule to avoid duplicates:
// a pair was already joined in the memory phase iff the two tuples'
// residency intervals overlapped.
type XJoin struct {
	name      string
	out       *tuple.Schema
	leftSch   *tuple.Schema
	rightSch  *tuple.Schema
	keys      [2][]int
	residual  expr.Expr
	nparts    int
	budget    int // max in-memory tuples across both sides
	seq       int64
	inMem     int
	parts     [2][]*xpart
	dir       string
	emitted   int64
	spills    int64
	spilledTs int64 // tuples written to disk
	diskBytes int64
	cleaned   bool
	ownsDir   bool
	// parent is set on partition replicas: Stats counters fold into it
	// at the end of Flush's cleanup phase.
	parent *XJoin

	// Columnar state (joincol.go). outCols is the identity column map:
	// XJoin always emits the full (left, right) concatenation.
	colPool *stream.ColPool
	colKern expr.ColumnKernel
	col     colJoinScratch
	outCols []int
}

type xtuple struct {
	t        *tuple.Tuple
	ats, dts int64 // residency interval [ats, dts)
}

type xpart struct {
	mem  []xtuple
	file *os.File
	n    int64 // tuples on disk
}

// NewXJoin builds an XJoin with the given equijoin keys, number of hash
// partitions, and in-memory tuple budget. Spill files live in dir
// (created with os.MkdirTemp when empty).
func NewXJoin(name string, left, right *tuple.Schema, leftKey, rightKey []int, nparts, budget int, residual expr.Expr, dir string) (*XJoin, error) {
	if len(leftKey) == 0 || len(leftKey) != len(rightKey) {
		return nil, fmt.Errorf("ops: xjoin requires matching equijoin keys")
	}
	if nparts <= 0 {
		nparts = 16
	}
	if budget <= 0 {
		budget = 1 << 16
	}
	ownsDir := false
	if dir == "" {
		d, err := os.MkdirTemp("", "xjoin")
		if err != nil {
			return nil, fmt.Errorf("ops: xjoin temp dir: %w", err)
		}
		dir = d
		ownsDir = true
	}
	x := &XJoin{
		name:     name,
		out:      left.Concat(right),
		outCols:  identityCols(left.Arity() + right.Arity()),
		leftSch:  left,
		rightSch: right,
		keys:     [2][]int{leftKey, rightKey},
		residual: residual,
		nparts:   nparts,
		budget:   budget,
		dir:      dir,
		ownsDir:  ownsDir,
	}
	for s := 0; s < 2; s++ {
		x.parts[s] = make([]*xpart, nparts)
		for p := range x.parts[s] {
			x.parts[s][p] = &xpart{}
		}
	}
	return x, nil
}

// Name implements Operator.
func (x *XJoin) Name() string { return x.name }

// OutSchema implements Operator.
func (x *XJoin) OutSchema() *tuple.Schema { return x.out }

// NumInputs implements Operator.
func (x *XJoin) NumInputs() int { return 2 }

// Push implements Operator (stage 1: memory-to-memory joining).
func (x *XJoin) Push(port int, e stream.Element, emit Emit) {
	if e.IsPunct() || port < 0 || port > 1 {
		return
	}
	t := e.Tuple
	x.seq++
	h := t.Key(x.keys[port])
	p := int(h % uint64(x.nparts))

	// Probe the opposite in-memory partition.
	for _, cand := range x.parts[1-port][p].mem {
		if cand.t.KeyEqual(t, x.keys[1-port], x.keys[port]) {
			x.emitPair(port, t, cand.t, emit)
		}
	}

	// Insert into own partition.
	x.parts[port][p].mem = append(x.parts[port][p].mem, xtuple{t: t, ats: x.seq, dts: math.MaxInt64})
	x.inMem++
	if x.inMem > x.budget {
		x.spillLargest()
	}
}

// spillLargest flushes the largest in-memory partition to its disk file,
// stamping departure times.
func (x *XJoin) spillLargest() {
	var best *xpart
	bestLen := 0
	for s := 0; s < 2; s++ {
		for _, p := range x.parts[s] {
			if len(p.mem) > bestLen {
				best, bestLen = p, len(p.mem)
			}
		}
	}
	if best == nil || bestLen == 0 {
		return
	}
	if best.file == nil {
		f, err := os.CreateTemp(x.dir, "part")
		if err != nil {
			// Disk unavailable: degrade by keeping tuples in memory.
			return
		}
		best.file = f
	}
	var buf []byte
	for _, xt := range best.mem {
		// The spill happens after processing arrival x.seq, so these
		// tuples were resident for every arrival <= x.seq: the
		// half-open residency interval ends at x.seq+1.
		xt.dts = x.seq + 1
		buf = binary.AppendVarint(buf, xt.ats)
		buf = binary.AppendVarint(buf, xt.dts)
		buf = tuple.AppendEncode(buf, xt.t)
		best.n++
	}
	if _, err := best.file.Write(buf); err != nil {
		best.n -= int64(len(best.mem))
		return
	}
	x.diskBytes += int64(len(buf))
	x.spilledTs += int64(len(best.mem))
	x.inMem -= len(best.mem)
	best.mem = best.mem[:0]
	x.spills++
}

func (x *XJoin) emitPair(port int, arrived, matched *tuple.Tuple, emit Emit) {
	var out *tuple.Tuple
	if port == 0 {
		out = arrived.Concat(matched)
	} else {
		out = matched.Concat(arrived)
	}
	if x.residual != nil && !expr.EvalBool(x.residual, out) {
		return
	}
	x.emitted++
	emit(stream.Tup(out))
}

// loadPart reads a partition's disk tuples back.
func (x *XJoin) loadPart(p *xpart) ([]xtuple, error) {
	if p.file == nil || p.n == 0 {
		return nil, nil
	}
	info, err := p.file.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, info.Size())
	if _, err := p.file.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	var out []xtuple
	off := 0
	for off < len(buf) {
		ats, n := binary.Varint(buf[off:])
		if n <= 0 {
			return nil, fmt.Errorf("ops: corrupt spill file")
		}
		off += n
		dts, n := binary.Varint(buf[off:])
		if n <= 0 {
			return nil, fmt.Errorf("ops: corrupt spill file")
		}
		off += n
		t, n, err := tuple.Decode(buf[off:])
		if err != nil {
			return nil, err
		}
		off += n
		out = append(out, xtuple{t: t, ats: ats, dts: dts})
	}
	return out, nil
}

// Flush implements Operator: the cleanup phase (stage 3). For every
// partition it joins (disk ∪ memory) × (disk ∪ memory) pairs whose
// residency intervals did NOT overlap — overlapping pairs were already
// produced by the memory phase.
func (x *XJoin) Flush(emit Emit) {
	if x.cleaned {
		return
	}
	x.cleaned = true
	for p := 0; p < x.nparts; p++ {
		lp, rp := x.parts[0][p], x.parts[1][p]
		if lp.n == 0 && rp.n == 0 {
			continue // nothing spilled: memory phase was complete
		}
		ldisk, lerr := x.loadPart(lp)
		rdisk, rerr := x.loadPart(rp)
		if lerr != nil || rerr != nil {
			continue
		}
		lefts := append(ldisk, lp.mem...)
		rights := append(rdisk, rp.mem...)
		for _, lt := range lefts {
			for _, rt := range rights {
				if overlap(lt, rt) {
					continue // already joined in memory phase
				}
				if !lt.t.KeyEqual(rt.t, x.keys[0], x.keys[1]) {
					continue
				}
				out := lt.t.Concat(rt.t)
				if x.residual != nil && !expr.EvalBool(x.residual, out) {
					continue
				}
				x.emitted++
				emit(stream.Tup(out))
			}
		}
	}
	x.Close()
	if p := x.parent; p != nil {
		// Partition replica: fold counters into the original. Atomic
		// because sibling replicas flush concurrently; guarded by
		// `cleaned` above, so the fold happens once.
		atomic.AddInt64(&p.emitted, x.emitted)
		atomic.AddInt64(&p.spills, x.spills)
		atomic.AddInt64(&p.spilledTs, x.spilledTs)
		atomic.AddInt64(&p.diskBytes, x.diskBytes)
	}
}

// CanPartition implements KeyPartitionable: XJoin state is per-key
// throughout (hash partitions, spill files, residency intervals), and
// the cleanup phase makes each replica's output complete for its key
// slice, so key partitioning is always exact up to output order.
func (x *XJoin) CanPartition() bool { return true }

// PartitionHash implements KeyPartitionable with the same key hash the
// operator's own partitions use.
func (x *XJoin) PartitionHash(port int, t *tuple.Tuple) uint64 {
	return t.Key(x.keys[port])
}

// ClonePartition implements KeyPartitionable. Each replica gets its own
// spill directory and the full memory budget: the budget models one
// worker's memory, and replicas are exactly that.
func (x *XJoin) ClonePartition() Operator {
	c, err := NewXJoin(x.name, x.leftSch, x.rightSch, x.keys[0], x.keys[1],
		x.nparts, x.budget, x.residual, "")
	if err != nil {
		// Only temp-dir creation can fail here; surface it through the
		// engine's panic-isolation boundary.
		panic(fmt.Sprintf("ops: xjoin partition clone: %v", err))
	}
	c.parent = x
	return c
}

func overlap(a, b xtuple) bool {
	lo := a.ats
	if b.ats > lo {
		lo = b.ats
	}
	hi := a.dts
	if b.dts < hi {
		hi = b.dts
	}
	return lo < hi
}

// Close releases spill files (and the temp directory when XJoin
// created it).
func (x *XJoin) Close() {
	for s := 0; s < 2; s++ {
		for _, p := range x.parts[s] {
			if p.file != nil {
				name := p.file.Name()
				p.file.Close()
				os.Remove(name)
				p.file = nil
			}
		}
	}
	if x.ownsDir {
		os.Remove(x.dir)
		x.ownsDir = false
	}
}

// MemSize implements Operator.
func (x *XJoin) MemSize() int {
	n := 256
	for s := 0; s < 2; s++ {
		for _, p := range x.parts[s] {
			for _, xt := range p.mem {
				n += xt.t.MemSize() + 16
			}
		}
	}
	return n
}

// Stats reports XJoin introspection counters.
func (x *XJoin) Stats() (emitted, spills, spilledTuples, diskBytes int64) {
	return x.emitted, x.spills, x.spilledTs, x.diskBytes
}
