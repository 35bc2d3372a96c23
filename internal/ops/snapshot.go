package ops

// Checkpoint support (ckpt.Snapshotter) for the physical operators.
// Snapshot captures an operator's complete logical state; Restore reads
// it back into a freshly constructed operator of identical
// configuration. The contract in both directions is exactness: a
// restored operator must produce byte-identical output to one that
// never stopped, so restore paths rebuild state through raw structure
// writes (ring pushes, partition appends) rather than the normal insert
// paths, whose sweeps and evictions would perturb the physical layout
// mid-rebuild.

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"streamdb/internal/ckpt"
	"streamdb/internal/tuple"
)

// appendXTuple writes one tuple in the spill-file record format
// (varint ats | varint dts | self-describing tuple) shared with
// spillLargest.
func appendXTuple(buf []byte, xt xtuple) []byte {
	buf = binary.AppendVarint(buf, xt.ats)
	buf = binary.AppendVarint(buf, xt.dts)
	return tuple.AppendEncode(buf, xt.t)
}

// Snapshot implements ckpt.Snapshotter. Each side's window is captured
// as a schema-coded tuple batch in ring (insertion) order plus the
// watermark scalars; the key-chain index is NOT serialized — for
// JoinHash sides it always links exactly the ring's rows in insertion
// order, so Restore rebuilds it.
func (j *WindowJoin) Snapshot(enc *ckpt.Encoder) error {
	enc.Varint(j.probes)
	enc.Varint(j.emitted)
	enc.Varint(j.received[0])
	enc.Varint(j.received[1])
	schemas := [2]*tuple.Schema{j.leftSch, j.rightSch}
	for i, s := range j.sides {
		if err := enc.TupleBatch(schemas[i], s.tuples()); err != nil {
			return fmt.Errorf("ops: snapshot %s side %d: %w", j.name, i, err)
		}
		enc.Varint(s.wm)
		enc.Bool(s.sorted)
		enc.Varint(s.lastIns)
		enc.Int(s.pendingWM)
		enc.Varint(s.expired)
		enc.Varint(s.evicted)
	}
	return nil
}

// tuples copies the side's live rows out of the ring, oldest first.
func (s *sideState) tuples() []*tuple.Tuple {
	r := s.ring
	n, arity := r.Len(), r.Arity()
	rows := make([]tuple.Tuple, n)
	vals := make([]tuple.Value, n*arity)
	out := make([]*tuple.Tuple, n)
	for i := range rows {
		rows[i].Vals = vals[i*arity : (i+1)*arity : (i+1)*arity]
		r.Row(r.Head()+int64(i), &rows[i])
		out[i] = &rows[i]
	}
	return out
}

// Restore implements ckpt.Snapshotter on a freshly built WindowJoin.
// Rows are re-pushed raw: no sweep, no eviction, no watermark advance —
// the snapshot already reflects all of those.
func (j *WindowJoin) Restore(dec *ckpt.Decoder) error {
	j.probes = dec.Varint()
	j.emitted = dec.Varint()
	j.received[0] = dec.Varint()
	j.received[1] = dec.Varint()
	schemas := [2]*tuple.Schema{j.leftSch, j.rightSch}
	for i, s := range j.sides {
		if s.ring.Len() != 0 {
			return fmt.Errorf("ops: restore %s side %d: window not empty", j.name, i)
		}
		s.pushRaw(dec.TupleBatch(schemas[i]))
		s.wm = dec.Varint()
		s.sorted = dec.Bool()
		s.lastIns = dec.Varint()
		s.pendingWM = dec.Int()
		s.expired = dec.Varint()
		s.evicted = dec.Varint()
	}
	return dec.Err()
}

// pushRaw appends tuples to the side's ring as they are: no sweep, no
// eviction, no watermark advance.
func (s *sideState) pushRaw(ts []*tuple.Tuple) {
	for _, t := range ts {
		var h uint64
		if s.method == JoinHash {
			h = s.hashOf(t)
		}
		s.ring.PushTuple(h, t)
	}
}

// encodeXTuples writes one partition phase (memory or disk) as the
// ats/dts interval pairs followed by the tuples themselves in the
// schema-coded batch encoding.
func encodeXTuples(enc *ckpt.Encoder, sch *tuple.Schema, xs []xtuple) error {
	enc.Uvarint(uint64(len(xs)))
	ts := make([]*tuple.Tuple, len(xs))
	for i, xt := range xs {
		enc.Varint(xt.ats)
		enc.Varint(xt.dts)
		ts[i] = xt.t
	}
	return enc.TupleBatch(sch, ts)
}

func decodeXTuples(dec *ckpt.Decoder, sch *tuple.Schema) ([]xtuple, error) {
	n := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	type iv struct{ ats, dts int64 }
	ivs := make([]iv, n)
	for i := range ivs {
		ivs[i] = iv{dec.Varint(), dec.Varint()}
	}
	ts := dec.TupleBatch(sch)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if len(ts) != len(ivs) {
		return nil, fmt.Errorf("ops: xjoin snapshot has %d intervals for %d tuples", len(ivs), len(ts))
	}
	out := make([]xtuple, n)
	for i := range out {
		out[i] = xtuple{t: ts[i], ats: ivs[i].ats, dts: ivs[i].dts}
	}
	return out, nil
}

// Snapshot implements ckpt.Snapshotter. Both phases of every partition
// are captured — the in-memory xtuples AND the spilled disk tuples
// (read back through loadPart), because spill files live in a temp
// directory that does not survive the crash the checkpoint is for.
func (x *XJoin) Snapshot(enc *ckpt.Encoder) error {
	enc.Varint(x.seq)
	enc.Int(x.inMem)
	enc.Int(x.nparts)
	enc.Varint(x.emitted)
	enc.Varint(x.spills)
	enc.Varint(x.spilledTs)
	enc.Varint(x.diskBytes)
	enc.Bool(x.cleaned)
	schemas := [2]*tuple.Schema{x.leftSch, x.rightSch}
	for s := 0; s < 2; s++ {
		for p := 0; p < x.nparts; p++ {
			part := x.parts[s][p]
			if err := encodeXTuples(enc, schemas[s], part.mem); err != nil {
				return fmt.Errorf("ops: snapshot %s: %w", x.name, err)
			}
			disk, err := x.loadPart(part)
			if err != nil {
				return fmt.Errorf("ops: snapshot %s: %w", x.name, err)
			}
			if err := encodeXTuples(enc, schemas[s], disk); err != nil {
				return fmt.Errorf("ops: snapshot %s: %w", x.name, err)
			}
		}
	}
	return nil
}

// Restore implements ckpt.Snapshotter on a freshly built XJoin of
// identical configuration. Disk-phase tuples are re-spilled to fresh
// files under the new instance's directory, preserving their original
// residency intervals so the cleanup phase's overlap rule still
// deduplicates exactly.
func (x *XJoin) Restore(dec *ckpt.Decoder) error {
	x.seq = dec.Varint()
	x.inMem = dec.Int()
	if n := dec.Int(); n != x.nparts {
		return fmt.Errorf("ops: restore %s: snapshot has %d partitions, operator has %d", x.name, n, x.nparts)
	}
	x.emitted = dec.Varint()
	x.spills = dec.Varint()
	x.spilledTs = dec.Varint()
	x.diskBytes = dec.Varint()
	x.cleaned = dec.Bool()
	schemas := [2]*tuple.Schema{x.leftSch, x.rightSch}
	for s := 0; s < 2; s++ {
		for p := 0; p < x.nparts; p++ {
			part := x.parts[s][p]
			mem, err := decodeXTuples(dec, schemas[s])
			if err != nil {
				return err
			}
			part.mem = mem
			disk, err := decodeXTuples(dec, schemas[s])
			if err != nil {
				return err
			}
			if len(disk) > 0 {
				if err := x.respill(part, disk); err != nil {
					return fmt.Errorf("ops: restore %s: %w", x.name, err)
				}
			}
		}
	}
	return dec.Err()
}

// respill writes restored disk-phase tuples into a fresh spill file.
func (x *XJoin) respill(p *xpart, disk []xtuple) error {
	f, err := os.CreateTemp(x.dir, "part")
	if err != nil {
		return err
	}
	var buf []byte
	for _, xt := range disk {
		buf = appendXTuple(buf, xt)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	p.file = f
	p.n = int64(len(disk))
	return nil
}

// Snapshot implements ckpt.Snapshotter: selection is stateless apart
// from its observation counters.
func (s *Select) Snapshot(enc *ckpt.Encoder) error {
	enc.Varint(s.in)
	enc.Varint(s.out)
	return nil
}

// Restore implements ckpt.Snapshotter.
func (s *Select) Restore(dec *ckpt.Decoder) error {
	s.in = dec.Varint()
	s.out = dec.Varint()
	return dec.Err()
}

// Snapshot implements ckpt.Snapshotter: projection holds no state.
func (p *Project) Snapshot(*ckpt.Encoder) error { return nil }

// Restore implements ckpt.Snapshotter.
func (p *Project) Restore(*ckpt.Decoder) error { return nil }

// Snapshot implements ckpt.Snapshotter. The seen table is flattened in
// deterministic (hash-sorted, bucket-order) layout; hashes are
// recomputed on restore from the key columns.
func (d *DupElim) Snapshot(enc *ckpt.Encoder) error {
	enc.Varint(d.winEnd)
	enc.Int(d.bytes)
	hs := make([]uint64, 0, len(d.seen))
	for h := range d.seen {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	var flat []*tuple.Tuple
	for _, h := range hs {
		flat = append(flat, d.seen[h]...)
	}
	return enc.TupleBatch(d.sch, flat)
}

// Restore implements ckpt.Snapshotter.
func (d *DupElim) Restore(dec *ckpt.Decoder) error {
	d.winEnd = dec.Varint()
	d.bytes = dec.Int()
	d.seen = make(map[uint64][]*tuple.Tuple)
	for _, t := range dec.TupleBatch(d.sch) {
		h := t.Key(d.keyIdx)
		d.seen[h] = append(d.seen[h], t)
	}
	return dec.Err()
}
