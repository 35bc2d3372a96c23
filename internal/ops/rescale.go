package ops

// Rescale support: rebuilding a key-partitioned replica set at a new
// width P' from the Snapshot sections of the old replicas. The engine
// quiesces the old replicas at a punctuation-aligned safe point,
// snapshots each one, and hands every new replica the full section set;
// RestorePartition keeps exactly the tuples whose partition hash maps
// to the new replica under hash % P'. Because all tuples of one key
// lived in one old replica and land in one new replica, per-key state
// and per-probe match order survive the re-split exactly (for streams
// whose per-key timestamps are monotone; otherwise output is
// multiset-identical).

import (
	"fmt"
	"os"
	"sort"

	"streamdb/internal/ckpt"
	"streamdb/internal/tuple"
)

// StateRescaler is implemented by key-partitionable operators whose
// replica state can be redistributed to a different partition count.
// sections holds one Snapshot per old replica (nil/empty entries are
// skipped); the receiver becomes replica k of p. Fold-once counters
// (probes, emitted, spills, ...) are assigned in full to replica 0 so
// replica-sum invariants survive the rescale.
type StateRescaler interface {
	KeyPartitionable
	RestorePartition(sections [][]byte, k, p int) error
}

// wjSection is one old replica's decoded WindowJoin snapshot.
type wjSection struct {
	probes, emitted  int64
	received         [2]int64
	tuples           [2][]*tuple.Tuple
	wm, lastIns      [2]int64
	sorted           [2]bool
	pendingWM        [2]int
	expired, evicted [2]int64
}

// RestorePartition implements StateRescaler on a freshly built
// WindowJoin (normally a ClonePartition of the parent).
func (j *WindowJoin) RestorePartition(sections [][]byte, k, p int) error {
	if p <= 0 || k < 0 || k >= p {
		return fmt.Errorf("ops: rescale %s: replica %d of %d", j.name, k, p)
	}
	if j.sides[0].ring.Len() != 0 || j.sides[1].ring.Len() != 0 {
		return fmt.Errorf("ops: rescale %s: window not empty", j.name)
	}
	schemas := [2]*tuple.Schema{j.leftSch, j.rightSch}
	var secs []wjSection
	for si, raw := range sections {
		if len(raw) == 0 {
			continue
		}
		dec := ckpt.NewDecoder(raw)
		var sec wjSection
		sec.probes = dec.Varint()
		sec.emitted = dec.Varint()
		sec.received[0] = dec.Varint()
		sec.received[1] = dec.Varint()
		for i := 0; i < 2; i++ {
			sec.tuples[i] = dec.TupleBatch(schemas[i])
			sec.wm[i] = dec.Varint()
			sec.sorted[i] = dec.Bool()
			sec.lastIns[i] = dec.Varint()
			sec.pendingWM[i] = dec.Int()
			sec.expired[i] = dec.Varint()
			sec.evicted[i] = dec.Varint()
		}
		if err := dec.Err(); err != nil {
			return fmt.Errorf("ops: rescale %s: section %d: %w", j.name, si, err)
		}
		secs = append(secs, sec)
	}
	if len(secs) == 0 {
		return nil
	}
	for i, s := range j.sides {
		// Gather this replica's share of every old window, then merge by
		// timestamp. The sort is stable over section-concatenation order,
		// so each key's internal order (one section) is preserved.
		var mine []*tuple.Tuple
		for _, sec := range secs {
			for _, t := range sec.tuples[i] {
				if j.PartitionHash(i, t)%uint64(p) == uint64(k) {
					mine = append(mine, t)
				}
			}
		}
		sort.SliceStable(mine, func(a, b int) bool { return mine[a].Ts < mine[b].Ts })
		s.pushRaw(mine)
		// Watermarks advanced in lockstep across old replicas (punctuation
		// broadcast); max is exact when equal and safe when not.
		s.wm = secs[0].wm[i]
		s.sorted = true
		s.lastIns = secs[0].lastIns[i]
		s.pendingWM = 0
		for _, sec := range secs {
			if sec.wm[i] > s.wm {
				s.wm = sec.wm[i]
			}
			if sec.lastIns[i] > s.lastIns {
				s.lastIns = sec.lastIns[i]
			}
			s.sorted = s.sorted && sec.sorted[i]
			s.pendingWM += sec.pendingWM[i]
		}
		if k == 0 {
			for _, sec := range secs {
				s.expired += sec.expired[i]
				s.evicted += sec.evicted[i]
			}
		}
	}
	if k == 0 {
		for _, sec := range secs {
			j.probes += sec.probes
			j.emitted += sec.emitted
			j.received[0] += sec.received[0]
			j.received[1] += sec.received[1]
		}
	}
	return nil
}

// RestorePartition implements StateRescaler on a freshly built XJoin of
// identical configuration (nparts, budget, keys). Old replicas' arrival
// sequences are kept as-is: tuples that can key-match always came from
// the same old replica, so the residency-interval dedup rule of the
// cleanup phase still compares sequences from one counter.
func (x *XJoin) RestorePartition(sections [][]byte, k, p int) error {
	if p <= 0 || k < 0 || k >= p {
		return fmt.Errorf("ops: rescale %s: replica %d of %d", x.name, k, p)
	}
	schemas := [2]*tuple.Schema{x.leftSch, x.rightSch}
	any := false
	allCleaned := true
	for si, raw := range sections {
		if len(raw) == 0 {
			continue
		}
		dec := ckpt.NewDecoder(raw)
		seq := dec.Varint()
		dec.Int() // inMem: recomputed below from kept tuples
		if n := dec.Int(); n != x.nparts {
			return fmt.Errorf("ops: rescale %s: section %d has %d partitions, operator has %d", x.name, si, n, x.nparts)
		}
		emitted := dec.Varint()
		spills := dec.Varint()
		spilledTs := dec.Varint()
		dec.Varint() // diskBytes: recomputed by respill below
		cleaned := dec.Bool()
		for s := 0; s < 2; s++ {
			for pi := 0; pi < x.nparts; pi++ {
				mem, err := decodeXTuples(dec, schemas[s])
				if err != nil {
					return fmt.Errorf("ops: rescale %s: section %d: %w", x.name, si, err)
				}
				disk, err := decodeXTuples(dec, schemas[s])
				if err != nil {
					return fmt.Errorf("ops: rescale %s: section %d: %w", x.name, si, err)
				}
				part := x.parts[s][pi]
				for _, xt := range mem {
					if xt.t.Key(x.keys[s])%uint64(p) == uint64(k) {
						part.mem = append(part.mem, xt)
						x.inMem++
					}
				}
				var keepDisk []xtuple
				for _, xt := range disk {
					if xt.t.Key(x.keys[s])%uint64(p) == uint64(k) {
						keepDisk = append(keepDisk, xt)
					}
				}
				if len(keepDisk) > 0 {
					if err := x.respillMore(part, keepDisk); err != nil {
						return fmt.Errorf("ops: rescale %s: %w", x.name, err)
					}
				}
			}
		}
		if err := dec.Err(); err != nil {
			return fmt.Errorf("ops: rescale %s: section %d: %w", x.name, si, err)
		}
		if seq > x.seq {
			x.seq = seq
		}
		allCleaned = allCleaned && cleaned
		if k == 0 {
			x.emitted += emitted
			x.spills += spills
			x.spilledTs += spilledTs
		}
		any = true
	}
	if any {
		x.cleaned = allCleaned
	}
	return nil
}

// respillMore appends restored disk-phase tuples to a partition's spill
// file, creating it on first use (a rescale may merge disk phases from
// several old replicas into one partition).
func (x *XJoin) respillMore(part *xpart, disk []xtuple) error {
	if part.file == nil {
		f, err := os.CreateTemp(x.dir, "part")
		if err != nil {
			return err
		}
		part.file = f
	}
	var buf []byte
	for _, xt := range disk {
		buf = appendXTuple(buf, xt)
	}
	if _, err := part.file.Write(buf); err != nil {
		return err
	}
	part.n += int64(len(disk))
	x.diskBytes += int64(len(buf))
	return nil
}
