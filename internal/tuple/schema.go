package tuple

import (
	"fmt"
	"strings"
)

// Field describes one attribute of a schema.
type Field struct {
	Name string
	Kind Kind
	// Bounded marks attributes with a bounded domain (e.g. protocol,
	// packet length after a range predicate). The bounded-memory analysis
	// of [ABB+02] (slides 35-36) keys off this flag.
	Bounded bool
	// Ordering marks the attribute the stream is ordered by (slide 17:
	// "ordering domains" as in Gigascope/Hancock). At most one field of a
	// schema is the ordering attribute.
	Ordering bool
}

// Schema is an ordered list of fields plus a name. Schemas are immutable
// once built; operators derive new schemas rather than mutating.
type Schema struct {
	Name   string
	Fields []Field
	byName map[string]int
}

// NewSchema builds a schema, indexing fields by name. Duplicate field
// names or multiple ordering attributes panic: schemas are authored by
// code or validated by the parser before reaching here.
func NewSchema(name string, fields ...Field) *Schema {
	s := &Schema{Name: name, Fields: fields, byName: make(map[string]int, len(fields))}
	ordering := 0
	for i, f := range fields {
		if _, dup := s.byName[f.Name]; dup {
			panic(fmt.Sprintf("tuple: duplicate field %q in schema %q", f.Name, name))
		}
		s.byName[f.Name] = i
		if f.Ordering {
			ordering++
		}
	}
	if ordering > 1 {
		panic(fmt.Sprintf("tuple: schema %q has %d ordering attributes", name, ordering))
	}
	return s
}

// Index returns the position of the named field, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Field returns the named field and whether it exists.
func (s *Schema) Field(name string) (Field, bool) {
	i := s.Index(name)
	if i < 0 {
		return Field{}, false
	}
	return s.Fields[i], true
}

// OrderingIndex returns the position of the ordering attribute, or -1 if
// the stream is only position-ordered (slide 17: Aurora/STREAM style).
func (s *Schema) OrderingIndex() int {
	for i, f := range s.Fields {
		if f.Ordering {
			return i
		}
	}
	return -1
}

// Arity returns the number of fields.
func (s *Schema) Arity() int { return len(s.Fields) }

// Project derives a schema containing the named fields in order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	fields := make([]Field, 0, len(names))
	for _, n := range names {
		f, ok := s.Field(n)
		if !ok {
			return nil, fmt.Errorf("tuple: schema %q has no field %q", s.Name, n)
		}
		fields = append(fields, f)
	}
	return NewSchema(s.Name, fields...), nil
}

// Concat derives the schema of a join result. Colliding names are
// disambiguated with the source schema name ("S.tstmp").
func (s *Schema) Concat(o *Schema) *Schema {
	fields := make([]Field, 0, len(s.Fields)+len(o.Fields))
	seen := make(map[string]bool, len(s.Fields))
	for _, f := range s.Fields {
		seen[f.Name] = true
		fields = append(fields, f)
	}
	for _, f := range o.Fields {
		if seen[f.Name] {
			f.Name = o.Name + "." + f.Name
		}
		// The join result is not guaranteed ordered on either input's
		// ordering attribute.
		f.Ordering = false
		fields = append(fields, f)
	}
	return NewSchema(s.Name+"_"+o.Name, fields...)
}

// String renders the schema as "name(field TYPE, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(f.Kind.String())
		if f.Ordering {
			b.WriteString(" ORDERING")
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one stream element's data: a timestamp (the system ordering
// position, in virtual nanoseconds) and one value per schema field.
type Tuple struct {
	// Ts is the tuple's position in the stream's order: either the value
	// of the ordering attribute or the arrival position for
	// position-ordered streams (slide 17).
	Ts   int64
	Vals []Value
}

// New constructs a tuple.
func New(ts int64, vals ...Value) *Tuple { return &Tuple{Ts: ts, Vals: vals} }

// Clone deep-copies the tuple (values are immutable so a shallow value
// copy suffices).
func (t *Tuple) Clone() *Tuple {
	vals := make([]Value, len(t.Vals))
	copy(vals, t.Vals)
	return &Tuple{Ts: t.Ts, Vals: vals}
}

// Concat builds the join output tuple; the result carries the later of
// the two timestamps, matching window-join semantics [KNV03].
func (t *Tuple) Concat(o *Tuple) *Tuple {
	ts := t.Ts
	if o.Ts > ts {
		ts = o.Ts
	}
	vals := make([]Value, 0, len(t.Vals)+len(o.Vals))
	vals = append(vals, t.Vals...)
	vals = append(vals, o.Vals...)
	return &Tuple{Ts: ts, Vals: vals}
}

// MemSize approximates the tuple's memory footprint in bytes; the
// memory-based optimizer (slide 42) charges queue backlog with it.
func (t *Tuple) MemSize() int {
	n := 16
	for _, v := range t.Vals {
		n += v.MemSize()
	}
	return n
}

// String renders the tuple as "(v1, v2, ...)@ts".
func (t *Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t.Vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	fmt.Fprintf(&b, ")@%d", t.Ts)
	return b.String()
}

// Key computes a composite hash over the listed field positions: the
// group-by and join-key identity used by hash tables.
func (t *Tuple) Key(idx []int) uint64 {
	h := uint64(1469598103934665603)
	for _, i := range idx {
		vh := t.Vals[i].Hash()
		h ^= vh
		h *= 1099511628211
	}
	return h
}

// FastKeyKind reports whether a single-column key of this kind may be
// hashed with Key1: kinds whose raw payload alone determines equality
// among themselves and across each other (Int, Uint, Time and IP all
// store their integral value in the payload, and integral values that
// are Equal share it). IP is in because IP equality is payload
// equality and join key checks only ever pair IP with IP, so both
// sides of an IP join hash in one space. Float is excluded — integral
// floats must collide with their integer value, which needs the
// generic path — and so are String and Bool, whose equality is not
// the numeric payload's.
func FastKeyKind(k Kind) bool {
	return k == KindInt || k == KindUint || k == KindTime || k == KindIP
}

// Key1 is the fast lane of Key for a single Int/Uint/Time/IP column: a
// splitmix64-style avalanche of the raw payload, skipping the generic
// byte-wise FNV walk. Callers must establish FastKeyKind for the
// column's schema kind on every tuple source sharing the hash space
// (both sides of a join): equal values then hash identically. A NULL
// value hashes as payload 0; NULL equals nothing, so a collision with
// Int(0) costs one KeyEqual rejection, never a wrong match.
func (t *Tuple) Key1(i int) uint64 {
	return splitmix64(t.Vals[i].num)
}

func splitmix64(v uint64) uint64 {
	x := v + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashCol is the column-kernel form of Key1: it writes the payload hash
// of every value of col into the parallel out slice, whose length must
// be at least len(col). The loop body is pure integer arithmetic — no
// branches, no per-row dispatch — so a batch's key column hashes in one
// sweep. The FastKeyKind gating contract of Key1 applies unchanged.
func HashCol(col []Value, out []uint64) {
	_ = out[:len(col)]
	for r := range col {
		out[r] = splitmix64(col[r].num)
	}
}

// HashColRows is HashCol restricted to the listed row indexes: out[i]
// receives the hash of col[rows[i]]. len(out) must be >= len(rows).
func HashColRows(col []Value, rows []int32, out []uint64) {
	_ = out[:len(rows)]
	for i, r := range rows {
		out[i] = splitmix64(col[r].num)
	}
}

// HashColsRows is the generic-key column form of Key: for each listed
// row it FNV-combines Value.Hash over the key columns (cols[keys[0]],
// cols[keys[1]], ...), writing into the parallel out slice. It matches
// Tuple.Key(keys) exactly for tuples gathered from the same columns.
func HashColsRows(cols [][]Value, keys []int, rows []int32, out []uint64) {
	_ = out[:len(rows)]
	for i, r := range rows {
		h := uint64(1469598103934665603)
		for _, c := range keys {
			h ^= cols[c][r].Hash()
			h *= 1099511628211
		}
		out[i] = h
	}
}

// KeyEqual reports whether two tuples agree on the listed field positions
// (hash-collision confirmation for hash tables).
func (t *Tuple) KeyEqual(o *Tuple, idx, odx []int) bool {
	for k := range idx {
		if !t.Vals[idx[k]].Equal(o.Vals[odx[k]]) {
			return false
		}
	}
	return true
}
