// Package streamdb is a data stream management system (DSMS) in pure
// Go, reproducing the system design surveyed in "Data Stream Query
// Processing" (Koudas & Srivastava, ICDE 2005).
//
// It provides:
//
//   - a stream data model with ordering attributes and punctuations;
//   - windows (sliding, shifting, agglomerative, tuple-count,
//     punctuation-based, partitioned);
//   - nonblocking stream operators: selection, projection, duplicate
//     elimination, symmetric hash join, windowed binary joins with
//     asymmetric probe methods, XJoin disk-spill joins, and windowed
//     grouped aggregation with distributive/algebraic/holistic
//     aggregates;
//   - a CQL/GSQL-style declarative query language with a planner,
//     predicate pushdown, and the bounded-memory analysis of Arasu et
//     al. for aggregate queries;
//   - approximation machinery: reservoir samples, histograms, Count-Min
//     and AMS sketches, Flajolet-Martin distinct counting,
//     Greenwald-Khanna quantiles, DGIM sliding-window counts;
//   - optimization: rate-based plan selection, memory-minimizing
//     operator scheduling (FIFO/Greedy/Chain), eddy-style adaptive
//     filter ordering, multi-query sharing, and random/semantic load
//     shedding;
//   - the 3-level architecture: Gigascope-style two-level partial
//     aggregation, a Hancock-style signature store, TCP transport
//     between levels, and adaptive filters for distributed monitoring.
//
// The Engine type is the front door: register stream schemas and
// sources, then run queries.
//
//	eng := streamdb.New()
//	eng.RegisterSchema("Traffic", schema)
//	eng.SetSource("Traffic", src)
//	res, err := eng.Query(`select srcIP, count(*) from Traffic [range 60]
//	                       group by srcIP`)
//
// Subsystems live in internal/ packages; this package re-exports the
// types a client needs.
package streamdb

import (
	"fmt"

	"streamdb/internal/query"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// Re-exported core types: the public API surface for building schemas,
// tuples and sources without importing internal packages.
type (
	// Schema describes a stream's attributes.
	Schema = tuple.Schema
	// Field is one schema attribute.
	Field = tuple.Field
	// Tuple is one stream data item.
	Tuple = tuple.Tuple
	// Value is one attribute value.
	Value = tuple.Value
	// Kind is an attribute type.
	Kind = tuple.Kind
	// Source produces stream elements.
	Source = stream.Source
	// Element is a tuple or punctuation.
	Element = stream.Element
	// WindowSpec declares a window.
	WindowSpec = window.Spec
	// Plan is a compiled query.
	Plan = query.Plan
)

// Attribute kind constants.
const (
	KindInt    = tuple.KindInt
	KindUint   = tuple.KindUint
	KindFloat  = tuple.KindFloat
	KindString = tuple.KindString
	KindBool   = tuple.KindBool
	KindIP     = tuple.KindIP
	KindTime   = tuple.KindTime
)

// Second is one virtual second in timestamp units.
const Second = stream.Second

// Value constructors.
var (
	// Int builds an INT value.
	Int = tuple.Int
	// Uint builds a UINT value.
	Uint = tuple.Uint
	// Float builds a FLOAT value.
	Float = tuple.Float
	// Str builds a STRING value.
	Str = tuple.String
	// Bool builds a BOOL value.
	Bool = tuple.Bool
	// IP builds an IPv4 value.
	IP = tuple.IP
	// Time builds a TIME value from virtual nanoseconds.
	Time = tuple.Time
)

// NewSchema builds a schema.
func NewSchema(name string, fields ...Field) *Schema {
	return tuple.NewSchema(name, fields...)
}

// NewTuple builds a tuple.
func NewTuple(ts int64, vals ...Value) *Tuple { return tuple.New(ts, vals...) }

// FromTuples builds a finite source.
func FromTuples(s *Schema, tuples ...*Tuple) Source {
	return stream.FromTuples(s, tuples...)
}

// Engine is a single-node DSMS instance: a catalog of stream schemas
// plus bound sources.
type Engine struct {
	cat     *query.Catalog
	sources map[string]Source
}

// New builds an empty engine.
func New() *Engine {
	return &Engine{cat: query.NewCatalog(), sources: make(map[string]Source)}
}

// RegisterSchema declares a stream and its schema.
func (e *Engine) RegisterSchema(name string, s *Schema) {
	e.cat.Register(name, s)
}

// SetSource binds a source to a declared stream. The source is
// consumed by the next Query call; rebind for each run.
func (e *Engine) SetSource(name string, src Source) error {
	if _, ok := e.cat.Lookup(name); !ok {
		return fmt.Errorf("streamdb: stream %q not registered", name)
	}
	e.sources[name] = src
	return nil
}

// Compile parses and plans a query without running it.
func (e *Engine) Compile(sql string) (*Plan, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	return query.Compile(q, e.cat)
}

// Result holds a completed query's output.
type Result struct {
	Schema *Schema
	Rows   []*Tuple
	Plan   *Plan
}

// Query compiles and runs a query to completion over the bound
// (finite) sources, returning all result rows; an operator failure is
// returned as the error, never as a short result.
func (e *Engine) Query(sql string) (*Result, error) {
	rows, plan, err := query.Run(sql, e.cat, e.sources, -1)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: plan.OutSchema, Rows: rows, Plan: plan}, nil
}

// QueryInto compiles the query and streams results to sink instead of
// collecting them; it returns the plan. Use for unbounded sources with
// a tuple budget. When every bound source can hand over elements in
// bulk (stream.BulkSource: slices, generators, transports) the query
// runs on the batched engine and sink is called from an engine
// goroutine; calls are always serial, and the last one happens before
// QueryInto returns. A failing operator stops the run and is returned
// as the error.
func (e *Engine) QueryInto(sql string, maxElements int64, sink func(*Tuple)) (*Plan, error) {
	plan, err := e.Compile(sql)
	if err != nil {
		return nil, err
	}
	if err := plan.Execute(e.sources, sink, maxElements); err != nil {
		return nil, err
	}
	return plan, nil
}
