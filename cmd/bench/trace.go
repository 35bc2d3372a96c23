package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Spans recorded from the benchmark's own files, around its calls into
// each layer. They are kept in memory and written out when the run
// ends. A nil *tracer records nothing, so untraced passes share the
// same code.

// span is one timed call (or run of calls) into a layer.
type span struct {
	Name   string `json:"name"`
	Trace  int32  `json:"trace"`  // spans of one 256-tuple chunk share an id
	ID     int32  `json:"id"`     // index in the trace file
	Parent int32  `json:"parent"` // the span that caused it, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, trace, parent int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int32) {
	if t != nil && id >= 0 {
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
	}
}

// add records a span whose duration was accumulated elsewhere (sampled
// per-call timings folded into one span per chunk).
func (t *tracer) add(name string, trace, parent int32, start, durNs int64) {
	id := t.begin(name, trace, parent)
	t.spans[id].Start, t.spans[id].End = start, start+durNs
}

// byName sums span durations per name, in ns, over the spans recorded
// from index from on. A span's self time is its duration minus its
// direct children's; with one level of children per root that is the
// root's total minus the children's totals.
func (t *tracer) byName(from int) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range t.spans[from:] {
		out[s.Name] += s.End - s.Start
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
