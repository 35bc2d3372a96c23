package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// Reference evaluator on inputs small enough to check by hand.

func rows(in ...refRow) (int, refInput) {
	return len(in), func(i int) (refRow, int) { return in[i], 0 }
}

func TestReferenceFilter(t *testing.T) {
	s := spec{shape: shapeFilter, tcpOnly: true, minLen: 512}
	got := s.reference(rows(
		refRow{ts: 1, src: 10, proto: 6, length: 600},  // passes
		refRow{ts: 2, src: 11, proto: 17, length: 900}, // UDP
		refRow{ts: 3, src: 12, proto: 6, length: 512},  // not longer than 512
		refRow{ts: 4, src: 10, proto: 6, length: 513},  // passes
	))
	var want digest
	want.addRow(1, 10, 600)
	want.addRow(4, 10, 513)
	if got != want {
		t.Fatalf("filter reference = %+v, want %+v", got, want)
	}
}

func TestReferenceWindowAgg(t *testing.T) {
	// range 20, slide 10: a tuple at ts belongs to the windows starting
	// at floor(ts/10)*10 and 10 earlier, except before the origin.
	s := spec{shape: shapeAgg, minLen: 100, rng: 20, slide: 10, avg: true}
	got := s.reference(rows(
		refRow{ts: 5, src: 1, length: 200},  // window [0,20)
		refRow{ts: 12, src: 1, length: 400}, // windows [10,30), [0,20)
		refRow{ts: 13, src: 2, length: 300}, // windows [10,30), [0,20)
		refRow{ts: 14, src: 2, length: 50},  // filtered out
	))
	f := math.Float64bits
	var want digest
	want.addRow(20, 1, 2, f(600), f(300)) // [0,20) src 1: count 2, sum 600, avg 300
	want.addRow(20, 2, 1, f(300), f(300))
	want.addRow(30, 1, 1, f(400), f(400)) // [10,30), emitted at end of input
	want.addRow(30, 2, 1, f(300), f(300))
	if got != want {
		t.Fatalf("window aggregate reference = %+v, want %+v", got, want)
	}
}

func TestReferenceJoin(t *testing.T) {
	s := spec{shape: shapeJoin, rng: 10}
	in := []struct {
		refRow
		port int
	}{
		{refRow{ts: 1, src: 7, length: 100}, 0},  // T: nothing to match yet
		{refRow{ts: 3, dst: 7, length: 200}, 1},  // O: matches T@1
		{refRow{ts: 4, dst: 8, length: 300}, 1},  // O: key 8 has no T
		{refRow{ts: 11, src: 7, length: 400}, 0}, // T: O@3 still live (3 > 11-10), matches
		{refRow{ts: 13, dst: 7, length: 500}, 1}, // O: T@1 expired (1 <= 13-10), T@11 matches
	}
	got := s.reference(len(in), func(i int) (refRow, int) { return in[i].refRow, in[i].port })
	var want digest
	want.addRow(3, 7, 100, 200)
	want.addRow(11, 7, 400, 200)
	want.addRow(13, 7, 400, 500)
	if got != want {
		t.Fatalf("join reference = %+v, want %+v", got, want)
	}
}

func TestDigestIsOrderIndependent(t *testing.T) {
	var a, b digest
	a.addRow(1, 2, 3)
	a.addRow(4, 5, 6)
	b.addRow(4, 5, 6)
	b.addRow(1, 2, 3)
	if a != b {
		t.Fatalf("digest depends on row order: %+v vs %+v", a, b)
	}
	b.addRow(1, 2, 3)
	if a == b {
		t.Fatal("digest ignores a duplicated row")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestHistQuantileWithinBucket(t *testing.T) {
	var h hist
	for ns := int64(1); ns <= 100000; ns++ {
		h.add(ns)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100 // microseconds
		if got := h.quantileUs(q); got < want || got > want*1.07 {
			t.Errorf("quantile %.2f = %.2f us, want within 7%% above %.2f", q, got, want)
		}
	}
}

func TestQuietRateIsTheFastestQuarter(t *testing.T) {
	if got := quietRate([]float64{5, 1, 9, 3, 7, 2, 8, 4}); got != 8.5 {
		t.Fatalf("quietRate = %v, want the mean of the two highest of eight, 8.5", got)
	}
}

func TestHostFactorTimesWholeSlabPasses(t *testing.T) {
	s, _ := findSpec("gsql_filter")
	w, err := newWorkload(s, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w.free()
	if f := w.hostFactor(0); !(f > 0) {
		t.Fatalf("host factor %v, want positive", f)
	}
	start := time.Now()
	w.hostFactor(20 * time.Millisecond)
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("a calibration of at least 20 ms took %v", d)
	}
}

func TestPacerSchedule(t *testing.T) {
	p := newPacer(1e3, time.Millisecond, 500, false) // one tuple per millisecond for one millisecond
	if got := p.dueBy(p.limitNs); got != 1 {
		t.Fatalf("dueBy(limit) = %d, want 1", got)
	}
	if !p.wait(0) || p.wait(1) {
		t.Fatal("a 1 ms phase at 1 tuple/ms hands over exactly tuple 0")
	}
	if p.stamp(0) != 500 || p.endBacklog != 0 {
		t.Fatalf("stamp(0) = %d, endBacklog = %d; want 500, 0", p.stamp(0), p.endBacklog)
	}
}

// TestBenchmarkJSONMatches fails when BENCHMARK.json and the names this
// package prints drift apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := describe(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from `bench -describe`; regenerate it.\n got: %+v\nwant: %+v", got, want)
	}
}

// TestQuickRunPrintsTheContract runs every workload in quick mode, both
// traced and untraced, and checks the printed object: exactly the
// contract's keys, every metric of the matching list by name and unit,
// and a clean reference check.
func TestQuickRunPrintsTheContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	for _, s := range specs {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", s.name, "-seed", "3", "-quick", "-trace", []string{"0", "1"}[trace], "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s -trace %d: exit %d\n%s", s.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var obj map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
				t.Fatalf("%s -trace %d: last line is not JSON: %v", s.name, trace, err)
			}
			var keys []string
			for k := range obj {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
				t.Fatalf("%s -trace %d: keys %v, want %v", s.name, trace, keys, want)
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s -trace %d: correct=%v attempted=%d failed=%d\n%s", s.name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s -trace %d: %d metrics, want %d", s.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s -trace %d: metric %s = %+v (present %v), want unit %q", s.name, trace, d.Name, v, ok, d.Unit)
				}
				if trace == 0 && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", s.name, d.Name, v.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(out + "/" + s.name + ".trace.json"); err != nil {
					t.Errorf("%s: no trace file: %v", s.name, err)
				}
			}
		}
	}
}
