// Command bench is the repository's benchmark. Invoked with -workload
// it measures one workload and prints one JSON object as the last line
// of standard output (the contract BENCHMARK.json describes); invoked
// without, it runs every workload in its own child process and prints
// one JSON document with every metric. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	sets     int
	out      string
	describe bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "measure this one workload in-process; empty runs all of them, each in a child process")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	fs.BoolVar(&o.quick, "quick", false, "tiny slabs and short phases: a smoke test, not a measurement")
	fs.IntVar(&o.sets, "sets", 1, "run the end-to-end benchmark this many times and compare the sets against the bounds")
	fs.StringVar(&o.out, "out", ".bench_build/out", "directory for trace files")
	fs.BoolVar(&o.describe, "describe", false, "print the content of BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.describe {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		if err := enc.Encode(describe()); err != nil {
			return 1
		}
		return 0
	}
	if o.quick && o.seconds == defaultSeconds {
		o.seconds = 1
	}
	if o.workload == "" {
		return runAll(o, stdout, stderr)
	}
	s, ok := findSpec(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	pinProcs()
	var res result
	var err error
	if o.trace == 0 {
		res, err = measureEndToEnd(s, o.seed, o.seconds, o.quick, stderr)
	} else {
		res, err = measureLayers(s, o, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// pinProcs fixes the scheduler width so runs on hosts with more cores
// measure the same thing: at most two cores for generator and engine.
func pinProcs() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	runtime.GOMAXPROCS(n)
	return n
}
