package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Running the whole benchmark: each workload in its own child process
// (so set-up time, peak memory and heap state are per workload), its
// end-to-end run and then its traced run, all results in one document.

// report is the one JSON document a whole run prints.
type report struct {
	Host      host                      `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Quick     bool                      `json:"quick,omitempty"`
	Workloads map[string]workloadReport `json:"workloads"`
}

type host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	SHA        string `json:"git_sha"`
}

type workloadReport struct {
	Why       string           `json:"why"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

// child runs one workload in a fresh process and parses the last line
// of its standard output.
func child(o options, workload string, trace int, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", o.out}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s: no result (%v, exit: %v)", workload, err, runErr)
	}
	return res, nil // a failed check is in res; the caller exits nonzero on it
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func runAll(o options, stdout, stderr io.Writer) int {
	rep := report{
		Host:    host{Cores: runtime.NumCPU(), GOMAXPROCS: pinProcs(), Go: runtime.Version(), SHA: gitSHA()},
		Seed:    o.seed,
		Seconds: o.seconds, Quick: o.quick,
		Workloads: make(map[string]workloadReport),
	}
	failed := false
	sets := make([]map[string]map[string]value, o.sets)
	for set := range sets {
		sets[set] = make(map[string]map[string]value)
		for _, s := range specs {
			res, err := child(o, s.name, 0, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			sets[set][s.name] = res.Metrics
			failed = failed || !res.Correct
			if set > 0 {
				continue
			}
			wr := workloadReport{Why: s.why, Attempted: res.Attempted, Failed: res.Failed, EndToEnd: res.Metrics}
			if o.sets == 1 {
				layers, err := child(o, s.name, 1, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					return 1
				}
				wr.PerLayer = layers.Metrics
				wr.Attempted += layers.Attempted
				wr.Failed += layers.Failed
				failed = failed || !layers.Correct
			}
			rep.Workloads[s.name] = wr
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if o.sets > 1 && !compareSets(sets, stderr) {
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

// compareSets prints, for every end-to-end metric and workload, how far
// each later set's value is from the first set's in the worse
// direction, beside the metric's bound; false when any exceeds it.
func compareSets(sets []map[string]map[string]value, log io.Writer) bool {
	ok := true
	fmt.Fprintf(log, "%-18s %-16s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set n", "worse", "bound")
	for _, s := range specs {
		for _, d := range endToEnd {
			first := sets[0][s.name][d.Name].Value
			for _, set := range sets[1:] {
				v := set[s.name][d.Name].Value
				worse := (v - first) / first
				if d.Better == "higher" {
					worse = -worse
				}
				verdict := ""
				if worse > d.Bound || math.IsNaN(worse) {
					verdict, ok = "  EXCEEDS", false
				}
				fmt.Fprintf(log, "%-18s %-16s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n",
					s.name, d.Name, first, v, 100*worse, 100*d.Bound, verdict)
			}
		}
	}
	return ok
}
