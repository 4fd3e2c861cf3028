// Command perfbench is edisim's host-time benchmark. It runs one named
// workload against the simulator's layers from outside, timing calls into
// their public functions, checks every simulated output, and prints each
// metric by name and unit, ending with one JSON line:
//
//	perfbench --workload web_closed --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same workload
// with span timers and a CPU profile and reports the per-layer metrics.
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: web_closed, hadoop_jobs or web_open")
	seed := fs.Int64("seed", 1, "workload seed; seed 1 reproduces cmd/paper -quick")
	seconds := fs.Int("seconds", 20, "seconds of measured passes")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	golden := fs.String("golden", "testdata/paper_quick.golden", "cmd/paper -quick output holding the paper-vs-simulated ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	l, err := loadLedger(*golden)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	s, err := bench(options{workload: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1, ledger: l})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return printResult(stdout, stderr, w.name, *seed, *trace == 1, s)
}

// printResult prints the metrics, one per line and then as the closing JSON
// object, and returns the exit code: non-zero when any check failed.
func printResult(stdout, stderr io.Writer, name string, seed int64, traced bool, s *summary) int {
	list := endToEnd
	if traced {
		list = perLayer
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  trace %v  passes %d\n", name, seed, traced, s.passes)
	res := jsonResult{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]jsonValue{}}
	for _, m := range list {
		v, ok := s.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s = %v, want a finite number\n", m.name, v)
			return 1
		}
		res.Metrics[m.name] = jsonValue{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", m.name, v, m.unit)
	}
	if !math.IsNaN(s.paperErr) {
		fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", "paper_err", s.paperErr, "1")
	}
	if !traced {
		fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", "raw_wall_s", s.rawWall, "s")
		fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", "host_slowdown", s.speed, "x")
	}
	fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", "failed_frac", float64(s.failed)/float64(s.attempted), "1")
	for _, p := range s.problems {
		fmt.Fprintln(stderr, "perfbench: FAILED", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if s.failed > 0 {
		return 1
	}
	return 0
}
