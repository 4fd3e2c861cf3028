package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"edisim/internal/report"
)

const goldenPath = "../testdata/paper_quick.golden"

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// lastJSON runs the command and decodes its closing JSON line.
func lastJSON(t *testing.T, args ...string) (jsonResult, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append(args, "--golden", goldenPath), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q is not the result: %v (stderr %s)", lines[len(lines)-1], err, errb.String())
	}
	return r, code
}

func keys(m map[string]jsonValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestPrintedMetricsMatchBenchmarkFile runs the cheapest workload untraced
// and traced and checks that the printed metrics are exactly the ones
// BENCHMARK.json declares, with the same units and directions.
func TestPrintedMetricsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, c := range []struct {
		trace string
		list  []metric
		file  []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}
	}{{"0", endToEnd, f.EndToEnd}, {"1", perLayer, f.PerLayer}} {
		var want []string
		units := map[string]string{}
		for _, m := range c.file {
			want = append(want, m.Name)
			units[m.Name] = m.Unit
		}
		sort.Strings(want)
		if len(c.list) != len(c.file) {
			t.Errorf("trace %s: %d metrics in code, %d in BENCHMARK.json", c.trace, len(c.list), len(c.file))
		}
		for i, m := range c.list {
			better := "higher"
			if m.lower {
				better = "lower"
			}
			if i < len(c.file) && (c.file[i].Name != m.name || c.file[i].Unit != m.unit || c.file[i].Better != better) {
				t.Errorf("trace %s metric %d: code %+v, BENCHMARK.json %+v", c.trace, i, m, c.file[i])
			}
		}
		r, code := lastJSON(t, "--workload", "hadoop_jobs", "--seed", "3", "--seconds", "1", "--trace", c.trace)
		if code != 0 || !r.Correct || r.Failed != 0 {
			t.Fatalf("trace %s: exit %d, result %+v", c.trace, code, r)
		}
		if got := keys(r.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("trace %s printed %v, BENCHMARK.json has %v", c.trace, got, want)
		}
		for name, v := range r.Metrics {
			if v.Unit != units[name] {
				t.Errorf("%s printed in %q, BENCHMARK.json says %q", name, v.Unit, units[name])
			}
		}
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !strings.Contains(","+strings.Join(names, ",")+",", ","+w.name+",") {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
}

// TestFailedCheckRaisesFailedFrac forces a failing output check and a panic
// and expects both counted and a non-zero exit.
func TestFailedCheckRaisesFailedFrac(t *testing.T) {
	calls := 0
	w := workload{name: "forced", points: func(int64) []point {
		return []point{
			{name: "ok", run: func(tr *tracer) (outcome, error) { return outcome{fingerprint: "same"}, nil }},
			{name: "bad-check", run: func(tr *tracer) (outcome, error) {
				calls++
				return outcome{fingerprint: "same"}, errors.New("replies exceed attempts")
			}},
			{name: "panics", run: func(tr *tracer) (outcome, error) { panic("boom") }},
		}
	}}
	s, err := bench(options{workload: w, seed: 1, budget: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || s.failed < 2 {
		t.Fatalf("failed=%d of %d; want both broken points counted", s.failed, s.attempted)
	}
	if frac := float64(s.failed) / float64(s.attempted); frac <= 0 || frac > 1 {
		t.Fatalf("failed_frac %v", frac)
	}
	var out, errb bytes.Buffer
	if code := printResult(&out, &errb, w.name, 1, false, s); code == 0 {
		t.Fatal("a failed check must exit non-zero")
	}
	if !strings.Contains(errb.String(), "replies exceed attempts") || !strings.Contains(errb.String(), "panic: boom") {
		t.Errorf("stderr does not name the failures: %s", errb.String())
	}
}

// TestNondeterminismCounts feeds a point whose outputs change between runs.
func TestNondeterminismCounts(t *testing.T) {
	n := 0
	w := workload{name: "flaky", points: func(int64) []point {
		return []point{{name: "drifts", run: func(tr *tracer) (outcome, error) {
			n++
			return outcome{fingerprint: strings.Repeat("x", n)}, nil
		}}}
	}}
	s, err := bench(options{workload: w, seed: 1, budget: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if s.failed == 0 {
		t.Fatal("a drifting point must fail the determinism checks")
	}
}

func TestBucketing(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"edisim/internal/sim.(*Engine).siftDown", "edisim/internal/sim.(*Engine).Step", "main.runWebPoint"}, "sim"},
		{[]string{"runtime.mapaccess2", "edisim/internal/netsim.(*Fabric).Route", "edisim/internal/web.(*webReq).step", "edisim/internal/sim.(*Engine).Step"}, "netsim"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "edisim/internal/web.(*Deployment).Run"}, "runtime"},
		{[]string{"edisim/internal/rng.(*Source).Exp", "edisim/internal/load.(*Arrivals).Next", "edisim/internal/web.(*Deployment).Run"}, "load"},
		{[]string{"edisim/internal/yarn.(*RM).schedule", "edisim/internal/mapred.(*Cluster).Run"}, "mapred"},
		{[]string{"edisim/internal/hdfs.(*FS).CreateInstant", "edisim/internal/jobs.(*Hadoop).Stage"}, "mapred"},
		{[]string{"edisim/internal/cluster.New", "main.runWebPoint"}, "hw"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"main.(*calState).siftDown", "main.(*calState).run", "main.runPass"}, "harness"},
		{[]string{"runtime.gcStart", "runtime.GC", "main.runPass"}, "harness"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"edisim/internal/faults.Schedule", "edisim/internal/sim.(*Engine).Step"}, "other"},
	} {
		if got := bucket(c.frames); got != c.want {
			t.Errorf("bucket(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestProfileDecodes profiles real simulator work and checks that the
// decoded samples land in the simulator's layers.
func TestProfileDecodes(t *testing.T) {
	w, _ := lookupWorkload("hadoop_jobs")
	pts := w.points(1)
	var p *pass
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		var err error
		if p, err = runPass(pts[:12], true, false); err != nil {
			t.Fatal(err)
		}
		if p.profile["mapred"]+p.profile["netsim"] > 0 {
			return
		}
	}
	t.Fatalf("no mapred or netsim samples in %v", p.profile)
}

// TestFidelityPinCatches checks that the seed-1 pin accepts the ledger's
// own values and rejects a comparison that drifts past printed precision.
func TestFidelityPinCatches(t *testing.T) {
	l, err := loadLedger(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	good := []report.Comparison{{Artifact: "§5.2.4", Metric: "terasort energy-efficiency gain (x)", Measured: 1.355}}
	comps, err := l.resolve(good)
	if err != nil {
		t.Fatal(err)
	}
	if comps[0].Paper != 1.48 {
		t.Fatalf("paper value %v, want 1.48", comps[0].Paper)
	}
	if bad := l.pin(comps); len(bad) != 0 {
		t.Fatalf("pin rejected the ledger's own value: %v", bad)
	}
	comps[0].Measured = 1.356
	if bad := l.pin(comps); len(bad) != 1 {
		t.Fatalf("pin accepted a drifted value: %v", bad)
	}
	if _, err := l.resolve([]report.Comparison{{Artifact: "Figure 99", Metric: "nothing"}}); err == nil {
		t.Fatal("resolve invented a paper value")
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "web_open", "--seconds", "0"},
		{"--workload", "web_open", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
