package web

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"edisim/internal/autoscale"
	"edisim/internal/faults"
	"edisim/internal/load"
	"edisim/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// fingerprintCase is one pinned Run: a deployment, the faults scheduled on
// it, and the run config.
type fingerprintCase struct {
	name   string
	faults *faults.Plan // scheduled on the web tier; nil for a healthy run
	cfg    RunConfig
}

// fingerprintCases spans every branch of Run: the healthy closed loop, the
// recovery path under crashes and cuts, open-loop shedding in each mode
// with budgets and brownout, the SLO reserve rotation and both reactive
// autoscale policies.
func fingerprintCases() []fingerprintCase {
	crashCut := faults.RollingCrashes("web", 2, 1.5, 0.5, 1)
	crashCut.Events = append(crashCut.Events, faults.Event{Kind: faults.LinkCut, At: 2, Duration: 0.8, Role: "web", Index: 4})
	midSpike := faults.RollingCrashes("web", 3, 2.5, 0.3, 1.5)
	spike := load.Spike{Base: 120, Peak: 600, Start: 2, Duration: 2}
	open := func(mode ShedMode) RunConfig {
		return RunConfig{
			Profile: spike, Duration: 6, WarmupFrac: 0.1,
			RequestTimeout: 0.25, RetryBudget: 0.001,
			Shed: ShedPolicy{Mode: mode, Deadline: 0.5},
			SLO:  &SLO{Latency: 0.02, Window: 1, Brownout: true},
		}
	}
	diurnal := func(p autoscale.Policy) RunConfig {
		return RunConfig{
			Profile: load.Diurnal{Min: 30, Max: 230, Period: 6}, Duration: 8, WarmupFrac: 0.1,
			RequestTimeout: 0.5,
			SLO:            &SLO{Latency: 0.5, Window: 1},
			Autoscale:      &autoscale.Config{Policy: p, InitialServing: 3, BootDelay: 1, Warmup: 1},
		}
	}
	return []fingerprintCase{
		{name: "closed/healthy", cfg: RunConfig{Concurrency: 64, Duration: 4, ImageFrac: 0.2}},
		{name: "closed/recovery-crash-cut", faults: crashCut, cfg: RunConfig{Concurrency: 128, Duration: 4, RequestTimeout: 0.25}},
		{name: "closed/recovery-400", cfg: RunConfig{Concurrency: 400, Duration: 5, RequestTimeout: 2}},
		{name: "open/shed-off", faults: midSpike, cfg: open(ShedOff)},
		{name: "open/shed-drop", faults: midSpike, cfg: open(ShedDropTail)},
		{name: "open/shed-deadline", faults: midSpike, cfg: open(ShedDeadline)},
		{name: "open/shed-priority", faults: midSpike, cfg: open(ShedPriority)},
		{name: "open/slo-reserve", cfg: RunConfig{
			Profile: load.Steady{Rate: 120}, CallsPerConn: 40, Duration: 5, WarmupFrac: 0.1,
			SLO: &SLO{Latency: 0.05, Window: 1, Reserve: 2},
		}},
		{name: "open/autoscale-target-util", cfg: diurnal(autoscale.TargetUtil{Target: 0.6})},
		{name: "open/autoscale-queue-depth", cfg: diurnal(autoscale.QueueDepth{})},
	}
}

// fingerprint renders every Result field at full precision plus the
// engine's fired-event count and the fabric's byte total: two runs with
// equal fingerprints took the same path event for event.
func fingerprint(d *Deployment, r Result) string {
	sample := func(s *stats.Sample) string {
		return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v", s.N(), s.Mean(), s.Quantile(0.5), s.Quantile(0.99))
	}
	summary := func(s stats.Summary) string {
		return fmt.Sprintf("n=%d mean=%v std=%v min=%v max=%v", s.N(), s.Mean(), s.Std(), s.Min(), s.Max())
	}
	dg := r.Latency
	var b bytes.Buffer
	fmt.Fprintf(&b, "  tput=%v delay=%v\n", r.Throughput, r.MeanDelay)
	fmt.Fprintf(&b, "  delays: %s\n", sample(r.Delays))
	fmt.Fprintf(&b, "  conn delays: %s\n", sample(r.ConnDelays))
	fmt.Fprintf(&b, "  err500=%d connfail=%d errrate=%v timeouts=%d retries=%d attempts=%d\n",
		r.Errors500, r.ConnFailures, r.ErrorRate, r.Timeouts, r.Retries, r.Attempts)
	fmt.Fprintf(&b, "  power=%v energy=%v webcpu=%v cachecpu=%v hit=%v\n",
		float64(r.MeanPower), float64(r.Energy), r.WebCPU, r.CacheCPU, r.HitRatio)
	fmt.Fprintf(&b, "  db: %s\n  cache: %s\n  web: %s\n", summary(r.DBDelay), summary(r.CacheDelay), summary(r.WebTotal))
	fmt.Fprintf(&b, "  latency: n=%d mean=%v min=%v max=%v p50=%v p99=%v p999=%v\n",
		dg.N(), dg.Mean(), dg.Min(), dg.Max(), dg.Quantile(0.5), dg.Quantile(0.99), dg.Quantile(0.999))
	fmt.Fprintf(&b, "  offered=%d shed=%d degraded=%d denied=%d breaches=%d brownout=%v activepeak=%d\n",
		r.Offered, r.Shed, r.Degraded, r.RetryDenied, r.SLOBreaches, r.BrownoutSecs, r.ActivePeak)
	fmt.Fprintf(&b, "  ups=%d downs=%d boots=%d cancels=%d bootenergy=%v meanactive=%v\n",
		r.ScaleUps, r.ScaleDowns, r.Boots, r.DrainCancels, float64(r.BootEnergy), r.MeanActive)
	fmt.Fprintf(&b, "  events=%d bytes=%v\n", d.Eng.Fired(), float64(d.Fab.TotalBytes()))
	return b.String()
}

// TestRunFingerprintsGolden pins Run's observable behavior across every
// feature path, event for event: each case's full Result, fired-event count
// and fabric byte total must match testdata/run_fingerprints.golden. It is
// the test that holds the zero-knob promise (unset recovery, overload and
// autoscale knobs leave the event stream byte-identical) and any
// restructuring of the connection path to the same answers. Refresh with
// `go test ./internal/web -run TestRunFingerprintsGolden -update` only for
// a deliberate behavior change, and say which lines moved and why.
func TestRunFingerprintsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range fingerprintCases() {
		d := smallDeployment(t, microP(), 6, 3)
		faults.Schedule(d.Eng, c.faults, 1, drillTargets(d))
		r := d.Run(c.cfg)
		fmt.Fprintf(&buf, "%s\n%s", c.name, fingerprint(d, r))
	}
	golden := filepath.Join("testdata", "run_fingerprints.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, exp := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) || i < len(exp); i++ {
			var g, e []byte
			if i < len(got) {
				g = got[i]
			}
			if i < len(exp) {
				e = exp[i]
			}
			if !bytes.Equal(g, e) {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, e)
			}
		}
		t.Fatalf("Run fingerprints diverged from %s", golden)
	}
}
