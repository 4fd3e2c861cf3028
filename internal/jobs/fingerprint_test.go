package jobs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"edisim/internal/faults"
	"edisim/internal/hw"
	"edisim/internal/mapred"
	"edisim/internal/sim"
	"edisim/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// jobCase is one pinned Hadoop run: a job on a slave set, the faults
// scheduled on it and the recovery policy. A case with a plan runs to its
// deadline (a recovering cluster may heartbeat on); a healthy one drains.
type jobCase struct {
	name     string
	job      string
	groups   []SlaveGroup
	plan     *faults.Plan
	ft       *mapred.FaultTolerance
	deadline float64
	// check asserts that the case exercises the path it is named for.
	check func(*mapred.JobResult) error
}

// jobCases spans the Table 8 jobs on the paper's two clusters (35 Edison
// and 2 Dell slaves) and the recovery paths of the MapReduce engine and the
// flow fabric: re-attempts after a node crash, a speculative backup for a
// straggler, and a link cut plus a link degrade during the shuffle (flows
// aborted, parked at rate 0 and re-rated).
func jobCases() []jobCase {
	micro, brawny := hw.BaselinePair()
	var cs []jobCase
	for _, j := range Names() {
		cs = append(cs,
			jobCase{name: j + "/35E", job: j, groups: []SlaveGroup{{Platform: micro, Nodes: 35}}},
			jobCase{name: j + "/2D", job: j, groups: []SlaveGroup{{Platform: brawny, Nodes: 2}}})
	}
	small := []SlaveGroup{{Platform: micro, Nodes: 8}}
	retried := func(r *mapred.JobResult) error {
		if !r.Completed || r.TaskRetries == 0 {
			return fmt.Errorf("completed=%v retries=%d, want a completed run with retries", r.Completed, r.TaskRetries)
		}
		return nil
	}
	cs = append(cs,
		jobCase{
			name: "terasort/8E/crash", job: "terasort", groups: small,
			plan: &faults.Plan{Events: []faults.Event{
				{Kind: faults.NodeCrash, At: 150, Duration: 120, Role: "slave", Index: 2},
			}},
			ft:       &mapred.FaultTolerance{TaskTimeout: 600},
			deadline: 20000,
			check:    retried,
		},
		jobCase{
			name: "wordcount/8E/straggler-speculative", job: "wordcount", groups: small,
			plan: &faults.Plan{Events: []faults.Event{
				{Kind: faults.Straggler, At: 5, Factor: 0.3, Role: "slave", Index: 1},
			}},
			ft:       &mapred.FaultTolerance{TaskTimeout: 600, Speculative: true},
			deadline: 20000,
			check: func(r *mapred.JobResult) error {
				if !r.Completed || r.SpeculativeBackups == 0 {
					return fmt.Errorf("completed=%v backups=%d, want a completed run with backups", r.Completed, r.SpeculativeBackups)
				}
				return nil
			},
		},
		jobCase{
			name: "terasort/8E/shuffle-cut-degrade", job: "terasort", groups: small,
			plan: &faults.Plan{Events: []faults.Event{
				{Kind: faults.LinkDegrade, At: 250, Duration: 100, Factor: 0.25, Role: "slave", Index: 5},
				{Kind: faults.LinkCut, At: 300, Duration: 40, Role: "slave", Index: 3},
			}},
			ft:       &mapred.FaultTolerance{TaskTimeout: 300},
			deadline: 20000,
			check:    retried,
		},
	)
	return cs
}

// runJobCase builds a fresh deployment at seed 1, stages and starts the
// case's job and runs the engine.
func runJobCase(t *testing.T, c jobCase) (*Hadoop, *mapred.JobResult) {
	t.Helper()
	const seed = 1
	h, err := NewHadoopGroups(c.groups, BlockSizeFor(c.job, c.groups[0].Platform), seed)
	if err != nil {
		t.Fatal(err)
	}
	h.Stage(c.job)
	def := h.Def(c.job)
	def.FT = c.ft
	faults.Schedule(h.Eng, c.plan, seed, h.FaultRoster())
	res, err := h.Cluster.Start(def, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.deadline > 0 {
		h.Eng.RunUntil(sim.Time(c.deadline))
	} else {
		h.Eng.Run()
	}
	return h, res
}

// jobFingerprint renders every scalar JobResult field at full precision,
// the length and last point of each 1 Hz series, the engine's fired-event
// count and the fabric's byte total: two runs with equal fingerprints took
// the same path event for event.
func jobFingerprint(h *Hadoop, r *mapred.JobResult) string {
	series := func(ts *stats.TimeSeries) string {
		pts := ts.Points()
		if len(pts) == 0 {
			return "n=0"
		}
		last := pts[len(pts)-1]
		return fmt.Sprintf("n=%d last=(%v, %v)", len(pts), last.T, last.V)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "  job=%s duration=%v energy=%v\n", r.Job, r.Duration, float64(r.Energy))
	fmt.Fprintf(&b, "  maps=%d reduces=%d local=%d shuffled=%v output=%v\n",
		r.MapTasks, r.ReduceTasks, r.DataLocalMaps, float64(r.ShuffledBytes), float64(r.OutputBytes))
	fmt.Fprintf(&b, "  completed=%v failed=%v reason=%q\n", r.Completed, r.Failed, r.FailReason)
	fmt.Fprintf(&b, "  attempts=%d retries=%d lost=%d backups=%d\n",
		r.TaskAttempts, r.TaskRetries, r.LostMapOutputs, r.SpeculativeBackups)
	fmt.Fprintf(&b, "  power: %s\n  cpu: %s\n  mem: %s\n  map: %s\n  reduce: %s\n",
		series(r.Power), series(r.CPU), series(r.Mem), series(r.MapProgress), series(r.ReduceProgress))
	fmt.Fprintf(&b, "  fired=%d\n", h.Eng.Fired())
	fmt.Fprintf(&b, "  bytes=%v\n", float64(h.Fab.TotalBytes()))
	return b.String()
}

// TestJobFingerprintsGolden pins the Hadoop path's observable behaviour,
// event for event: each case's full JobResult, fired-event count and fabric
// byte total must match testdata/job_fingerprints.golden. It holds any
// restructuring of the flow fabric, the MapReduce engine or the YARN and
// HDFS layers to the same answers. Refresh with
// `go test ./internal/jobs -run TestJobFingerprintsGolden -update` only for
// a deliberate behaviour change, and say which lines moved and why.
func TestJobFingerprintsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range jobCases() {
		h, r := runJobCase(t, c)
		if c.check != nil {
			if err := c.check(r); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
		fmt.Fprintf(&buf, "%s\n%s", c.name, jobFingerprint(h, r))
	}
	golden := filepath.Join("testdata", "job_fingerprints.golden")
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
		t.Fatalf("job fingerprints diverged from %s", golden)
	}
}
