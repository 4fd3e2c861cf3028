// Package faults is edisim's deterministic fault-injection subsystem: a
// Plan is a declarative schedule of failure events — node crashes and
// reboots, straggler slowdowns, link cuts and degradations — that Schedule
// compiles into ordinary simulation events against the run's hardware. The
// schedule is a pure function of the plan, the injection seed and the target
// roster, so a faulty run is exactly as reproducible as a healthy one:
// bit-identical output for any worker count, and replayable from a seed.
//
// Faults only break things; recovery lives with the victims. A crash kills
// the node's in-flight CPU tasks and disk operations and cuts its links
// (in-flight transfers are lost without callbacks), so whatever timeout,
// retry or re-execution machinery the upper layer has — web client retries,
// MapReduce task re-attempts, HDFS replica failover — is what carries the
// workload through, exactly as on real hardware.
package faults

import (
	"fmt"
	"math"
	"sort"

	"edisim/internal/hw"
	"edisim/internal/netsim"
	"edisim/internal/rng"
	"edisim/internal/sim"
)

// Kind names a class of injected fault.
type Kind string

// The fault kinds a Plan can schedule.
const (
	// NodeCrash powers the target node off at At: in-flight CPU tasks and
	// disk operations are dropped without callbacks, its network links are
	// cut (active transfers lost) and power falls to zero. With a positive
	// Duration the node reboots (empty) at At+Duration; with Duration 0 it
	// stays down for the rest of the run.
	NodeCrash Kind = "node_crash"
	// Straggler rescales the target node's CPU speed and disk rate to
	// Factor × nominal at At (Factor < 1 slows it), restoring nominal speed
	// at At+Duration (or never, with Duration 0).
	Straggler Kind = "straggler"
	// LinkCut severs every network link adjacent to the target node at At —
	// active flows crossing them are aborted, messages dropped — and splices
	// them back at At+Duration (or never, with Duration 0). The node itself
	// keeps computing.
	LinkCut Kind = "link_cut"
	// LinkDegrade rescales the capacity of every link adjacent to the
	// target node to Factor × nameplate (0 < Factor) at At, restoring full
	// capacity at At+Duration (or never, with Duration 0).
	LinkDegrade Kind = "link_degrade"
)

// needsFactor reports whether the kind uses the Factor field.
func (k Kind) needsFactor() bool { return k == Straggler || k == LinkDegrade }

// valid reports whether the kind is one of the declared constants.
func (k Kind) valid() bool {
	switch k {
	case NodeCrash, Straggler, LinkCut, LinkDegrade:
		return true
	}
	return false
}

// Event is one scheduled fault: at time At (seconds into the run, optionally
// jittered — see Plan.Jitter), the fault lands on the Index-th target of the
// named Role, and is undone Duration seconds later (0 = permanent).
type Event struct {
	Kind     Kind
	At       float64 // injection time, seconds into the run
	Duration float64 // seconds until recovery; 0 = never recovers
	Factor   float64 // speed/capacity scale for Straggler and LinkDegrade
	Role     string  // target roster key, e.g. "slave", "web", "cache"
	Index    int     // target within the role, reduced modulo the roster size
}

// Plan is a reproducible fault schedule. The zero value (and nil) is the
// healthy run: scheduling it is a no-op and costs nothing.
type Plan struct {
	Events []Event
	// Jitter perturbs every event's At by a uniform seed-derived offset in
	// [0, Jitter) seconds, so repeated experiments at different seeds
	// explore different failure phasings while one seed stays exactly
	// reproducible. 0 (the default) keeps the literal schedule.
	Jitter float64
}

// Empty reports whether the plan schedules nothing (nil-safe).
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// finite rejects the silent-zero/NaN hazards on duration-like knobs.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks every event for the silent-failure hazards: non-finite or
// negative times and durations, non-positive or non-finite factors where one
// is needed, empty roles and unknown kinds. A nil plan is valid.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if !finite(p.Jitter) || p.Jitter < 0 {
		return fmt.Errorf("faults: jitter %g must be finite and non-negative", p.Jitter)
	}
	for i, e := range p.Events {
		if !e.Kind.valid() {
			return fmt.Errorf("faults: event %d: unknown kind %q", i, e.Kind)
		}
		if !finite(e.At) || e.At < 0 {
			return fmt.Errorf("faults: event %d (%s): time %g must be finite and non-negative", i, e.Kind, e.At)
		}
		if !finite(e.Duration) || e.Duration < 0 {
			return fmt.Errorf("faults: event %d (%s): duration %g must be finite and non-negative", i, e.Kind, e.Duration)
		}
		if e.Kind.needsFactor() && (!finite(e.Factor) || e.Factor <= 0) {
			return fmt.Errorf("faults: event %d (%s): factor %g must be finite and positive", i, e.Kind, e.Factor)
		}
		if e.Role == "" {
			return fmt.Errorf("faults: event %d (%s): empty role", i, e.Kind)
		}
		if e.Index < 0 {
			return fmt.Errorf("faults: event %d (%s): negative index %d", i, e.Kind, e.Index)
		}
	}
	return nil
}

// Filter returns the sub-plan containing only events against the given
// roles, preserving order and jitter. Experiments that run one plan against
// several independent testbeds (a web tier and a Hadoop cluster, say) use it
// to hand each testbed the events its roster can resolve; an event whose
// role exists nowhere is still a configuration bug, but that check belongs
// to the caller who sees every roster.
func (p *Plan) Filter(roles ...string) *Plan {
	if p.Empty() {
		return nil
	}
	keep := make(map[string]bool, len(roles))
	for _, r := range roles {
		keep[r] = true
	}
	out := &Plan{Jitter: p.Jitter}
	for _, e := range p.Events {
		if keep[e.Role] {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// Roles lists the distinct roles the plan attacks, sorted (nil-safe).
func (p *Plan) Roles() []string {
	if p.Empty() {
		return nil
	}
	seen := map[string]bool{}
	for _, e := range p.Events {
		seen[e.Role] = true
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Target is one attackable machine: the node, and the fabric its links live
// in (nil for a node with no modeled network, which restricts it to
// NodeCrash and Straggler events).
type Target struct {
	Node *hw.Node
	Fab  *netsim.Fabric
}

// crash takes the machine down: compute and storage first, then the links,
// so transfers in flight toward the node die with it.
func (t Target) crash() {
	t.Node.Crash()
	if t.Fab != nil {
		t.setLinks(0)
	}
}

// restore reboots the machine and splices its links back.
func (t Target) restore() {
	t.Node.Restore()
	if t.Fab != nil {
		t.setLinks(1)
	}
}

// setLinks rescales the node's links (see netsim.Fabric.SetVertexLinks).
func (t Target) setLinks(scale float64) {
	t.Fab.SetVertexLinks(t.Fab.Vertex(t.Node.ID), scale)
}

// Schedule compiles the plan into engine events against the given roster —
// role name → targets in a deterministic order (for cluster roles, rack
// order). It must be called before the run starts, with the engine clock at
// the run's origin; event times are relative to now. The seed drives the
// plan's jitter only; with Jitter 0 the schedule is literal and the seed is
// unused. Unknown roles and empty rosters panic: a plan attacking machines
// that do not exist is a configuration bug, not a quiet no-op.
func Schedule(eng *sim.Engine, plan *Plan, seed int64, roster map[string][]Target) {
	if plan.Empty() {
		return
	}
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	src := rng.New(seed).Derive("faults/jitter")
	for i, e := range plan.Events {
		ts, ok := roster[e.Role]
		if !ok {
			known := make([]string, 0, len(roster))
			for r := range roster {
				known = append(known, r)
			}
			sort.Strings(known)
			panic(fmt.Sprintf("faults: event %d targets unknown role %q (roster: %v)", i, e.Role, known))
		}
		if len(ts) == 0 {
			panic(fmt.Sprintf("faults: event %d targets empty role %q", i, e.Role))
		}
		t := ts[e.Index%len(ts)]
		at := e.At
		if plan.Jitter > 0 {
			at += src.Uniform(0, plan.Jitter)
		}
		needsFab := e.Kind == LinkCut || e.Kind == LinkDegrade
		if needsFab && t.Fab == nil {
			panic(fmt.Sprintf("faults: event %d (%s) targets %s which has no fabric", i, e.Kind, t.Node.ID))
		}
		switch e.Kind {
		case NodeCrash:
			eng.After(at, t.crash)
			if e.Duration > 0 {
				eng.After(at+e.Duration, t.restore)
			}
		case Straggler:
			factor := e.Factor
			eng.After(at, func() { t.Node.SetSlowFactor(factor) })
			if e.Duration > 0 {
				eng.After(at+e.Duration, func() { t.Node.SetSlowFactor(1) })
			}
		case LinkCut:
			eng.After(at, func() { t.setLinks(0) })
			if e.Duration > 0 {
				eng.After(at+e.Duration, func() { t.setLinks(1) })
			}
		case LinkDegrade:
			factor := e.Factor
			eng.After(at, func() { t.setLinks(factor) })
			if e.Duration > 0 {
				eng.After(at+e.Duration, func() { t.setLinks(1) })
			}
		}
	}
}

// RollingCrashes builds a plan that crashes count distinct targets of the
// role one after another — target i goes down at start + i×gap and reboots
// downtime seconds later — the classic rolling-failure availability drill.
func RollingCrashes(role string, count int, start, gap, downtime float64) *Plan {
	p := &Plan{}
	for i := 0; i < count; i++ {
		p.Events = append(p.Events, Event{
			Kind:     NodeCrash,
			At:       start + float64(i)*gap,
			Duration: downtime,
			Role:     role,
			Index:    i,
		})
	}
	return p
}
