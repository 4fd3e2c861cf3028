package web

import (
	"fmt"
	"math"

	"edisim/internal/autoscale"
	"edisim/internal/cluster"
	"edisim/internal/hw"
	"edisim/internal/load"
	"edisim/internal/netsim"
	"edisim/internal/power"
	"edisim/internal/rng"
	"edisim/internal/sim"
	"edisim/internal/stats"
	"edisim/internal/units"
)

// Dataset geometry (§5.1.1): 15 tables, 11 plain and 4 with image blobs.
const (
	numPlainTables = 11
	numImageTables = 4
	rowsPerTable   = 2000
)

// Deployment is one cluster configured as the paper's middle tier: web
// servers plus cache servers from a single platform, with the shared
// infra-platform database tier and the client machines.
type Deployment struct {
	Eng    *sim.Engine
	Fab    *netsim.Fabric
	Params Params

	// Plat is the web-tier platform; its hw.Platform.Web block carries the
	// per-platform CPU costs and admission rates for the web servers. The
	// DB tier uses the testbed's infra platform instead.
	Plat *hw.Platform
	// CachePlat is the cache-tier platform (same as Plat in the paper's
	// homogeneous middle tiers; tiered deployments may split them).
	CachePlat *hw.Platform

	Web     []*WebServer
	Cache   []*CacheServer
	DBs     []*DBServer
	Clients []netsim.Vertex

	webNodes, cacheNodes []*hw.Node // the Web and Cache servers' nodes, in order

	meter *power.Meter

	rnd struct {
		arrival, table, row, db, class *rng.Source
	}

	// loadFactor scales admission intervals with the mean reply size of
	// the current run (threads and ports are held for transfer durations).
	loadFactor float64

	// Pooled request, connection and SYN records (see request.go, conn.go).
	freeReqs  []*webReq
	freeConns []*webConn
	freeSyns  []*synTag

	// Per-run state, set by Run: the resolved config, the result the
	// connections report into, in-window successful operations, the run's
	// start, and the connection generator (open-loop arrivals, nil for the
	// closed loop; the pending arrival; the round-robin cursor; the
	// pre-bound arrive).
	cfg      RunConfig
	res      *Result
	served   int64
	start    sim.Time
	arrivals *load.Arrivals
	arrival  sim.EventRef
	next     int
	arriveFn func()

	// rotation is the routing rotation new connections cycle through: all
	// of Web, a prefix of it while the SLO controller holds a reserve back,
	// or the serving set the autoscale manager edits.
	rotation []*WebServer

	// Overload-resilience state, reset by Run and inert at its zero values
	// (see overload.go): the resolved shedding policy and the CPU cost of
	// one fast-fail rejection, the brownout flag, the client retry budget,
	// the SLO controller's window digest, the measurement window bounds for
	// gating, and the overload counters.
	shed             ShedPolicy
	fastFailCPU      float64
	brownout         bool
	budget           retryBudget
	sloDig           *stats.Digest
	winStart, winEnd sim.Time
	ovl              overloadCounters

	// Elasticity state (see autoscale.go), nil unless RunConfig.Autoscale
	// arms the lifecycle manager: the manager and its pool over the web
	// tier.
	scaler *autoscale.Manager
	pool   *fleetPool

	// Table 7 decomposition accumulators, harvested and reset by Run.
	dbDelay, cacheDelay, webTotal stats.Summary
}

// NewDeployment builds a middle tier of nWeb web servers and nCache cache
// servers on the chosen platform's node group of testbed tb. The paper's
// splits are in cluster.Table6.
func NewDeployment(tb *cluster.Testbed, p *hw.Platform, nWeb, nCache int, seed int64) *Deployment {
	return NewTieredDeployment(tb, p, nWeb, p, nCache, seed)
}

// NewTieredDeployment builds a middle tier whose web and cache tiers may
// sit on different platforms (e.g. a Pi3 web tier in front of a Xeon cache
// tier): nWeb web servers on webPlat's node group and nCache cache servers
// on cachePlat's. When the platforms coincide this is exactly NewDeployment:
// both tiers split one node group, web servers first.
func NewTieredDeployment(tb *cluster.Testbed, webPlat *hw.Platform, nWeb int, cachePlat *hw.Platform, nCache int, seed int64) *Deployment {
	d := &Deployment{Eng: tb.Eng, Fab: tb.Fab, Params: DefaultParams(), Plat: webPlat, CachePlat: cachePlat, loadFactor: 1}
	if webPlat == cachePlat {
		pool := tb.Nodes(webPlat)
		if nWeb+nCache > len(pool) {
			panic(fmt.Sprintf("web: need %d %s nodes, testbed has %d", nWeb+nCache, webPlat.Name, len(pool)))
		}
		d.webNodes, d.cacheNodes = pool[:nWeb], pool[nWeb:nWeb+nCache]
	} else {
		wp, cp := tb.Nodes(webPlat), tb.Nodes(cachePlat)
		if nWeb > len(wp) {
			panic(fmt.Sprintf("web: need %d %s web nodes, testbed has %d", nWeb, webPlat.Name, len(wp)))
		}
		if nCache > len(cp) {
			panic(fmt.Sprintf("web: need %d %s cache nodes, testbed has %d", nCache, cachePlat.Name, len(cp)))
		}
		d.webNodes, d.cacheNodes = wp[:nWeb], cp[:nCache]
	}
	if len(tb.DB) == 0 || len(tb.Clients) == 0 {
		panic("web: testbed needs DB servers and clients")
	}
	for _, n := range d.webNodes {
		d.Web = append(d.Web, newWebServer(d, n))
	}
	for _, n := range d.cacheNodes {
		d.Cache = append(d.Cache, newCacheServer(n, d.Fab.Vertex(n.ID)))
	}
	for _, n := range tb.DB {
		d.DBs = append(d.DBs, &DBServer{Node: n, vx: d.Fab.Vertex(n.ID), queryCPU: tb.Infra.Web.DBQueryCPU})
	}
	for _, name := range tb.Clients {
		d.Clients = append(d.Clients, d.Fab.Vertex(name))
	}
	meterName := webPlat.Label + "-cluster"
	if cachePlat != webPlat {
		meterName = webPlat.Label + "+" + cachePlat.Label + "-tier"
	}
	d.arriveFn = d.arrive
	d.meter = power.NewMeter(meterName, append(append([]*hw.Node(nil), d.webNodes...), d.cacheNodes...))
	root := rng.New(seed)
	d.rnd.arrival = root.Derive("web/arrival")
	d.rnd.table = root.Derive("web/table")
	d.rnd.row = root.Derive("web/row")
	d.rnd.db = root.Derive("web/db")
	// Priority-class draws (only consumed under ShedPriority; deriving the
	// substream draws nothing, so healthy runs are untouched).
	d.rnd.class = root.Derive("web/class")
	return d
}

// Warm preloads the cache tier so that a hitRatio fraction of uniformly
// drawn rows are resident, emulating the paper's warm-up stage. (Misses
// during the test stage do not insert, as in the paper, so the ratio stays
// fixed.)
func (d *Deployment) Warm(hitRatio float64) {
	if hitRatio < 0 { // ColdCache sentinel: nothing resident
		hitRatio = 0
	}
	resident := int(hitRatio * rowsPerTable)
	for t := 0; t < numPlainTables+numImageTables; t++ {
		size := units.Bytes(plainReplyBytes)
		if t >= numPlainTables {
			size = units.Bytes(imageReplyBytes)
		}
		for r := 0; r < resident; r++ {
			k := key(t, r)
			d.cacheFor(k).Set(k, size)
		}
	}
}

// WarmFor warms the cache tier for the run described by cfg, resolving the
// CacheHit default/sentinel exactly as Run will — use this rather than
// Warm(cfg.CacheHit) so the two paths cannot disagree about what an unset
// field means.
func (d *Deployment) WarmFor(cfg RunConfig) {
	d.Warm(cfg.withDefaults().CacheHit)
}

// DefaultCacheHit is the warmed hit ratio used across the paper's runs
// (§5.1.1), applied when RunConfig.CacheHit is left at its zero value.
const DefaultCacheHit = 0.93

// ColdCache is the RunConfig.CacheHit sentinel for a fully cold cache.
// Because the field's zero value means "use DefaultCacheHit", a literal 0
// cannot express "no hits"; any negative value (use this constant) does.
const ColdCache = -1

// RunConfig drives one httperf measurement (one x-axis point of Figs 4–9).
type RunConfig struct {
	Concurrency  float64 // new TCP connections per second (the x axis)
	CallsPerConn int     // requests per connection (paper tunes this; 8 here)
	ImageFrac    float64 // probability a request hits an image table
	// CacheHit is the warmed cache hit ratio. 0 (unset) means
	// DefaultCacheHit; pass ColdCache (or any negative value) for a
	// genuinely cold cache.
	CacheHit   float64
	Duration   float64 // generation time in simulated seconds
	WarmupFrac float64 // fraction of Duration excluded from measurement

	// Failure recovery (all zero = off, the paper's healthy-run behavior,
	// with an event stream byte-identical to builds without these knobs).
	//
	// RequestTimeout > 0 arms a client-side timer per request: a reply that
	// does not arrive in time abandons the attempt and retries — against
	// the next live web server when the current one is down — with capped
	// exponential backoff, up to MaxRetries times; exhaustion counts the
	// operation as errored. Connection setup gains the matching protection:
	// a SYN (or SYN-ACK) lost to a cut link times out on the kernel retry
	// schedule instead of hanging, and new connections steer around dead
	// servers to the next live one in ring order.
	RequestTimeout float64 // seconds; 0 disables all recovery machinery
	MaxRetries     int     // retries after the first attempt; 0 means 3 when enabled
	RetryBase      float64 // first backoff in seconds; 0 means 0.05 when enabled

	// Overload resilience (all zero = off, with an event stream
	// byte-identical to builds without these knobs).
	//
	// Profile switches the generator open-loop: connection arrivals follow
	// the profiled rate instead of the closed-loop Concurrency ladder, and
	// keep coming whether or not the servers keep up. Mutually exclusive
	// with Concurrency. Per-request Sample retention is replaced by the
	// bounded Latency digest so million-request runs stay flat in memory.
	Profile load.Profile
	// Shed configures server-side admission control (see ShedPolicy).
	Shed ShedPolicy
	// RetryBudget bounds client retries as a fraction of first attempts
	// (token bucket: each first attempt deposits RetryBudget tokens, each
	// retry spends one, burst-capped). 0 leaves PR 6's unbudgeted retries;
	// it only matters when RequestTimeout arms the retry machinery.
	RetryBudget float64
	// SLO attaches the reactive controller (windowed quantile +
	// availability checks, reserve activation, brownout). Nil = off.
	SLO *SLO
	// Autoscale arms the elasticity engine: a lifecycle manager that
	// grows and shrinks the web tier mid-run under the configured policy,
	// with platform-calibrated boot delays and warm-up penalties (zero
	// knobs resolve from hw.Platform.Boot). Requires SLO (the policy
	// observes the controller's windows) and excludes SLO.Reserve (both
	// would edit the routing rotation). Nil = a fixed fleet.
	Autoscale *autoscale.Config
}

// withDefaults fills unset fields with the values used across the paper
// reproduction and resolves the ColdCache sentinel.
func (c RunConfig) withDefaults() RunConfig {
	if c.CallsPerConn == 0 {
		c.CallsPerConn = 8
	}
	if c.Duration == 0 {
		c.Duration = 30
	}
	if c.WarmupFrac == 0 {
		c.WarmupFrac = 0.25
	}
	if c.CacheHit == 0 {
		c.CacheHit = DefaultCacheHit
	}
	if c.CacheHit < 0 {
		c.CacheHit = 0
	}
	if c.RequestTimeout > 0 {
		if c.MaxRetries == 0 {
			c.MaxRetries = 3
		}
		if c.RetryBase == 0 {
			c.RetryBase = 0.05
		}
	}
	return c
}

// badDur rejects the silent-failure values for a duration-like knob: NaN
// would poison every comparison quietly, ±Inf and negatives turn timers into
// never/always. Zero is left to the caller (usually a meaningful default).
func badDur(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) || v < 0 }

// Validate rejects configurations whose zero-ish values would fail silently
// rather than loudly: NaN/Inf anywhere, negative times, rates and counts.
// Run panics on an invalid config; the public API surfaces the error.
func (c RunConfig) Validate() error {
	if c.Profile != nil {
		if err := c.Profile.Validate(); err != nil {
			return err
		}
		if c.Concurrency != 0 {
			return fmt.Errorf("web: set either Concurrency (closed-loop) or Profile (open-loop), not both")
		}
	} else if math.IsNaN(c.Concurrency) || math.IsInf(c.Concurrency, 0) || c.Concurrency <= 0 {
		return fmt.Errorf("web: concurrency %g must be positive and finite", c.Concurrency)
	}
	if c.CallsPerConn < 0 {
		return fmt.Errorf("web: calls per connection %d must be non-negative", c.CallsPerConn)
	}
	if math.IsNaN(c.ImageFrac) || c.ImageFrac < 0 || c.ImageFrac > 1 {
		return fmt.Errorf("web: image fraction %g must be in [0,1]", c.ImageFrac)
	}
	if math.IsNaN(c.CacheHit) || math.IsInf(c.CacheHit, 0) || c.CacheHit > 1 {
		return fmt.Errorf("web: cache hit ratio %g must be finite and at most 1", c.CacheHit)
	}
	if badDur(c.Duration) {
		return fmt.Errorf("web: duration %g must be finite and non-negative", c.Duration)
	}
	if math.IsNaN(c.WarmupFrac) || c.WarmupFrac < 0 || c.WarmupFrac >= 1 {
		return fmt.Errorf("web: warmup fraction %g must be in [0,1)", c.WarmupFrac)
	}
	if badDur(c.RequestTimeout) {
		return fmt.Errorf("web: request timeout %g must be finite and non-negative", c.RequestTimeout)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("web: max retries %d must be non-negative", c.MaxRetries)
	}
	if badDur(c.RetryBase) {
		return fmt.Errorf("web: retry base %g must be finite and non-negative", c.RetryBase)
	}
	if math.IsNaN(c.RetryBudget) || c.RetryBudget < 0 || c.RetryBudget > 1 {
		return fmt.Errorf("web: retry budget %g must be in [0,1]", c.RetryBudget)
	}
	if err := c.Shed.Validate(); err != nil {
		return err
	}
	if err := c.SLO.Validate(); err != nil {
		return err
	}
	if c.Autoscale != nil {
		if c.SLO == nil {
			return fmt.Errorf("web: Autoscale needs an SLO controller (policies observe its windows)")
		}
		if c.SLO.Reserve > 0 {
			return fmt.Errorf("web: Autoscale and SLO.Reserve both edit the routing rotation; use one")
		}
		if err := c.Autoscale.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result is the outcome of one run.
type Result struct {
	Config RunConfig

	Throughput float64 // successful replies per second in the window
	MeanDelay  float64 // mean per-request response time (httperf view)
	Delays     *stats.Sample
	ConnDelays *stats.Sample // per-connection first-byte delays incl. SYN retries

	Errors500    int64
	ConnFailures int64
	ErrorRate    float64 // errored operations / attempted operations

	// Recovery accounting (all zero when RequestTimeout is off). Attempts
	// and Retries count the transmissions and retries of the operations
	// that settled inside the window, so Attempts − Retries is exactly those
	// operations (successes + Errors500) and Attempts / (Attempts − Retries)
	// is the retry amplification factor. Timeouts counts client timeouts
	// that fired inside the window.
	Timeouts int64
	Retries  int64
	Attempts int64

	MeanPower units.Watts // cluster draw averaged over the window
	Energy    units.Joules

	// Table 7 decomposition, measured on the web servers.
	DBDelay, CacheDelay, WebTotal stats.Summary

	WebCPU, CacheCPU float64 // mean utilization over the window
	HitRatio         float64

	// Overload accounting (all zero when the overload knobs are off).
	// Latency is always populated: the bounded-memory digest of in-window
	// response times that replaces Delays as the quantile source on
	// open-loop runs (where per-request Sample retention is skipped).
	Latency      *stats.Digest
	Offered      int64   // open-loop connection arrivals in the window
	Shed         int64   // operations rejected early by admission control (SYN refusals + request rejections) in the window
	Degraded     int64   // brownout cache-only answers in the window
	RetryDenied  int64   // retries suppressed by the budget in the window
	SLOBreaches  int64   // in-window controller evaluations that burned the SLO
	BrownoutSecs float64 // total time brownout was engaged
	ActivePeak   int     // high-water routing-rotation size (0 unless SLO set)

	// Elasticity accounting (all zero unless Autoscale is armed).
	ScaleUps     int64        // servers that joined the rotation by policy decision
	ScaleDowns   int64        // drain-before-park scale-downs started
	Boots        int64        // parked servers powered on
	DrainCancels int64        // drains reclaimed by a scale-up before parking
	BootEnergy   units.Joules // energy burned booting (busy draw × boot time), already inside Energy
	MeanActive   float64      // time-weighted mean serving servers over the window
}

// Run executes one measurement on a fresh traffic epoch. The deployment's
// caches must already be warmed.
func (d *Deployment) Run(cfg RunConfig) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	eng := d.Eng
	d.loadFactor = 1 + d.Params.TransferPenaltyPerKB*AvgReplyBytes(cfg.ImageFrac)/1024

	res := &Result{Config: cfg, Delays: &stats.Sample{}, ConnDelays: &stats.Sample{}, Latency: stats.NewDigest()}
	winStart := eng.Now() + sim.Time(cfg.Duration*cfg.WarmupFrac)
	winEnd := eng.Now() + sim.Time(cfg.Duration)
	d.cfg, d.res, d.served, d.start, d.next = cfg, res, 0, eng.Now(), 0

	// Overload-resilience state (inert at the zero knobs: no extra events,
	// no extra RNG draws, identical routing).
	d.winStart, d.winEnd = winStart, winEnd
	d.shed, d.fastFailCPU = ShedPolicy{}, 0
	if cfg.Shed.Enabled() {
		d.shed = cfg.Shed.withDefaults(d.Plat.Web)
		d.fastFailCPU = d.shed.FastFailFrac * (d.Plat.Web.BaseCPU + d.Plat.Web.ReplyCPU)
	}
	d.budget = retryBudget{rate: cfg.RetryBudget, tokens: retryBurst}
	d.rotation = d.Web
	d.brownout = false
	d.sloDig = nil
	d.ovl = overloadCounters{}

	// Elasticity: the lifecycle manager takes over the routing rotation
	// (the SLO tick feeds it windowed signals), parked nodes power off and
	// booting nodes burn busy draw — all inside the same meter, so
	// MeanPower/Energy price provisioning overhead too.
	var servingAtStart, servingAtEnd float64
	if cfg.Autoscale != nil {
		d.armAutoscale(cfg)
		eng.At(winStart, func() { servingAtStart = d.scaler.ServingIntegral(winStart) })
		eng.At(winEnd, func() { servingAtEnd = d.scaler.ServingIntegral(winEnd) })
	}

	// Window power accounting.
	var winEnergy float64
	eng.At(winStart, func() { d.meter.Reset() })
	eng.At(winEnd, func() {
		winEnergy = float64(d.meter.Energy())
	})
	// Integrate tier utilizations over the window for the §5.1.2 CPU
	// numbers. Tracking is change-driven (hw.Node.SubscribeUtil), so heavy
	// runs do not pay for a polling timer and the means are exact.
	webUtil := trackMeanUtil(eng, d.webNodes, winStart, winEnd)
	cacheUtil := trackMeanUtil(eng, d.cacheNodes, winStart, winEnd)
	defer webUtil.detach()
	defer cacheUtil.detach()

	if cfg.SLO != nil {
		d.startSLO(cfg.SLO)
	}
	d.arrivals = nil
	if cfg.Profile != nil {
		d.arrivals = load.NewArrivals(cfg.Profile, d.rnd.arrival, cfg.Duration)
	}
	d.nextArrival()

	// Run to completion: generation stops at Duration, stragglers drain. A
	// closed-loop arrival drawn past the drain must not fire into a later
	// run on this deployment.
	eng.RunUntil(winEnd + sim.Time(20))
	d.arrival.Cancel()

	window := float64(winEnd - winStart)
	res.Throughput = float64(d.served) / window
	if cfg.Profile == nil {
		res.MeanDelay = res.Delays.Mean()
	} else {
		res.MeanDelay = res.Latency.Mean()
	}
	if total := d.served + res.Errors500 + res.ConnFailures; total > 0 {
		res.ErrorRate = float64(res.Errors500+res.ConnFailures) / float64(total)
	}
	res.MeanPower = units.Watts(winEnergy / window)
	res.Energy = units.Joules(winEnergy)
	res.WebCPU = webUtil.mean()
	res.CacheCPU = cacheUtil.mean()
	var gets, hits int64
	for _, c := range d.Cache {
		gets += c.gets
		hits += c.hits
	}
	if gets > 0 {
		res.HitRatio = float64(hits) / float64(gets)
	}
	res.DBDelay = d.dbDelay
	res.CacheDelay = d.cacheDelay
	res.WebTotal = d.webTotal
	d.dbDelay, d.cacheDelay, d.webTotal = stats.Summary{}, stats.Summary{}, stats.Summary{}
	res.Shed = d.ovl.shed
	res.Degraded = d.ovl.degraded
	if d.scaler != nil {
		st := d.scaler.Stats()
		res.ScaleUps = st.ScaleUps
		res.ScaleDowns = st.ScaleDowns
		res.Boots = st.Boots
		res.DrainCancels = st.DrainCancels
		// Boot burn at the busy draw of whatever power model the web nodes
		// actually run (the cluster builder may have armed a non-default one).
		busy := d.Plat.Spec.Power.BusyDraw()
		if len(d.Web) > 0 {
			busy = d.Web[0].Node.PowerModel().BusyDraw()
		}
		res.BootEnergy = units.Joules(st.BootSecs * float64(busy))
		res.MeanActive = (servingAtEnd - servingAtStart) / window
		d.teardownAutoscale()
	}
	return *res
}

// inWindow reports whether now is inside the current run's measurement
// window.
func (d *Deployment) inWindow() bool {
	now := d.Eng.Now()
	return now >= d.winStart && now <= d.winEnd
}

// nextArrival schedules the connection generator's next arrival. The
// generator only chooses instants: closed-loop Poisson arrivals at
// Concurrency conn/s until Duration, or the open-loop profile's, which keep
// coming at absolute instants whether or not the fleet keeps up. Every
// arrival calls fire.
func (d *Deployment) nextArrival() {
	if d.arrivals == nil {
		d.arrival = d.Eng.After(d.rnd.arrival.Exp(1/d.cfg.Concurrency), d.arriveFn)
	} else if at, ok := d.arrivals.Next(); ok {
		d.arrival = d.Eng.At(d.start+sim.Time(at), d.arriveFn)
	}
}

func (d *Deployment) arrive() {
	if d.arrivals == nil {
		if d.Eng.Now() >= d.winEnd {
			return
		}
	} else if d.inWindow() {
		d.res.Offered++
	}
	d.fire()
	d.nextArrival()
}

// nextLive returns the first web server after w in ring order whose node is
// up, or nil when the whole tier is down. Ring order keeps failover
// deterministic and spreads a dead server's inherited load evenly. With
// autoscale armed the ring is the serving rotation, so retries never land on
// a booting or parked server (Up, but not serving).
func (d *Deployment) nextLive(w *WebServer) *WebServer {
	ring := d.Web
	if d.scaler != nil {
		ring = d.rotation
	}
	start := 0
	for i, s := range ring {
		if s == w {
			start = i
			break
		}
	}
	for k := 1; k <= len(ring); k++ {
		if s := ring[(start+k)%len(ring)]; s.Node.Up() {
			return s
		}
	}
	return nil
}

// utilTracker integrates the CPU utilization of a node set over a window:
// the run's measurement window for the §5.1.2 means, or from run start on
// for the autoscale policy's per-tick windows. It subscribes to per-node
// utilization changes instead of sampling on a timer: the integral is exact
// and no events are added to the engine beyond one window-start anchor
// (none when the window starts now).
type utilTracker struct {
	integs           []*stats.Integrator // one per node: exact and O(1) per change
	cancels          []func()
	winStart, winEnd float64
}

// trackMeanUtil attaches a tracker to the nodes for the window
// [winStart, winEnd]. Call detach after the run to unhook the callbacks.
func trackMeanUtil(eng *sim.Engine, nodes []*hw.Node, winStart, winEnd sim.Time) *utilTracker {
	tr := &utilTracker{
		integs:   make([]*stats.Integrator, len(nodes)),
		winStart: float64(winStart),
		winEnd:   float64(winEnd),
	}
	for i := range nodes {
		tr.integs[i] = stats.NewIntegrator(tr.winStart, 0)
	}
	for i, n := range nodes {
		i := i
		tr.cancels = append(tr.cancels, n.SubscribeUtil(func(u float64) {
			tr.set(i, u, float64(eng.Now()))
		}))
	}
	// Anchor each integrand at window start with whatever is running then.
	anchor := func() {
		for i, n := range nodes {
			tr.set(i, n.Utilization(), tr.winStart)
		}
	}
	if winStart > eng.Now() {
		eng.At(winStart, anchor)
	} else {
		anchor()
	}
	return tr
}

// set updates one node's integrand, clamped to the measurement window.
// Changes before winStart are ignored — the window-start anchor reads the
// live utilization then — and changes after winEnd no longer matter.
func (tr *utilTracker) set(i int, u, now float64) {
	if now < tr.winStart || now > tr.winEnd {
		return
	}
	tr.integs[i].Set(now, u)
}

// mean reports the time-weighted mean utilization across the node set over
// the window: Σ per-node integrals / (nodes × window).
func (tr *utilTracker) mean() float64 {
	window := tr.winEnd - tr.winStart
	if window <= 0 || len(tr.integs) == 0 {
		return 0
	}
	var total float64
	for _, in := range tr.integs {
		total += in.Total(tr.winEnd)
	}
	return total / (float64(len(tr.integs)) * window)
}

// detach unhooks the tracker's own subscriptions (other observers on the
// same nodes are untouched).
func (tr *utilTracker) detach() {
	for _, cancel := range tr.cancels {
		cancel()
	}
}
