package main

// metric is one reported figure: its name, unit and the direction in which
// it improves. endToEnd and perLayer are the two lists BENCHMARK.json
// declares; the printed JSON carries exactly one of them.
type metric struct {
	name, unit string
	lower      bool // lower is better
}

// endToEnd are the host-cost metrics a user of cmd/paper or a Scenario run
// waits and pays for. All come from untraced runs.
var endToEnd = []metric{
	{"wall_s", "s", true},
	{"setup_s", "s", true},
	{"alloc_mb", "MB", true},
	{"peak_rss_mb", "MB", true},
}

// perLayer are the traced run's metrics, one block per layer. Counts of
// simulated work (sim.events, netsim.bytes_per_op, web.cache_hit, ...) are
// simulator outputs: a change that only speeds the simulator up must leave
// them identical.
var perLayer = []metric{
	// Span timers around the public calls the benchmark makes, and the
	// bytes each span allocates.
	{"cluster.build_ms", "ms", true},
	{"cluster.build_alloc_mb", "MB", true},
	{"web.deploy_ms", "ms", true},
	{"web.deploy_alloc_mb", "MB", true},
	{"web.warm_ms", "ms", true},
	{"web.warm_alloc_mb", "MB", true},
	{"web.run_ms", "ms", true},
	{"web.run_alloc_mb", "MB", true},
	{"jobs.deploy_ms", "ms", true},
	{"jobs.deploy_alloc_mb", "MB", true},
	{"hdfs.stage_ms", "ms", true},
	{"hdfs.stage_alloc_mb", "MB", true},
	{"mapred.run_ms", "ms", true},
	{"mapred.run_alloc_mb", "MB", true},
	// Event kernel.
	{"sim.events", "count", true},
	{"sim.ns_per_event", "ns", true},
	{"sim.events_per_op", "count", true},
	{"sim.cpu_frac", "1", true},
	// Message hops, routes, flows and water-filling.
	{"netsim.bytes_per_op", "B", true},
	{"netsim.cpu_frac", "1", true},
	// Testbed and node models.
	{"hw.cpu_frac", "1", true},
	// Web request state machine.
	{"web.replies", "count", false},
	{"web.attempts_per_reply", "count", true},
	{"web.shed_frac", "1", true},
	{"web.error_frac", "1", true},
	{"web.cache_hit", "1", false},
	{"web.cpu_frac", "1", true},
	// Open-loop arrivals and the elastic fleet.
	{"load.offered", "count", false},
	{"load.cpu_frac", "1", true},
	{"autoscale.actions", "count", true},
	{"autoscale.cpu_frac", "1", true},
	// Hadoop stack: mapred, yarn, hdfs and jobs.
	{"mapred.tasks", "count", false},
	{"mapred.attempts_per_task", "count", true},
	{"mapred.local_frac", "1", false},
	{"mapred.shuffle_gb", "GB", true},
	{"mapred.cpu_frac", "1", true},
	// Meters, samplers and digests.
	{"power.sim_kj", "kJ", true},
	{"power.cpu_frac", "1", true},
	{"stats.cpu_frac", "1", true},
	// Go runtime.
	{"runtime.allocs_per_event", "count", true},
	{"runtime.gc_cycles", "count", true},
	{"runtime.gc_pause_ms", "ms", true},
	{"runtime.gc_cpu_frac", "1", true},
	// Cost of the traced run itself.
	{"trace.overhead_frac", "1", true},
}
