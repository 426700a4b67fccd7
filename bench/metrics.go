package main

// metricDef names one reported metric. Bound is the share of the
// parent's median by which the metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Exact metrics are deterministic counts: compare requires them to
	// match exactly.
	Exact bool `json:"exact,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported for
// every workload and listed in BENCHMARK.json.
//
// Every bound is 25 %, the most BENCHMARK.json allows, because that is
// the run-to-run noise of the shared 2-core host that measured it. Its
// speed drifts by ±20 % over minutes, so ten runs of one workload spread
// (quartile distance over the median) by 4–21 % on every wall-clock
// metric alike. The cell workloads' peak RSS follows GC timing and
// spread by up to 20 %.
var endToEnd = []metricDef{
	{Name: "sub_cycles_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// endToEndExtra are reported and compared only where they exist: the
// p90 needs at least 10 samples beyond it (so not on metro), and
// failed_frac is 0 on a correct run, which the result line carries as
// its failed count.
var endToEndExtra = []metricDef{
	{Name: "job_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "failed_frac", Unit: "ratio", Better: "lower"},
}

// layerSource says which round of a traced run a per-layer metric
// comes from.
type layerSource int

const (
	// fromUntraced: the untraced reference round, falling back to the
	// first traced round for counts only a traced round can read.
	fromUntraced layerSource = iota
	// fromTraced: the median over traced rounds.
	fromTraced
	// fromParent: computed across rounds by the parent (profile
	// buckets, span self times, overhead and speed-up ratios).
	fromParent
)

type layerDef struct {
	metricDef
	src layerSource
}

func exact(name, unit, better string) layerDef {
	return layerDef{metricDef{Name: name, Unit: unit, Better: better, Exact: true}, fromUntraced}
}

func timed(name, unit string, src layerSource) layerDef {
	return layerDef{metricDef{Name: name, Unit: unit, Better: "lower"}, src}
}

// spanGroups are the benchmark-side span names whose self time is
// reported as a share of job time; "kernel" gathers the spans around
// kernel runs (cycles, runway and backbone runs).
var spanGroups = map[string][]string{
	"job":    {spanJob},
	"setup":  {spanSetup},
	"run":    {spanRun},
	"verify": {spanVerify},
	"kernel": {spanCycleCompiled, spanCycleFallback, spanRunway, spanMetroWarmup, spanMetroCycles},
	"sched":  {spanSched},
}

var spanGroupOrder = []string{"job", "setup", "run", "verify", "kernel", "sched"}

// perLayer lists every per-layer metric in report order. A metric that
// does not apply to a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []layerDef {
	out := []layerDef{
		exact("sim.events", "count", "lower"),
		exact("sim.events_per_sub_cycle", "events", "lower"),
		timed("sim.host_ns_per_event", "ns", fromTraced),
		exact("core.cycles", "count", "higher"),
		exact("core.compiled_hit_ratio", "ratio", "higher"),
		exact("core.fallback_loss", "count", "lower"),
		exact("core.fallback_contention", "count", "lower"),
		exact("core.fallback_amendment", "count", "lower"),
		exact("core.fallback_format", "count", "lower"),
		exact("core.recompiles", "count", "lower"),
		timed("core.cycle_us_p50", "us", fromTraced),
		timed("core.cycle_us_p99", "us", fromTraced),
		timed("core.cycle_us_compiled_p50", "us", fromTraced),
		timed("core.cycle_us_fallback_p50", "us", fromTraced),
		exact("sched.calls", "count", "lower"),
		timed("sched.ns_per_call", "ns", fromTraced),
		exact("backbone.forwarded", "count", "higher"),
		exact("backbone.delivered", "count", "higher"),
		exact("backbone.ring_sends", "count", "higher"),
		timed("backbone.run_ms_per_cycle", "ms", fromTraced),
		{metricDef{Name: "backbone.speedup_procs", Unit: "x", Better: "higher"}, fromParent},
		timed("gc.alloc_bytes_per_sub_cycle", "B", fromUntraced),
		timed("gc.allocs_per_sub_cycle", "count", fromUntraced),
		timed("gc.cpu_frac", "ratio", fromUntraced),
		timed("gc.cycles", "count", fromUntraced),
		exact("trace.events", "count", "lower"),
		timed("trace.store_ns_per_event", "ns", fromTraced),
		timed("conformance.check_ms", "ms", fromTraced),
		timed("span.stitch_ms", "ms", fromTraced),
		timed("span.distribution_ms", "ms", fromTraced),
		timed("obs.export_ms", "ms", fromTraced),
		timed("baseline.run_ms", "ms", fromTraced),
		{metricDef{Name: "experiments.pool_busy_frac", Unit: "ratio", Better: "higher"}, fromUntraced},
		timed("bench.trace_overhead", "x", fromParent),
	}
	for _, b := range profileBuckets {
		out = append(out, timed(b+".self_frac", "ratio", fromParent))
	}
	for _, g := range spanGroupOrder {
		out = append(out, timed("spans."+g+".self_frac", "ratio", fromParent))
	}
	return out
}
