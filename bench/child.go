package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// roundResult is what one child process reports for one round.
type roundResult struct {
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	Traced   bool   `json:"traced"`
	Procs    int    `json:"procs"`
	// WallNS covers the closed loop over every job of the round, from
	// the first set-up to the last digest.
	WallNS    int64         `json:"wallNs"`
	SubCycles float64       `json:"subCycles"`
	Jobs      []jobResult   `json:"jobs"`
	Counters  exactCounters `json:"counters"`
	// SetupProbeNS holds the tournament's set-up probes (see
	// tournamentSetup); other workloads time set-up inside each job.
	SetupProbeNS []int64 `json:"setupProbeNs,omitempty"`
	PeakRSSKB    int64   `json:"peakRssKb"`
	// Layer holds the round's per-layer figures, keyed by metric name.
	Layer map[string]float64 `json:"layer"`
	// Profile is CPU seconds per attribution bucket (traced rounds).
	Profile map[string]float64 `json:"profile,omitempty"`
	// SpanSelfNS is self time per span name; JobNS the summed job spans.
	SpanSelfNS map[string]int64 `json:"spanSelfNs,omitempty"`
	JobNS      int64            `json:"jobNs,omitempty"`
}

// runRound executes one round of w in this process. A traced round
// records spans, profiles the CPU into out, and writes its spans there.
func runRound(w *workload, seed uint64, round int, traced bool, out string) (*roundResult, error) {
	jobs := w.jobs(seed)
	rr := &roundResult{Workload: w.name, Round: round, Traced: traced,
		Procs: runtime.GOMAXPROCS(0), Layer: map[string]float64{}}
	for _, j := range jobs {
		rr.SubCycles += j.subCycles
	}
	if w.warmup != nil {
		if res, _ := runJob(w.warmup(seed), nil); res.Err != "" {
			return nil, fmt.Errorf("warm-up job %s: %s", res.Key, res.Err)
		}
	}
	workers := 1
	if w.pooled {
		workers = runtime.GOMAXPROCS(0)
	}
	epoch := time.Now()
	var recs []*recorder
	var roundRec *recorder
	if traced {
		roundRec = newRecorder(epoch, 0)
		for i := 0; i < workers; i++ {
			recs = append(recs, newRecorder(epoch, i+1))
		}
	}
	base := fmt.Sprintf("%s-round%d", w.name, round)
	var prof *os.File
	if traced {
		var err error
		if prof, err = os.Create(filepath.Join(out, base+".pprof")); err != nil {
			return nil, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}

	gc0 := readGC()
	rs := roundRec.begin(spanRound)
	start := time.Now()
	ctrs := runPool(jobs, workers, recs, rr)
	rr.WallNS = time.Since(start).Nanoseconds()
	roundRec.end(rs)
	gc1 := readGC()
	if traced {
		pprof.StopCPUProfile()
	}
	rr.Counters = ctrs

	if w.name == "tournament" {
		// Start the probes from a collected heap, not amid the round's
		// garbage.
		runtime.GC()
		for _, j := range jobs {
			ns, err := tournamentSetup(j.tourney.Seed)
			if err != nil {
				return nil, err
			}
			rr.SetupProbeNS = append(rr.SetupProbeNS, ns...)
		}
	}
	rr.PeakRSSKB = peakRSSKB()

	var busy int64
	for _, j := range rr.Jobs {
		busy += j.SetupNS + j.RunNS
	}
	rr.Layer["experiments.pool_busy_frac"] = float64(busy) / float64(int64(workers)*rr.WallNS)
	gc1.sub(gc0).into(rr.Layer, rr.SubCycles)
	if ctrs.Events > 0 {
		ctrs.into(rr.Layer, rr.SubCycles)
	}

	if !traced {
		if round == 0 {
			conformanceRound(jobs, rr.Jobs, workers)
		}
		return rr, nil
	}
	if err := finishTraced(w, seed, rr, append([]*recorder{roundRec}, recs...), filepath.Join(out, base)); err != nil {
		return nil, err
	}
	return rr, nil
}

// finishTraced derives a traced round's per-layer figures from its spans
// (recs[0] holds the round span), decomposes one tournament grid, writes
// the spans beside the CPU profile at path+".pprof", and buckets the
// profile.
func finishTraced(w *workload, seed uint64, rr *roundResult, recs []*recorder, path string) error {
	if w.name == "tournament" {
		d, err := decomposeTournament(seed, recs[0])
		if err != nil {
			return fmt.Errorf("tournament decomposition: %w", err)
		}
		rr.Layer["trace.events"] = float64(d.traceEvents)
		rr.Layer["sim.events"] = float64(d.simEvents)
		rr.Layer["sim.events_per_sub_cycle"] = float64(d.simEvents) / d.subCycles
	}
	t := totalSpans(recs)
	tracedLayers(w, t, rr)
	rr.SpanSelfNS = t.self
	rr.JobNS = t.ns[spanJob]
	if err := writeChromeTrace(path+".trace.json", recs); err != nil {
		return err
	}
	var err error
	rr.Profile, err = readProfile(path + ".pprof")
	return err
}

// runPool runs the jobs on a closed pool: each worker takes the next job
// when its current one finishes. Results land in job order.
func runPool(jobs []job, workers int, recs []*recorder, rr *roundResult) exactCounters {
	rr.Jobs = make([]jobResult, len(jobs))
	ctrs := make([]exactCounters, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		var rec *recorder
		if recs != nil {
			rec = recs[w]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if rec != nil {
					rec.trace = int32(i)
				}
				rr.Jobs[i], ctrs[i] = runJob(jobs[i], rec)
			}
		}()
	}
	wg.Wait()
	var total exactCounters
	for _, c := range ctrs {
		total.add(c)
	}
	return total
}

// conformanceEvery selects the cell jobs re-run under the conformance
// checker: every 7th, which covers every load of the paper sweep.
const conformanceEvery = 7

// conformanceRound re-runs every conformanceEvery-th cell job, untimed,
// on the same pool size, and records the outcome on the job result.
func conformanceRound(jobs []job, res []jobResult, workers int) {
	var idx []int
	for i := 0; i < len(jobs); i += conformanceEvery {
		if jobs[i].cell != nil && res[i].Err == "" {
			idx = append(idx, i)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(idx) {
					return
				}
				i := idx[k]
				res[i].Conformance = conformanceRerun(*jobs[i].cell, res[i].Digest)
			}
		}()
	}
	wg.Wait()
}

// tracedLayers derives the per-layer timings of a traced round from its
// spans and exact counters.
func tracedLayers(w *workload, t spanTotals, rr *roundResult) {
	l := rr.Layer
	switch {
	case w.pooled:
		cycles := append(append([]float64(nil), t.samples[spanCycleCompiled]...), t.samples[spanCycleFallback]...)
		l["core.cycle_us_p50"] = percentile(cycles, 50)
		l["core.cycle_us_p99"] = percentile(cycles, 99)
		l["core.cycle_us_compiled_p50"] = percentile(t.samples[spanCycleCompiled], 50)
		l["core.cycle_us_fallback_p50"] = percentile(t.samples[spanCycleFallback], 50)
		kernel := t.ns[spanCycleCompiled] + t.ns[spanCycleFallback] + t.ns[spanRunway]
		l["sim.host_ns_per_event"] = float64(kernel) / float64(rr.Counters.Events)
		l["sched.calls"] = float64(t.count[spanSched])
		if n := t.count[spanSched]; n > 0 {
			l["sched.ns_per_call"] = float64(t.ns[spanSched]) / float64(n)
		}
	case w.name == "metro":
		kernel := t.ns[spanMetroWarmup] + t.ns[spanMetroCycles]
		l["sim.host_ns_per_event"] = float64(kernel) / float64(rr.Counters.Events)
		l["backbone.run_ms_per_cycle"] = float64(kernel) / 1e6 / float64(metroWarmup+metroCyc)
	default:
		ms := func(name string) float64 { return float64(t.ns[name]) / 1e6 }
		l["sim.host_ns_per_event"] = float64(t.ns[spanOSUMACRun]) / l["sim.events"]
		l["baseline.run_ms"] = ms(spanBaselineRun)
		store := t.ns[spanBaselineTraced] + t.ns[spanOSUMACTraced] - t.ns[spanBaselineRun] - t.ns[spanOSUMACRun]
		l["trace.store_ns_per_event"] = float64(store) / l["trace.events"]
		l["conformance.check_ms"] = ms(spanBaselineChecked) - ms(spanBaselineTraced)
		l["span.stitch_ms"] = ms(spanStitch)
		l["span.distribution_ms"] = ms(spanDistribution)
		l["obs.export_ms"] = ms(spanExport)
	}
}

// into writes the counters' per-layer metrics.
func (c exactCounters) into(l map[string]float64, subCycles float64) {
	l["sim.events"] = float64(c.Events)
	l["sim.events_per_sub_cycle"] = float64(c.Events) / subCycles
	l["core.cycles"] = float64(c.Cycles)
	if c.Compiled > 0 {
		l["core.compiled_hit_ratio"] = float64(c.Compiled-c.Fallbacks) / float64(c.Compiled)
	}
	l["core.fallback_loss"] = float64(c.FallbackLoss)
	l["core.fallback_contention"] = float64(c.FallbackContention)
	l["core.fallback_amendment"] = float64(c.FallbackAmendment)
	l["core.fallback_format"] = float64(c.FallbackFormat)
	l["core.recompiles"] = float64(c.Recompiles)
	l["backbone.forwarded"] = float64(c.Forwarded)
	l["backbone.delivered"] = float64(c.Delivered)
	l["backbone.ring_sends"] = float64(c.RingSends)
}

// gcStats is a runtime/metrics reading.
type gcStats struct {
	allocBytes, allocObjects, cycles, gcCPU, busyCPU float64
}

var gcMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGC() gcStats {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return gcStats{v(0), v(1), v(2), v(3), v(4) - v(5)}
}

func (g gcStats) sub(o gcStats) gcStats {
	return gcStats{g.allocBytes - o.allocBytes, g.allocObjects - o.allocObjects,
		g.cycles - o.cycles, g.gcCPU - o.gcCPU, g.busyCPU - o.busyCPU}
}

func (g gcStats) into(l map[string]float64, subCycles float64) {
	l["gc.alloc_bytes_per_sub_cycle"] = g.allocBytes / subCycles
	l["gc.allocs_per_sub_cycle"] = g.allocObjects / subCycles
	l["gc.cycles"] = g.cycles
	if g.busyCPU > 0 {
		l["gc.cpu_frac"] = g.gcCPU / g.busyCPU
	}
}

// peakRSSKB reads the process's resident-set high-water mark (VmHWM),
// or 0 where /proc is unavailable.
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}
