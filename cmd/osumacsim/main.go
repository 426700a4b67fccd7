// Command osumacsim runs one OSU-MAC cell simulation with a
// configurable scenario and prints a full metric report — the
// command-line face of the osumac library.
//
// With -http it also serves live telemetry while the run progresses:
// Prometheus metrics at /metrics, the per-cycle series at /series, the
// span phase distribution at /spans (with -spans), a liveness probe at
// /healthz, and the Go profiler under /debug/pprof/.
//
// With -spans the run captures the protocol event stream, stitches it
// into lifecycle traces and appends a critical-path phase summary to
// the report. With -export FILE the full telemetry snapshot (metrics,
// per-cycle series, span distribution when captured) is written as
// JSON — the input format of cmd/osumacdiff.
//
// With -conformance the run streams every protocol event through the
// runtime invariant checker (internal/conformance): GPS report
// deadlines on ideal channels, slot-assignment disjointness, the
// format-switching rule, CF2-listener exclusion and grant-starvation
// freedom. The verdict is appended to the report and any breach makes
// the command exit nonzero.
//
// With -cells N (N > 1) it instead runs a multi-cell metro deployment
// on a wired backbone — one kernel per cell, synchronized at
// conservative-lookahead barriers — and prints a deterministic digest
// report, byte-identical at any GOMAXPROCS. The metro path reads only
// -cells, -gps, -data, -load, -seed, -warmup, -cycles, -wire-delay and
// -json; any other flag set explicitly is an error there, and so is
// -wire-delay on a single cell. -hold and -publish-every need -http,
// and -dump-dir, -flight-cap, -flight-cooldown and
// -flight-fallback-rate need -flight-recorder.
//
// Examples:
//
//	osumacsim -gps 8 -data 10 -load 0.9 -cycles 500 -loss 0.05
//	osumacsim -cycles 5000 -http :8080 -hold 1m
//	osumacsim -cycles 300 -spans -export run-a.json
//	osumacsim -gps 7 -data 8 -load 1.0 -cycles 500 -conformance
//	osumacsim -cells 100 -gps 1 -data 5 -warmup 2 -cycles 4 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	osumac "github.com/osu-netlab/osumac"
	"github.com/osu-netlab/osumac/internal/conformance"
	"github.com/osu-netlab/osumac/internal/experiments"
	"github.com/osu-netlab/osumac/internal/flight"
	"github.com/osu-netlab/osumac/internal/obs"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/span"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "osumacsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("osumacsim", flag.ContinueOnError)
	var (
		seed    = fs.Uint64("seed", 1, "random seed")
		gps     = fs.Int("gps", 4, "GPS (bus) subscribers, 0-8")
		data    = fs.Int("data", 10, "regular data subscribers")
		load    = fs.Float64("load", 0.8, "target load index ρ on the reverse channel")
		cycles  = fs.Int("cycles", 500, "notification cycles to simulate")
		warmup  = fs.Int("warmup", 20, "warm-up cycles before the measured run")
		fixed   = fs.Bool("fixed", false, "fixed 120 B messages instead of uniform 40-500 B")
		revLoss = fs.Float64("loss", 0, "reverse-channel codeword loss probability (two-regime model)")
		fwdLoss = fs.Float64("fwdloss", 0, "forward-channel codeword loss probability")
		noCF2   = fs.Bool("no-cf2", false, "disable the second control-field set")
		noDyn   = fs.Bool("no-dynamic", false, "disable dynamic GPS slot adjustment (pin format 1)")
		asJSON  = fs.Bool("json", false, "emit the metric snapshot as JSON")

		httpAddr = fs.String("http", "", "serve live telemetry on this address (/metrics, /series, /spans, /healthz, /debug/pprof/)")
		pubEvery = fs.Int("publish-every", 10, "cycles between telemetry snapshots in -http mode")
		hold     = fs.Duration("hold", 0, "keep the -http endpoint up this long after the run completes")

		spans      = fs.Bool("spans", false, "capture lifecycle spans and report the critical-path phase summary")
		exportPath = fs.String("export", "", "write the telemetry snapshot (metrics, series, spans) as JSON to this file")
		conf       = fs.Bool("conformance", false, "check protocol invariants at runtime and exit nonzero on any breach")
		legacy     = fs.Bool("legacy-grants", false, "restore the pre-deadline-aware fixed GPS grant ordering (ablation baseline)")

		cells     = fs.Int("cells", 1, "OSU-MAC cells on a wired backbone; >1 selects the multi-cell metro path")
		wireDelay = fs.Duration("wire-delay", phy.CycleLength, "one-way backbone latency between base stations, > 0 (multi-cell only)")

		flightOn       = fs.Bool("flight-recorder", false, "keep an always-on ring of trace events and dump it on anomalies (deadline misses, conformance breaches, fallback storms)")
		dumpDir        = fs.String("dump-dir", ".", "directory receiving flight-recorder JSONL dumps")
		flightCap      = fs.Int("flight-cap", 1<<14, "flight ring capacity in events (rounded up to a power of two)")
		flightCooldown = fs.Int("flight-cooldown", 100, "minimum cycles between two dumps of the same trigger")
		flightFallback = fs.Float64("flight-fallback-rate", 0, "compiled-cycle fallback rate (0-1] over a 50-cycle window that triggers a dump; 0 disables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cells < 1 {
		return fmt.Errorf("-cells %d: need at least one cell", *cells)
	}
	// Every flag set must be one the selected path reads, beside the
	// flag it depends on. Visit walks the set flags in name order, so
	// the error is deterministic.
	on := map[string]bool{"http": *httpAddr != "", "flight-recorder": *flightOn}
	var unread, orphans []string
	fs.Visit(func(f *flag.Flag) {
		if *cells > 1 && !metroFlags[f.Name] || *cells == 1 && f.Name == "wire-delay" {
			unread = append(unread, "-"+f.Name)
		}
		if parent := dependentFlags[f.Name]; parent != "" && !on[parent] {
			orphans = append(orphans, fmt.Sprintf("-%s needs -%s", f.Name, parent))
		}
	})
	if len(unread) > 0 && *cells > 1 {
		return fmt.Errorf("%s: single-cell only; drop or use -cells 1", strings.Join(unread, " "))
	}
	if len(unread) > 0 {
		return fmt.Errorf("-wire-delay: multi-cell only; drop it or use -cells > 1")
	}
	if len(orphans) > 0 {
		return fmt.Errorf("%s", strings.Join(orphans, "; "))
	}
	if *cells > 1 {
		return runMetro(out, metroArgs{
			cells: *cells, gps: *gps, data: *data, load: *load,
			seed: *seed, warmup: *warmup, cycles: *cycles,
			wireDelay: *wireDelay, asJSON: *asJSON,
		})
	}

	scn := osumac.Scenario{
		Seed:                *seed,
		GPSUsers:            *gps,
		DataUsers:           *data,
		Load:                *load,
		VariableSizes:       !*fixed,
		Cycles:              *cycles,
		WarmupCycles:        *warmup,
		ReverseLoss:         *revLoss,
		ForwardLoss:         *fwdLoss,
		DisableSecondCF:     *noCF2,
		DisableDynamicSlots: *noDyn,
		LegacyGPSGrants:     *legacy,
	}

	// Span capture rides the normal tracer hook; without -spans the
	// tracer stays nil and the hot path stays allocation-free.
	var buf *osumac.TraceBuffer
	if *spans {
		buf = &osumac.TraceBuffer{Cap: 1 << 22}
		scn.Tracer = buf
	}
	if *exportPath != "" {
		// Exports carry the per-cycle series for osumacdiff.
		scn.CollectSeries = true
	}

	// Tracer chain, front to back: flight recorder → conformance
	// checker → span buffer. The recorder sits at the front so that the
	// moment a downstream consumer (the checker) flags an event, the
	// event is already in the ring and lands in the dump.
	var (
		chk *osumac.ConformanceChecker
		rec *flight.Recorder
	)
	tail := scn.Tracer // the span buffer, or nil
	if *conf {
		opts := osumac.ConformanceOptionsFor(scn)
		if *flightOn {
			// rec is assigned below; the hook fires only during the run.
			opts.OnViolation = func(v conformance.Violation) {
				if rec != nil {
					rec.TriggerNow(flight.TriggerConformance, v.Cycle)
				}
			}
		}
		chk = conformance.New(opts)
		chk.Next = tail
		tail = chk
	}
	if *flightOn {
		rec = flight.NewRecorder(flight.Options{
			RingCap:               *flightCap,
			DumpDir:               *dumpDir,
			Seed:                  *seed,
			CooldownCycles:        *flightCooldown,
			FallbackRateThreshold: *flightFallback,
			Next:                  tail,
		})
		tail = rec
	}
	scn.Tracer = tail

	build := func() (*osumac.Network, error) {
		n, err := osumac.Build(scn)
		if err == nil && rec != nil {
			// The fallback-rate trigger reads the compiled-cycle
			// counters, which exist only once the network does.
			rec.SetMetrics(n.Metrics())
		}
		return n, err
	}

	var res *osumac.Result
	if *httpAddr != "" {
		// The live endpoint serves /series, so always collect it.
		scn.CollectSeries = true
		n, err := build()
		if err != nil {
			return err
		}
		total := scn.WarmupCycles + scn.Cycles
		if total <= 0 {
			return fmt.Errorf("no cycles to run")
		}
		if err := serveLive(n, total, *httpAddr, *pubEvery, *hold, out, buf, rec); err != nil {
			return err
		}
		res = osumac.Summarize(n)
	} else if *conf || *flightOn {
		n, err := build()
		if err != nil {
			return err
		}
		total := scn.WarmupCycles + scn.Cycles
		if total <= 0 {
			return fmt.Errorf("no cycles to run")
		}
		if err := n.Run(total); err != nil {
			return err
		}
		res = osumac.Summarize(n)
	} else {
		var err error
		res, err = osumac.Run(scn)
		if err != nil {
			return err
		}
	}

	var dist *span.Distribution
	if buf != nil {
		dist = span.NewDistribution(span.Stitch(buf.Events()))
	}
	if *exportPath != "" {
		if err := writeExport(*exportPath, res.Metrics, dist, buf, rec); err != nil {
			return err
		}
		fmt.Fprintf(out, "telemetry snapshot written to %s\n", *exportPath)
	}
	if err := report(out, scn, res, *asJSON); err != nil {
		return err
	}
	if dist != nil && !*asJSON {
		reportSpans(out, dist)
	}
	if rec != nil {
		if err := rec.Err(); err != nil {
			return fmt.Errorf("flight recorder: %w", err)
		}
		if dumps := rec.Dumps(); len(dumps) > 0 {
			fmt.Fprintf(out, "flight recorder: %d anomaly dump(s) — inspect with osumactrace -input FILE -autopsy\n", len(dumps))
			for _, d := range dumps {
				fmt.Fprintf(out, "  %s\n", d)
			}
		} else {
			fmt.Fprintf(out, "flight recorder: no anomalies (%d events recorded)\n", rec.Ring().Recorded())
		}
	}
	if chk != nil {
		rep := chk.Finish()
		if err := rep.WriteText(out); err != nil {
			return err
		}
		if !rep.OK() {
			return fmt.Errorf("%d protocol invariant violation(s) over %d cycles",
				len(rep.Violations)+rep.Truncated, rep.Cycles)
		}
	}
	return nil
}

// metroFlags are the flags the multi-cell path reads.
var metroFlags = map[string]bool{
	"cells": true, "gps": true, "data": true, "load": true, "seed": true,
	"warmup": true, "cycles": true, "wire-delay": true, "json": true,
}

// dependentFlags maps each flag that only matters beside another to
// that flag.
var dependentFlags = map[string]string{
	"hold":                 "http",
	"publish-every":        "http",
	"dump-dir":             "flight-recorder",
	"flight-cap":           "flight-recorder",
	"flight-cooldown":      "flight-recorder",
	"flight-fallback-rate": "flight-recorder",
}

// metroArgs carries the multi-cell flags into the metro path.
type metroArgs struct {
	cells, gps, data int
	load             float64
	seed             uint64
	warmup, cycles   int
	wireDelay        time.Duration
	asJSON           bool
}

// runMetro drives a multi-cell deployment through the metro runner and
// prints a deterministic report: same seed and population → identical
// bytes at any GOMAXPROCS. CI diffs the outputs of one and two procs
// directly.
func runMetro(out io.Writer, a metroArgs) error {
	routed := 2
	if a.data < routed {
		routed = a.data
	}
	res, err := experiments.Metro(experiments.MetroOptions{
		Cells:         a.cells,
		GPSPerCell:    a.gps,
		DataPerCell:   a.data - routed,
		RoutedPerCell: routed,
		Load:          a.load,
		Seed:          a.seed,
		Warmup:        a.warmup,
		Cycles:        a.cycles,
		WireDelay:     a.wireDelay,
	})
	if err != nil {
		return err
	}
	if a.asJSON {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(b))
		return nil
	}
	fmt.Fprintf(out, "metro: %d cells × (%d GPS + %d data) = %d subscribers, load %.2f, %d+%d cycles\n",
		res.Cells, a.gps, a.data, res.Subscribers, a.load, a.warmup, a.cycles)
	fmt.Fprintln(out, "backbone")
	fmt.Fprintf(out, "  ring sends accepted     %d\n", res.RingSends)
	fmt.Fprintf(out, "  forwarded / delivered   %d / %d\n", res.Forwarded, res.Delivered)
	fmt.Fprintf(out, "  end-to-end latency      %.4f s mean\n", res.MeanLatency)
	fmt.Fprintln(out, "cells")
	fmt.Fprintf(out, "  mean utilization        %.4f\n", res.Utilization)
	fmt.Fprintf(out, "  metrics digest          %016x\n", res.Digest)
	return nil
}

// writeExport snapshots the registry (plus the span distribution, when
// captured) into the JSON file osumacdiff consumes. Only deterministic
// gauges may be registered here — the export is the input to the
// twin-run byte-identity gate. Runtime self-telemetry (heap, GC) is
// deliberately absent: it is served live-only.
func writeExport(path string, m *osumac.Metrics, dist *span.Distribution, buf *osumac.TraceBuffer, rec *flight.Recorder) error {
	reg := obs.NewRegistry(m)
	addHealthGauges(reg, buf, rec)
	exp := reg.Export(m.Cycles, time.Duration(m.Cycles)*osumac.CycleLength, true)
	exp.Spans = dist
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(exp); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// addHealthGauges registers the deterministic tracing-health gauges on
// a registry: trace-buffer drops and flight-ring accounting. Both are
// pure functions of the scenario, so they are safe in exports.
func addHealthGauges(reg *obs.Registry, buf *osumac.TraceBuffer, rec *flight.Recorder) {
	if buf != nil {
		reg.AddGauge("osumac_trace_buffer_dropped", "events dropped by the span trace buffer (raise its Cap if nonzero)",
			func() float64 { return float64(buf.Dropped()) })
	}
	if rec != nil {
		reg.AddGauge("osumac_flight_ring_recorded", "events recorded by the flight ring",
			func() float64 { return float64(rec.Ring().Recorded()) })
		reg.AddGauge("osumac_flight_ring_overwritten", "flight-ring events lost to the fixed capacity",
			func() float64 { return float64(rec.Ring().Overwritten()) })
		reg.AddGauge("osumac_flight_dumps", "anomaly dumps written by the flight recorder",
			func() float64 { return float64(len(rec.Dumps())) })
	}
}

// reportSpans appends the critical-path phase summary to the report.
func reportSpans(out io.Writer, dist *span.Distribution) {
	fmt.Fprintln(out, "lifecycle spans")
	fmt.Fprintf(out, "  traces %d (%d complete, %d violations, %d stale, %d retx)\n",
		dist.Traces, dist.Complete, dist.Violations, dist.Stale, dist.Retx)
	for _, ps := range dist.Phases {
		if ps.Count == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-18s n=%-6d total=%8.2fs max=%7.3fs\n",
			ps.Phase, ps.Count, ps.TotalSeconds, ps.MaxSeconds)
	}
}

// serveLive drives the already-built network in publish-sized chunks of
// cycles, publishing an immutable telemetry snapshot between chunks.
// The kernel schedule is identical to a one-shot Network.Run — only the
// pauses to publish differ — so results are byte-for-byte the same.
// With span capture on, each snapshot carries the phase distribution of
// the traces stitched so far, serving /spans live.
func serveLive(n *osumac.Network, total int, addr string, every int, hold time.Duration, out io.Writer, buf *osumac.TraceBuffer, rec *flight.Recorder) error {
	if every <= 0 {
		every = 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srvErr := make(chan error, 1)
	live := obs.NewLive()
	srv := &http.Server{Handler: live.Handler()}
	go func() { srvErr <- srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()
	fmt.Fprintf(out, "telemetry: http://%s/metrics /series /spans /healthz /debug/pprof/\n", ln.Addr())

	kernel := n.Sim()
	reg := obs.NewRegistry(n.Metrics())
	addHealthGauges(reg, buf, rec)
	reg.AddGauge("osumac_event_queue_depth", "events queued on the kernel's heap (excludes cycle starts and compiled slot actions, which the cell's action source holds)",
		func() float64 { return float64(kernel.Pending()) })
	publish := func(cycle int, at time.Duration, done bool) {
		exp := reg.Export(cycle, at, done)
		if buf != nil {
			exp.Spans = span.NewDistribution(span.Stitch(buf.Events()))
		}
		// Go runtime self-telemetry is live-only: it never enters the
		// written export (wall-clock facts would break osumacdiff).
		exp.Runtime = obs.GatherRuntime()
		live.Publish(exp)
	}

	start := kernel.Now()
	if err := n.ScheduleCycles(total, start); err != nil {
		return err
	}
	publish(0, start, false)
	for c := every; ; c += every {
		if c > total {
			c = total
		}
		horizon := start + time.Duration(c)*phy.CycleLength + phy.ReverseShift
		if err := kernel.Run(horizon); err != nil {
			return err
		}
		if err := n.Err(); err != nil {
			return err
		}
		if c == total {
			break
		}
		publish(n.Cycle(), kernel.Now(), false)
	}
	n.FlushSeries()
	publish(n.Cycle(), kernel.Now(), true)
	if hold > 0 {
		fmt.Fprintf(out, "run complete; holding the endpoint for %v\n", hold)
		select {
		case <-time.After(hold):
		case err := <-srvErr:
			return fmt.Errorf("telemetry server: %w", err)
		}
	}
	return nil
}

func report(out io.Writer, scn osumac.Scenario, res *osumac.Result, asJSON bool) error {
	m := res.Metrics

	if asJSON {
		b, err := m.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(b))
		return nil
	}

	fmt.Fprintf(out, "scenario: %d GPS + %d data users, load %.2f, %d cycles (%.1f min air time)\n",
		scn.GPSUsers, scn.DataUsers, scn.Load, m.Cycles, float64(m.Cycles)*osumac.CycleLength.Minutes())
	fmt.Fprintln(out)
	fmt.Fprintln(out, "reverse channel")
	fmt.Fprintf(out, "  utilization (slots)     %.4f\n", res.Utilization)
	fmt.Fprintf(out, "  goodput (payload)       %.4f\n", m.PayloadUtilization())
	fmt.Fprintf(out, "  data packets received   %d (%d in the CF2-covered last slot)\n",
		m.ReverseDataPkts.Value(), m.LastSlotDataPkts.Value())
	fmt.Fprintf(out, "  fragment losses (RS)    %d\n", m.FragmentsLost.Value())
	fmt.Fprintln(out, "messages")
	fmt.Fprintf(out, "  generated / delivered / dropped   %d / %d / %d\n",
		m.MessagesGenerated.Value(), m.MessagesDelivered.Value(), m.MessagesDropped.Value())
	fmt.Fprintf(out, "  delay mean / p95 / max            %.2f / %.2f / %.2f cycles\n",
		res.MeanDelayCycles,
		m.MessageDelay.Percentile(95)/osumac.CycleLength.Seconds(),
		m.MessageDelay.Max()/osumac.CycleLength.Seconds())
	fmt.Fprintln(out, "contention")
	fmt.Fprintf(out, "  collision probability   %.4f\n", res.CollisionProbability)
	fmt.Fprintf(out, "  reservation latency     %.2f s mean\n", res.ReservationLatency)
	fmt.Fprintf(out, "  control overhead        %.4f signals/data packet\n", res.ControlOverhead)
	fmt.Fprintf(out, "  contention slots        %d offered, %d used, %d collisions\n",
		m.ContentionSlotsOpen.Value(), m.ContentionSlotsUsed.Value(), m.ContentionCollisions.Value())
	fmt.Fprintln(out, "service quality")
	fmt.Fprintf(out, "  Jain fairness           %.4f\n", res.Fairness)
	fmt.Fprintf(out, "  registration ≤2 / ≤10   %.2f / %.2f (targets 0.80 / 0.99)\n",
		res.RegistrationWithin2, res.RegistrationWithin10)
	if scn.GPSUsers > 0 {
		fmt.Fprintln(out, "GPS real-time service")
		fmt.Fprintf(out, "  reports gen/delivered   %d / %d\n", m.GPSGenerated.Value(), m.GPSDelivered.Value())
		fmt.Fprintf(out, "  access delay mean/max   %.2f / %.3f s (bound 4 s)\n",
			m.GPSAccessDelay.Mean(), res.GPSMaxAccessDelay)
		fmt.Fprintf(out, "  deadline violations     %d\n", res.GPSDeadlineViolations)
	}
	if scn.ReverseLoss > 0 || scn.ForwardLoss > 0 {
		fmt.Fprintln(out, "channel")
		fmt.Fprintf(out, "  control-field decode failures  %d\n", m.CFDecodeFailures.Value())
	}
	return nil
}
