package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	osumac "github.com/osu-netlab/osumac"
	"github.com/osu-netlab/osumac/internal/baseline"
	"github.com/osu-netlab/osumac/internal/conformance"
	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/experiments"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/obs"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sched"
	"github.com/osu-netlab/osumac/internal/span"
	"github.com/osu-netlab/osumac/internal/traffic"
)

// Span names. The tree of a job is job → {setup, run, verify}; a traced
// cell's run splits into one span per cycle (named by whether the
// compiled fast path held) plus the final runway, and each cycle holds
// its sched.Schedule calls.
const (
	spanRound         = "round"
	spanJob           = "job"
	spanSetup         = "setup"
	spanRun           = "run"
	spanVerify        = "verify"
	spanCycleCompiled = "cycle.compiled"
	spanCycleFallback = "cycle.fallback"
	spanRunway        = "runway"
	spanSched         = "sched.Schedule"
	spanMetroWarmup   = "backbone.Run.warmup"
	spanMetroCycles   = "backbone.Run.cycles"

	spanDecompose       = "decompose"
	spanBaselineRun     = "baseline.Run"
	spanBaselineTraced  = "baseline.Run+TraceBuffer"
	spanBaselineChecked = "baseline.Run+conformance"
	spanOSUMACRun       = "osumac.Run"
	spanOSUMACTraced    = "osumac.Run+TraceBuffer"
	spanStitch          = "span.Stitch"
	spanDistribution    = "span.NewDistribution"
	spanExport          = "obs.Export"
)

// detailJobs is how many jobs per round keep their cycle-level spans in
// the written trace file; the rest are written down to run/verify, which
// keeps a paper-sweep trace at a few MB. Self times use every span.
const detailJobs = 3

type spanRec struct {
	name   string
	parent int32 // index in the same recorder, -1 for a root
	trace  int32 // job ordinal: all spans of one job share it
	start  int64 // ns since the child's epoch
	end    int64
}

// recorder keeps one goroutine's spans in memory. A nil recorder
// records nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	epoch time.Time
	tid   int
	trace int32
	spans []spanRec
	open  []int32
}

func newRecorder(epoch time.Time, tid int) *recorder {
	return &recorder{epoch: epoch, tid: tid, trace: -1}
}

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, spanRec{name: name, parent: parent, trace: r.trace,
		start: time.Since(r.epoch).Nanoseconds()})
	i := len(r.spans) - 1
	r.open = append(r.open, int32(i))
	return i
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].end = time.Since(r.epoch).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// timedScheduler wraps the cell's reverse scheduler in a span per call.
// It is installed through core.Config.Scheduler, the scheduler seam.
type timedScheduler struct {
	inner sched.ReverseScheduler
	rec   *recorder
}

func (t *timedScheduler) Schedule(reqs []sched.Request, avail int) []frame.UserID {
	s := t.rec.begin(spanSched)
	out := t.inner.Schedule(reqs, avail)
	t.rec.end(s)
	return out
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

// buildCell is osumac.Build with the reverse scheduler supplied, which
// the Scenario API does not expose.
func buildCell(scn osumac.Scenario, s sched.ReverseScheduler) (*core.Network, error) {
	cfg := core.NewConfig()
	cfg.Seed = scn.Seed
	cfg.Scheduler = s
	cfg.Tracer = scn.Tracer
	var dist traffic.SizeDist = traffic.PaperFixed
	if scn.VariableSizes {
		dist = traffic.PaperVariable
	}
	cfg.SizeDist = dist
	if scn.Load > 0 && scn.DataUsers > 0 {
		cfg.MeanInterarrival = traffic.InterarrivalForSlots(scn.Load, scn.DataUsers, dist,
			frame.MaxPayload, phy.CycleLength, osumac.DataSlotsFor(scn.GPSUsers, true))
	}
	if loss := scn.ReverseLoss; loss > 0 {
		cfg.NewReverseModel = func() phy.ErrorModel { return phy.TwoRegime{PLoss: loss, MaxCorrectable: 8} }
	}
	if loss := scn.ForwardLoss; loss > 0 {
		cfg.NewForwardModel = func() phy.ErrorModel { return phy.TwoRegime{PLoss: loss, MaxCorrectable: 8} }
	}
	n, err := core.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < scn.GPSUsers; i++ {
		if _, err := n.AddSubscriber(frame.EIN(1000+i), true, time.Duration(i)*time.Second); err != nil {
			return nil, err
		}
	}
	for i := 0; i < scn.DataUsers; i++ {
		if _, err := n.AddSubscriber(frame.EIN(2000+i), false, time.Duration(i)*500*time.Millisecond); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// runStepped is Network.Run(total) split into one RunBefore per cycle
// boundary and a final inclusive Run to the horizon. RunBefore windows
// fire exactly the events one Run fires, in the same order, so the
// results are unchanged; each window is classified by whether the
// compiled fast path fell back inside it.
func runStepped(n *core.Network, total int, rec *recorder) error {
	kernel := n.Sim()
	start := kernel.Now()
	if err := n.ScheduleCycles(total, start); err != nil {
		return err
	}
	m := n.Metrics()
	for k := 1; k <= total; k++ {
		before := m.CompiledFallbacks.Value()
		s := rec.begin(spanCycleCompiled)
		err := kernel.RunBefore(start + time.Duration(k)*phy.CycleLength)
		rec.end(s)
		if m.CompiledFallbacks.Value() != before {
			rec.spans[s].name = spanCycleFallback
		}
		if err != nil {
			return cellErr(n, err)
		}
	}
	s := rec.begin(spanRunway)
	err := kernel.Run(start + time.Duration(total)*phy.CycleLength + phy.ReverseShift)
	rec.end(s)
	return cellErr(n, err)
}

// cellErr prefers the cell's recorded internal error over the kernel's
// stop, as Network.Run does.
func cellErr(n *core.Network, err error) error {
	if n.Err() != nil {
		return n.Err()
	}
	return err
}

// spanTotals sums span durations and counts by name over recorders.
type spanTotals struct {
	ns    map[string]int64
	count map[string]int
	self  map[string]int64
	// samples holds per-span durations (µs) for the cycle spans, whose
	// percentiles are reported.
	samples map[string][]float64
}

func totalSpans(recs []*recorder) spanTotals {
	t := spanTotals{ns: map[string]int64{}, count: map[string]int{}, self: map[string]int64{},
		samples: map[string][]float64{}}
	for _, r := range recs {
		if r == nil {
			continue
		}
		children := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				children[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			d := s.end - s.start
			t.ns[s.name] += d
			t.count[s.name]++
			t.self[s.name] += d - children[i]
			if s.name == spanCycleCompiled || s.name == spanCycleFallback {
				t.samples[s.name] = append(t.samples[s.name], float64(d)/1e3)
			}
		}
	}
	return t
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open.
func writeChromeTrace(path string, recs []*recorder) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int32 `json:"args,omitempty"`
	}
	var events []event
	for _, r := range recs {
		for _, s := range r.spans {
			if s.trace >= detailJobs && isDetail(s.name) {
				continue
			}
			ev := event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
				Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: r.tid}
			if s.trace >= 0 {
				ev.Args = map[string]int32{"trace": s.trace}
			}
			events = append(events, ev)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func isDetail(name string) bool {
	return name == spanCycleCompiled || name == spanCycleFallback || name == spanRunway || name == spanSched
}

// decomposition is what one tournament grid costs per layer, measured
// by calling each layer directly.
type decomposition struct {
	simEvents   uint64 // OSU-MAC grid points, nil tracer
	subCycles   float64
	traceEvents uint64
}

// decomposeTournament re-runs one tournament grid layer by layer: every
// MAC with a nil tracer, with a TraceBuffer, and (baselines) with the
// conformance checker in front of the buffer; then span.Stitch,
// span.NewDistribution and the obs export, each in its own span.
func decomposeTournament(seed uint64, rec *recorder) (decomposition, error) {
	var d decomposition
	ds := rec.begin(spanDecompose)
	defer rec.end(ds)
	for _, proto := range tournamentProtocols() {
		agg := &baseline.Metrics{}
		for _, load := range tournamentLoads {
			var (
				events []core.TraceEvent
				err    error
			)
			if proto == experiments.OSUMACName {
				events, err = decomposeOSUMAC(seed, load, rec, &d)
			} else {
				events, err = decomposeBaseline(proto, seed, load, rec, agg)
			}
			if err != nil {
				return d, fmt.Errorf("%s at load %.2f: %w", proto, load, err)
			}
			d.traceEvents += uint64(len(events))
			s := rec.begin(spanStitch)
			set := span.Stitch(events)
			rec.end(s)
			s = rec.begin(spanDistribution)
			span.NewDistribution(set)
			rec.end(s)
		}
		if proto != experiments.OSUMACName {
			s := rec.begin(spanExport)
			obs.NewBaselineRegistry(proto, agg).Export(tourneyFrames, time.Duration(tourneyFrames)*phy.CycleLength, true)
			rec.end(s)
		}
	}
	return d, nil
}

func decomposeOSUMAC(seed uint64, load float64, rec *recorder, d *decomposition) ([]core.TraceEvent, error) {
	scn := tournamentScenario(seed, load, nil)
	total := scn.WarmupCycles + scn.Cycles
	n, err := osumac.Build(scn)
	if err != nil {
		return nil, err
	}
	s := rec.begin(spanOSUMACRun)
	err = n.Run(total)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	d.simEvents += n.Sim().EventsFired()
	d.subCycles += float64(scn.DataUsers * total)

	buf := &core.TraceBuffer{Cap: 1 << 20}
	if n, err = osumac.Build(tournamentScenario(seed, load, buf)); err != nil {
		return nil, err
	}
	s = rec.begin(spanOSUMACTraced)
	err = n.Run(total)
	events := buf.Events()
	rec.end(s)
	return events, err
}

func decomposeBaseline(proto string, seed uint64, load float64, rec *recorder, agg *baseline.Metrics) ([]core.TraceEvent, error) {
	cfg := baseline.Config{
		Protocol: baseline.ByName(proto),
		Users:    tourneyUsers,
		Frames:   tourneyFrames,
		Slots:    phy.Format1DataSlots,
		Load:     load,
		Seed:     seed,
	}
	s := rec.begin(spanBaselineRun)
	res, err := baseline.Run(cfg)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	agg.Merge(res.Metrics)

	buf := &core.TraceBuffer{Cap: 1 << 20}
	cfg.Tracer = buf
	s = rec.begin(spanBaselineTraced)
	_, err = baseline.Run(cfg)
	events := buf.Events()
	rec.end(s)
	if err != nil {
		return nil, err
	}

	// The checked run also materializes its buffer, so that its
	// difference from the traced run is the checker alone.
	chk := conformance.NewBaseline(conformance.Options{})
	checked := &core.TraceBuffer{Cap: 1 << 20}
	chk.Next = checked
	cfg.Tracer = chk
	s = rec.begin(spanBaselineChecked)
	_, err = baseline.Run(cfg)
	rep := chk.Finish()
	checked.Events()
	rec.end(s)
	if err != nil {
		return nil, err
	}
	if !rep.OK() {
		return nil, fmt.Errorf("%d invariant violation(s)", len(rep.Violations))
	}
	return events, nil
}
