package experiments

import (
	"fmt"
	"math"
	"time"

	osumac "github.com/osu-netlab/osumac"
	"github.com/osu-netlab/osumac/internal/baseline"
	"github.com/osu-netlab/osumac/internal/conformance"
	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/obs"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/span"
)

// OSUMACName is the tournament name of the full OSU-MAC stack, placing
// it in the same protocol namespace as the baseline Name() strings.
const OSUMACName = "osu-mac"

// TournamentConfig parameterizes a protocols × loads grid run where
// every cell shares the same seed, user count, and frame budget, and
// every protocol's traced run is distilled into one obs.Export.
type TournamentConfig struct {
	// Seed is shared by every (protocol, load) cell.
	Seed uint64
	// Users is the subscriber count (default 10). Tracing bounds it to
	// frame.NoUser-1.
	Users int
	// Frames is the per-cell run length in frames/cycles (default 400).
	Frames int
	// Loads is the load grid (default 0.3, 0.5, 0.7, 0.9).
	Loads []float64
	// Protocols names the contenders: baseline Name() strings and/or
	// OSUMACName. Default: OSU-MAC plus every baseline.
	Protocols []string
	// Workers caps concurrent cell runs; results are byte-identical at
	// any setting (cells land in fixed grid positions).
	Workers int
}

// TournamentEntry is one protocol's aggregated snapshot.
type TournamentEntry struct {
	// Protocol matches Export.Label.
	Protocol string
	// Export carries the merged metrics, per-load gauges, and the span
	// phase distribution over all loads.
	Export *obs.Export
}

// tournamentCell is one (protocol, load) run, already reduced to its
// metric bundle and span distribution.
type tournamentCell struct {
	m    *baseline.Metrics
	dist *span.Distribution
}

// Tournament runs the protocols × loads grid and returns one entry per
// protocol, in cfg.Protocols order. Baseline cells run under the
// conformance baseline checker — an invariant breach fails the
// tournament rather than producing a tainted league table. Output is
// deterministic: same config → byte-identical Exports at any Workers.
func Tournament(cfg TournamentConfig) ([]TournamentEntry, error) {
	if cfg.Users <= 0 {
		cfg.Users = 10
	}
	if cfg.Frames <= 0 {
		cfg.Frames = 400
	}
	if len(cfg.Loads) == 0 {
		cfg.Loads = []float64{0.3, 0.5, 0.7, 0.9}
	}
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = []string{OSUMACName}
		for _, p := range baseline.All() {
			cfg.Protocols = append(cfg.Protocols, p.Name())
		}
	}
	for _, name := range cfg.Protocols {
		if name != OSUMACName && baseline.ByName(name) == nil {
			return nil, fmt.Errorf("tournament: unknown protocol %q", name)
		}
	}

	nl := len(cfg.Loads)
	cells := make([]tournamentCell, len(cfg.Protocols)*nl)
	err := forEachIndexed(len(cells), cfg.Workers, func(i int) error {
		proto, load := cfg.Protocols[i/nl], cfg.Loads[i%nl]
		c, err := runTournamentCell(proto, load, cfg)
		if err != nil {
			return err
		}
		cells[i] = *c
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]TournamentEntry, len(cfg.Protocols))
	for pi, proto := range cfg.Protocols {
		out[pi] = buildTournamentEntry(proto, cfg, cells[pi*nl:(pi+1)*nl])
	}
	return out, nil
}

// runTournamentCell simulates one (protocol, load) cell with tracing on
// and reduces the trace to a span distribution.
func runTournamentCell(proto string, load float64, cfg TournamentConfig) (*tournamentCell, error) {
	if proto == OSUMACName {
		return runTournamentOSUMAC(load, cfg)
	}
	buf := &core.TraceBuffer{Cap: 1 << 20}
	chk := conformance.NewBaseline(conformance.Options{})
	chk.Next = buf
	res, err := baseline.Run(baseline.Config{
		Protocol: baseline.ByName(proto),
		Users:    cfg.Users,
		Frames:   cfg.Frames,
		Slots:    phy.Format1DataSlots,
		Load:     load,
		Seed:     cfg.Seed,
		Tracer:   chk,
	})
	if err != nil {
		return nil, err
	}
	if rep := chk.Finish(); !rep.OK() {
		v := rep.Violations[0]
		return nil, fmt.Errorf("tournament: %s at load %.2f: %d invariant violation(s), first: %s (%s)",
			proto, load, len(rep.Violations), v.Invariant, v.Detail)
	}
	set, err := stitchCell(proto, load, buf)
	if err != nil {
		return nil, err
	}
	return &tournamentCell{m: res.Metrics, dist: span.NewDistribution(set)}, nil
}

// runTournamentOSUMAC runs the full stack on the same grid point and
// adapts its result into the baseline metric vocabulary.
func runTournamentOSUMAC(load float64, cfg TournamentConfig) (*tournamentCell, error) {
	buf := &core.TraceBuffer{Cap: 1 << 20}
	res, err := osumac.Run(osumac.Scenario{
		Seed:          cfg.Seed,
		GPSUsers:      0,
		DataUsers:     cfg.Users,
		Load:          load,
		VariableSizes: true,
		Cycles:        cfg.Frames,
		WarmupCycles:  cfg.Frames / 20,
		Tracer:        buf,
	})
	if err != nil {
		return nil, err
	}
	set, err := stitchCell(OSUMACName, load, buf)
	if err != nil {
		return nil, err
	}
	return &tournamentCell{m: adaptOSUMAC(res, set), dist: span.NewDistribution(set)}, nil
}

// stitchCell stitches one cell's recorded trace. A buffer that filled
// up dropped its oldest events, and messages queued before the drop
// would stitch as partial traces that skew the league's delays and
// phase shares, so a drop fails the tournament like an invariant
// breach does.
func stitchCell(proto string, load float64, buf *core.TraceBuffer) (*span.Set, error) {
	if d := buf.Dropped(); d > 0 {
		return nil, fmt.Errorf("tournament: %s at load %.2f: trace buffer dropped %d event(s)", proto, load, d)
	}
	return span.Stitch(buf.Events()), nil
}

// adaptOSUMAC maps an OSU-MAC result onto the baseline metric bundle so
// one league table compares all contenders over the same descriptors.
// Access delay and deadline misses are not first-class data-plane
// metrics in core.Metrics (the 4 s bound is a GPS-service requirement
// there), so they are recovered from the stitched spans: a message's
// access delay is queue time until its first airtime span opens.
func adaptOSUMAC(res *osumac.Result, set *span.Set) *baseline.Metrics {
	cm := res.Metrics
	m := &baseline.Metrics{
		Frames:             uint64(cm.Cycles),
		SlotsOffered:       cm.DataSlotsOffered.Value(),
		SlotsUsed:          cm.DataSlotsUsed.Value(),
		MessagesGenerated:  cm.MessagesGenerated.Value(),
		MessagesDelivered:  cm.MessagesDelivered.Value(),
		MessagesDropped:    cm.MessagesDropped.Value(),
		FragmentsDelivered: cm.ReverseDataPkts.Value(),
		ContentionTx:       cm.ContentionTx.Value(),
		Collisions:         cm.ContentionCollisions.Value(),
		ReservationGrants:  cm.ReservationPackets.Value() + cm.PiggybackRequests.Value(),
		FairnessIndex:      res.Fairness,
	}
	for _, v := range cm.MessageDelay.Values() {
		m.MessageDelay.Add(v)
	}
	for _, tr := range set.Traces {
		if tr.Kind != span.KindMessage || !tr.Complete {
			continue
		}
		for _, s := range tr.Spans {
			if s.Phase != span.PhaseAirtime {
				continue
			}
			access := s.Start - tr.Start
			m.AccessDelay.Add(access.Seconds())
			if access > phy.GPSAccessDeadline {
				m.DeadlineMisses++
			}
			break
		}
	}
	return m
}

// buildTournamentEntry merges one protocol's per-load cells into a
// single Export: counters and samples sum, span distributions merge,
// the headline fairness is the per-load mean, and each load contributes
// four pinned per-load gauges so the league table can show the curve.
func buildTournamentEntry(proto string, cfg TournamentConfig, cells []tournamentCell) TournamentEntry {
	agg := &baseline.Metrics{}
	dist := &span.Distribution{}
	var fairness float64
	for i := range cells {
		agg.Merge(cells[i].m)
		dist.Merge(cells[i].dist)
		fairness += cells[i].m.FairnessIndex
	}
	agg.FairnessIndex = fairness / float64(len(cells))

	reg := obs.NewBaselineRegistry(proto, agg)
	for li, load := range cfg.Loads {
		m := cells[li].m
		tag := loadTag(load)
		gauge := func(metric, help string, v float64) {
			reg.AddGauge("osumac_baseline_load_"+tag+"_"+metric,
				fmt.Sprintf("%s at load %.2f", help, load),
				func() float64 { return v })
		}
		gauge("utilization", "fraction of offered data slots used", m.Throughput())
		gauge("mean_delay_seconds", "mean end-to-end message delay", m.MessageDelay.Mean())
		gauge("collision_rate", "collisions per frame", m.CollisionRate())
		gauge("fairness", "Jain's index over per-user delivered fragments", m.FairnessIndex)
	}

	exp := reg.Export(cfg.Frames, time.Duration(cfg.Frames)*phy.CycleLength, true)
	exp.Spans = dist
	return TournamentEntry{Protocol: proto, Export: exp}
}

// loadTag renders a load as a fixed-width percent tag ("070" for 0.7)
// so per-load gauge names sort in load order.
func loadTag(load float64) string {
	return fmt.Sprintf("%03d", int(math.Round(load*100)))
}
