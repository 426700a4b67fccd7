package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	osumac "github.com/osu-netlab/osumac"
	"github.com/osu-netlab/osumac/internal/backbone"
	"github.com/osu-netlab/osumac/internal/baseline"
	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/experiments"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/traffic"
)

// workload is one fixed set of jobs, generated from the seed. Every
// round of a workload runs the same jobs, so a job's digest must repeat
// across rounds.
type workload struct {
	name string
	jobs func(seed uint64) []job
	// warmup is run once, untimed, before a round; nil for metro, whose
	// users pay a cold start on every run.
	warmup func(seed uint64) job
	// pooled jobs run on a closed pool of GOMAXPROCS workers; the others
	// run one at a time and parallelise internally.
	pooled bool
}

// job is one unit of work: exactly one of cell, metro and tourney is set.
type job struct {
	key       string
	subCycles float64 // simulated subscriber-cycles (tournament: users × frames)
	cell      *osumac.Scenario
	metro     *experiments.MetroOptions
	tourney   *experiments.TournamentConfig
}

// Workload sizes. A paper cell is 4 GPS buses + 10 e-mail users (paper
// §5); metro cells are smaller so that 14 000 of them fit in memory.
const (
	cellGPS, cellData       = 4, 10
	cellWarmup              = 20
	sweepSeeds, sweepCycles = 7, 5000
	lossySeeds, lossyCycles = 36, 1000
	lossyLoad, lossyLoss    = 0.8, 0.05
	metroCells              = 14000
	metroWarmup, metroCyc   = 2, 20
	tourneyJobs             = 34
	tourneyUsers            = 10
	tourneyFrames           = 200
)

// workloads are the benchmark's workloads; README.md gives the reason
// for each.
var workloads = []*workload{
	{
		// The paper's load sweep on an ideal channel: compiled-cycle fast
		// path, scheduler and clean-decode codec.
		name:   "paper-sweep",
		jobs:   paperSweepJobs,
		warmup: func(seed uint64) job { return cellJob(seed+sweepSeeds, lossyLoad, 0, sweepCycles) },
		pooled: true,
	},
	{
		// 5 % codeword loss: every cycle falls back to the event kernel
		// and RS correction dominates.
		name:   "lossy-cell",
		jobs:   lossyJobs,
		warmup: func(seed uint64) job { return cellJob(seed+lossySeeds, lossyLoad, lossyLoss, lossyCycles) },
		pooled: true,
	},
	{
		// 14 000 sharded cells on one backbone: the only workload in
		// backbone; set-up and memory dominate.
		name: "metro",
		jobs: func(seed uint64) []job { return []job{metroJob(seed, metroCells)} },
	},
	{
		// Six MACs under tracing: trace store, conformance, span
		// stitching, obs export and the baselines.
		name:   "tournament",
		jobs:   tournamentJobs,
		warmup: func(seed uint64) job { return tournamentJob(seed + tourneyJobs) },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func cellJob(seed uint64, load, loss float64, cycles int) job {
	scn := osumac.Scenario{
		Seed:          seed,
		GPSUsers:      cellGPS,
		DataUsers:     cellData,
		Load:          load,
		VariableSizes: true,
		Cycles:        cycles,
		WarmupCycles:  cellWarmup,
		ReverseLoss:   loss,
		ForwardLoss:   loss,
	}
	return job{
		key:       fmt.Sprintf("seed=%d/load=%.2f", seed, load),
		subCycles: float64((cellGPS + cellData) * (cellWarmup + cycles)),
		cell:      &scn,
	}
}

// paperSweepJobs orders the jobs by falling load, which is falling run
// time, so that the pool's last jobs are short and the tail where one
// worker idles stays small.
func paperSweepJobs(seed uint64) []job {
	var out []job
	for l := len(osumac.PaperLoads) - 1; l >= 0; l-- {
		for s := uint64(0); s < sweepSeeds; s++ {
			out = append(out, cellJob(seed+s, osumac.PaperLoads[l], 0, sweepCycles))
		}
	}
	return out
}

func lossyJobs(seed uint64) []job {
	out := make([]job, lossySeeds)
	for s := range out {
		out[s] = cellJob(seed+uint64(s), lossyLoad, lossyLoss, lossyCycles)
	}
	return out
}

// metroOptions is the metro deployment: the sharded engine of
// experiments.DefaultMetro with 1 GPS + 3 local + 2 routed subscribers
// per cell.
func metroOptions(seed uint64, cells int) experiments.MetroOptions {
	o := experiments.DefaultMetro()
	o.Cells = cells
	o.GPSPerCell, o.DataPerCell, o.RoutedPerCell = 1, 3, 2
	o.Load = lossyLoad
	o.Seed = seed
	o.Warmup, o.Cycles = metroWarmup, metroCyc
	return o
}

func metroJob(seed uint64, cells int) job {
	o := metroOptions(seed, cells)
	subs := o.GPSPerCell + o.DataPerCell + o.RoutedPerCell
	return job{
		key:       fmt.Sprintf("seed=%d/cells=%d", seed, cells),
		subCycles: float64(cells * subs * (o.Warmup + o.Cycles)),
		metro:     &o,
	}
}

func tournamentJob(seed uint64) job {
	cfg := experiments.TournamentConfig{
		Seed:    seed,
		Users:   tourneyUsers,
		Frames:  tourneyFrames,
		Workers: runtime.GOMAXPROCS(0),
	}
	grid := len(tournamentProtocols()) * len(tournamentLoads)
	return job{
		key:       fmt.Sprintf("seed=%d", seed),
		subCycles: float64(tourneyUsers * tourneyFrames * grid),
		tourney:   &cfg,
	}
}

func tournamentJobs(seed uint64) []job {
	out := make([]job, tourneyJobs)
	for i := range out {
		out[i] = tournamentJob(seed + uint64(i))
	}
	return out
}

// tournamentLoads and tournamentProtocols are experiments.Tournament's
// default grid.
var tournamentLoads = []float64{0.3, 0.5, 0.7, 0.9}

func tournamentProtocols() []string {
	out := []string{experiments.OSUMACName}
	for _, p := range baseline.All() {
		out = append(out, p.Name())
	}
	return out
}

// tournamentScenario is the OSU-MAC grid point experiments.Tournament
// runs at one load.
func tournamentScenario(seed uint64, load float64, tr osumac.Tracer) osumac.Scenario {
	return osumac.Scenario{
		Seed:          seed,
		DataUsers:     tourneyUsers,
		Load:          load,
		VariableSizes: true,
		Cycles:        tourneyFrames,
		WarmupCycles:  tourneyFrames / 20,
		Tracer:        tr,
	}
}

// jobResult is one job's outcome as a child reports it.
type jobResult struct {
	Key string `json:"key"`
	// SetupNS is the construction time; RunNS the simulation time.
	// Their sum is the job time.
	SetupNS int64  `json:"setupNs"`
	RunNS   int64  `json:"runNs"`
	Digest  string `json:"digest"`
	Err     string `json:"err,omitempty"`
	// Conformance is empty when the job was not re-run under the
	// conformance checker, "ok" when the re-run was clean, and the
	// failure otherwise.
	Conformance string `json:"conformance,omitempty"`
}

// exactCounters are the deterministic work counters read from public
// fields after a job. They repeat bit-for-bit for a fixed seed.
type exactCounters struct {
	Events             uint64 `json:"simEvents"`
	Cycles             uint64 `json:"coreCycles"`
	Compiled           uint64 `json:"coreCompiled"`
	Fallbacks          uint64 `json:"coreFallbacks"`
	FallbackLoss       uint64 `json:"coreFallbackLoss"`
	FallbackContention uint64 `json:"coreFallbackContention"`
	FallbackAmendment  uint64 `json:"coreFallbackAmendment"`
	FallbackFormat     uint64 `json:"coreFallbackFormat"`
	Recompiles         uint64 `json:"coreRecompiles"`
	Forwarded          uint64 `json:"backboneForwarded"`
	Delivered          uint64 `json:"backboneDelivered"`
	RingSends          uint64 `json:"backboneRingSends"`
}

func (c *exactCounters) add(o exactCounters) {
	c.Events += o.Events
	c.Cycles += o.Cycles
	c.Compiled += o.Compiled
	c.Fallbacks += o.Fallbacks
	c.FallbackLoss += o.FallbackLoss
	c.FallbackContention += o.FallbackContention
	c.FallbackAmendment += o.FallbackAmendment
	c.FallbackFormat += o.FallbackFormat
	c.Recompiles += o.Recompiles
	c.Forwarded += o.Forwarded
	c.Delivered += o.Delivered
	c.RingSends += o.RingSends
}

// addCell folds one cell's kernel and compiled-cycle counters in.
func (c *exactCounters) addCell(n *core.Network) {
	m := n.Metrics()
	c.Events += n.Sim().EventsFired()
	c.Cycles += uint64(m.Cycles)
	c.Compiled += m.CompiledCycles.Value()
	c.Fallbacks += m.CompiledFallbacks.Value()
	c.FallbackLoss += m.CompiledFallbackLoss.Value()
	c.FallbackContention += m.CompiledFallbackContention.Value()
	c.FallbackAmendment += m.CompiledFallbackAmendment.Value()
	c.FallbackFormat += m.CompiledFallbackFormat.Value()
	c.Recompiles += m.CompiledRecompiles.Value()
}

// runJob executes one job. rec is nil in untimed and untraced runs.
func runJob(j job, rec *recorder) (jobResult, exactCounters) {
	js := rec.begin(spanJob)
	defer rec.end(js)
	var (
		res jobResult
		ctr exactCounters
		err error
	)
	switch {
	case j.cell != nil:
		res, ctr, err = runCellJob(*j.cell, rec)
	case j.metro != nil:
		res, ctr, err = runMetroJob(*j.metro, rec)
	default:
		res, err = runTournamentJob(*j.tourney, rec)
	}
	res.Key = j.key
	if err != nil {
		res.Err = err.Error()
	}
	return res, ctr
}

// runCellJob builds and runs one cell. Untraced, it goes through the
// public osumac.Build and Network.Run; traced, it builds the same cell
// with a timed scheduler and steps the kernel one cycle at a time.
func runCellJob(scn osumac.Scenario, rec *recorder) (jobResult, exactCounters, error) {
	var (
		res jobResult
		ctr exactCounters
		n   *core.Network
		err error
	)
	total := scn.WarmupCycles + scn.Cycles
	t0 := time.Now()
	s := rec.begin(spanSetup)
	if rec == nil {
		n, err = osumac.Build(scn)
	} else {
		n, err = buildCell(scn, &timedScheduler{inner: osumac.NewRoundRobin(), rec: rec})
	}
	rec.end(s)
	t1 := time.Now()
	res.SetupNS = t1.Sub(t0).Nanoseconds()
	if err != nil {
		return res, ctr, err
	}
	s = rec.begin(spanRun)
	if rec == nil {
		err = n.Run(total)
	} else {
		err = runStepped(n, total, rec)
	}
	rec.end(s)
	res.RunNS = time.Since(t1).Nanoseconds()
	if err != nil {
		return res, ctr, err
	}
	s = rec.begin(spanVerify)
	res.Digest, err = snapshotDigest(n.Metrics())
	ctr.addCell(n)
	rec.end(s)
	return res, ctr, err
}

// conformanceRerun runs a cell job again, untimed, with the
// protocol-invariant checker attached, and returns "ok" when it reports
// no violation and reproduces the digest.
func conformanceRerun(scn osumac.Scenario, digest string) string {
	scn.Conformance = true
	res, err := osumac.Run(scn)
	if err != nil {
		return err.Error()
	}
	got, err := snapshotDigest(res.Metrics)
	if err != nil {
		return err.Error()
	}
	if got != digest {
		return fmt.Sprintf("conformance re-run digest %s differs from %s", got, digest)
	}
	return "ok"
}

func formatDigest(h uint64) string { return fmt.Sprintf("%016x", h) }

// snapshotDigest is FNV-1a over the JSON of a cell's metrics snapshot.
func snapshotDigest(m *core.Metrics) (string, error) {
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(b)
	return formatDigest(h.Sum64()), nil
}

// runMetroJob follows experiments.Metro step for step, timing set-up
// (NewWithOptions plus every AddSubscriber) apart from the run, and
// computes the same digest.
func runMetroJob(o experiments.MetroOptions, rec *recorder) (jobResult, exactCounters, error) {
	var (
		res jobResult
		ctr exactCounters
	)
	t0 := time.Now()
	s := rec.begin(spanSetup)
	in, err := buildMetro(o)
	rec.end(s)
	t1 := time.Now()
	res.SetupNS = t1.Sub(t0).Nanoseconds()
	if err != nil {
		return res, ctr, err
	}
	s = rec.begin(spanRun)
	ring, err := runMetro(in, o, rec)
	rec.end(s)
	res.RunNS = time.Since(t1).Nanoseconds()
	if err != nil {
		return res, ctr, err
	}
	s = rec.begin(spanVerify)
	defer rec.end(s)
	res.Digest, err = metroDigest(in, ring)
	for c := 0; c < in.Cells(); c++ {
		ctr.addCell(in.Cell(c))
	}
	ctr.Forwarded = in.Forwarded.Value()
	ctr.Delivered = in.Delivered.Value()
	ctr.RingSends = uint64(ring)
	return res, ctr, err
}

// routedAddr is experiments.Metro's global address of routed subscriber
// r in cell c.
func routedAddr(c, r, perCell int) backbone.Address {
	return backbone.Address(20000 + c*perCell + r)
}

// buildMetro constructs the deployment exactly as experiments.Metro does.
func buildMetro(o experiments.MetroOptions) (*backbone.Internet, error) {
	cfg := core.NewConfig()
	cfg.Seed = o.Seed
	dataUsers := o.DataPerCell + o.RoutedPerCell
	if o.Load > 0 && dataUsers > 0 {
		cfg.MeanInterarrival = traffic.InterarrivalForSlots(o.Load, dataUsers, cfg.SizeDist,
			frame.MaxPayload, phy.CycleLength, osumac.DataSlotsFor(o.GPSPerCell, true))
	}
	in, err := backbone.NewWithOptions(cfg, backbone.Options{
		Cells:     o.Cells,
		WireDelay: o.WireDelay,
		Sharded:   o.Sharded,
		Lookahead: o.Lookahead,
	})
	if err != nil {
		return nil, err
	}
	for c := 0; c < o.Cells; c++ {
		cell := in.Cell(c)
		for i := 0; i < o.GPSPerCell; i++ {
			if _, err := cell.AddSubscriber(frame.EIN(1000+i), true, time.Duration(i)*time.Second); err != nil {
				return nil, err
			}
		}
		for r := 0; r < o.RoutedPerCell; r++ {
			if _, err := in.AddSubscriber(routedAddr(c, r, o.RoutedPerCell), c, false,
				time.Duration(r)*500*time.Millisecond); err != nil {
				return nil, err
			}
		}
		for i := 0; i < o.DataPerCell; i++ {
			if _, err := cell.AddSubscriber(frame.EIN(2000+i), false,
				time.Duration(o.RoutedPerCell+i)*500*time.Millisecond); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}

// runMetro runs the warm-up, injects the ring traffic and runs the
// measured cycles, as experiments.Metro does. It returns the number of
// ring sends.
func runMetro(in *backbone.Internet, o experiments.MetroOptions, rec *recorder) (int, error) {
	if o.Warmup > 0 {
		s := rec.begin(spanMetroWarmup)
		err := in.Run(o.Warmup)
		rec.end(s)
		if err != nil {
			return 0, err
		}
	}
	ring := 0
	if o.RoutedPerCell > 0 && o.Cells > 1 {
		for c := 0; c < o.Cells; c++ {
			src := routedAddr(c, 0, o.RoutedPerCell)
			if in.Subscriber(src).State() != core.StateActive {
				continue
			}
			if err := in.Send(src, routedAddr((c+1)%o.Cells, 0, o.RoutedPerCell), 120+10*(c%9)); err != nil {
				return 0, err
			}
			ring++
		}
	}
	s := rec.begin(spanMetroCycles)
	defer rec.end(s)
	return ring, in.Run(o.Cycles)
}

// metroDigest is experiments.MetroResult.Digest.
func metroDigest(in *backbone.Internet, ring int) (string, error) {
	h := fnv.New64a()
	for c := 0; c < in.Cells(); c++ {
		snap, err := json.Marshal(in.Cell(c).Metrics().Snapshot())
		if err != nil {
			return "", err
		}
		h.Write(snap)
	}
	fmt.Fprintf(h, "fwd=%d del=%d ring=%d lat=%v vals=%v",
		in.Forwarded.Value(), in.Delivered.Value(), ring, in.EndToEndLat.Sum(), in.EndToEndLat.Values())
	return formatDigest(h.Sum64()), nil
}

// runTournamentJob runs one protocols × loads grid. It has no separable
// set-up: the whole call is its run time.
func runTournamentJob(cfg experiments.TournamentConfig, rec *recorder) (jobResult, error) {
	var res jobResult
	t0 := time.Now()
	s := rec.begin(spanRun)
	entries, err := experiments.Tournament(cfg)
	rec.end(s)
	res.RunNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return res, err
	}
	s = rec.begin(spanVerify)
	defer rec.end(s)
	res.Digest, err = tournamentDigest(entries)
	return res, err
}

// tournamentDigest is FNV-1a over every entry's Export JSON, in order.
func tournamentDigest(entries []experiments.TournamentEntry) (string, error) {
	h := fnv.New64a()
	for _, e := range entries {
		b, err := json.Marshal(e.Export)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return formatDigest(h.Sum64()), nil
}

// tournamentSetup times osumac.Build of the job's four OSU-MAC grid
// points, the only part of a tournament grid with a separable set-up.
// It runs outside the job's timing and returns the per-build times.
func tournamentSetup(seed uint64) ([]int64, error) {
	out := make([]int64, 0, len(tournamentLoads))
	for _, load := range tournamentLoads {
		t0 := time.Now()
		_, err := osumac.Build(tournamentScenario(seed, load, &core.TraceBuffer{Cap: 1 << 20}))
		out = append(out, time.Since(t0).Nanoseconds())
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
