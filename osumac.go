// Package osumac is a discrete-event implementation of OSU-MAC, the
// real-time medium access control protocol for wireless WANs with
// asymmetric links described in "OSU-MAC: A New, Real-Time Medium Access
// Control Protocol for Wireless WANs with Asymmetric Wireless Links"
// (ICDCS 2001).
//
// The library reproduces the full protocol over a simulated model of the
// OSU narrow-band wireless modem testbed: a 6.4 kbps forward channel and
// a 4.8 kbps reverse channel, RS(64,48) coding on every data slot and
// control field, ~4-second notification cycles with two control-field
// sets, base-station-centric scheduling with round-robin + lumping,
// contention-based registration and reservation, dynamic GPS slot
// adjustment, and the 20 ms half-duplex switch constraint.
//
// # Quick start
//
//	scn := osumac.NewScenario()
//	scn.DataUsers = 10
//	scn.GPSUsers = 4
//	scn.Load = 0.8
//	res, err := osumac.Run(scn)
//	if err != nil { ... }
//	fmt.Printf("utilization %.2f, mean delay %.1f cycles\n",
//		res.Utilization, res.MeanDelayCycles)
//
// For full control (custom error models, schedulers, churn), build a
// core network directly via NewNetwork and the re-exported types.
package osumac

import (
	"fmt"
	"time"

	"github.com/osu-netlab/osumac/internal/backbone"
	"github.com/osu-netlab/osumac/internal/conformance"
	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sched"
	"github.com/osu-netlab/osumac/internal/traffic"
)

// Re-exported protocol types. The core types are fully documented in
// their defining packages.
type (
	// Config parameterizes a cell simulation (seed, scheduler, channel
	// models, protocol toggles).
	Config = core.Config
	// Network is a running cell: one base station plus subscribers.
	Network = core.Network
	// Subscriber is one mobile unit's MAC state machine.
	Subscriber = core.Subscriber
	// BaseStation is the cell controller.
	BaseStation = core.BaseStation
	// Metrics is the per-run measurement bundle.
	Metrics = core.Metrics
	// Layout is the slot timing of a notification cycle.
	Layout = core.Layout
	// ReverseFormat selects the reverse cycle structure.
	ReverseFormat = core.ReverseFormat
	// SubscriberState is a subscriber's lifecycle state.
	SubscriberState = core.SubscriberState
	// Tracer receives protocol events.
	Tracer = core.Tracer
	// TraceBuffer is a bounded in-memory tracer.
	TraceBuffer = core.TraceBuffer
	// TraceEvent is one traced protocol occurrence.
	TraceEvent = core.TraceEvent
	// EventKind classifies trace events.
	EventKind = core.EventKind
	// UserID is a cell-local 6-bit subscriber identifier.
	UserID = frame.UserID
	// EIN is a permanent 16-bit equipment identification number.
	EIN = frame.EIN
	// ErrorModel corrupts coded transmissions.
	ErrorModel = phy.ErrorModel
	// IdealChannel never corrupts.
	IdealChannel = phy.Ideal
	// IIDChannel corrupts bytes independently.
	IIDChannel = phy.IID
	// GilbertElliott is a two-state burst error model.
	GilbertElliott = phy.GilbertElliott
	// TwoRegime is the calibrated bimodal shortcut model.
	TwoRegime = phy.TwoRegime
	// AWGN is a physically calibrated Gaussian-noise channel model.
	AWGN = phy.AWGN
	// SizeDist draws application message sizes.
	SizeDist = traffic.SizeDist
	// Internet is a multi-cell deployment joined by a wired backbone.
	Internet = backbone.Internet
	// Address is a subscriber's global (EIN-based) address.
	Address = backbone.Address
	// InternetOptions configures a multi-cell deployment: cells, wire
	// delay, barrier window and per-cell tracers.
	InternetOptions = backbone.Options
	// CellError names the cell and virtual time of a mid-flight
	// multi-cell run failure.
	CellError = backbone.CellError
	// ConformanceChecker verifies protocol invariants over the trace
	// stream (see internal/conformance).
	ConformanceChecker = conformance.Checker
	// ConformanceOptions selects which invariants a checker enforces.
	ConformanceOptions = conformance.Options
	// ConformanceReport is the outcome of a checked run.
	ConformanceReport = conformance.Report
	// ConformanceViolation is one observed invariant breach.
	ConformanceViolation = conformance.Violation
)

// Re-exported constructors and constants.
var (
	// NewConfig returns the paper's default configuration.
	NewConfig = core.NewConfig
	// NewNetwork builds a cell simulation.
	NewNetwork = core.NewNetwork
	// NewLayout computes slot timing for a reverse format.
	NewLayout = core.NewLayout
	// NewRoundRobin returns the paper's scheduler.
	NewRoundRobin = sched.NewRoundRobin
	// NewGilbertElliott builds a burst channel model.
	NewGilbertElliott = phy.NewGilbertElliott
	// NewAWGN builds a Gaussian channel at a given Eb/N0 (dB).
	NewAWGN = phy.NewAWGN
	// NewInternet builds a multi-cell deployment on one virtual clock:
	// one kernel per cell, synchronized at backbone barriers.
	NewInternet = backbone.New
	// NewInternetWithOptions builds a multi-cell deployment with control
	// over the barrier window and per-cell tracers.
	NewInternetWithOptions = backbone.NewWithOptions
	// AllEventKinds lists every defined trace-event kind.
	AllEventKinds = core.AllEventKinds
	// ParseEventKind resolves an event-kind name (its String form).
	ParseEventKind = core.ParseEventKind
)

// Reverse cycle formats (paper §3.3).
const (
	Format1 = core.Format1
	Format2 = core.Format2
)

// Subscriber lifecycle states.
const (
	StateIdle        = core.StateIdle
	StateRegistering = core.StateRegistering
	StateActive      = core.StateActive
)

// CycleLength is the notification-cycle length (3.984375 s).
var CycleLength = phy.CycleLength

// NoUser is the reserved user ID marking an unassigned slot.
const NoUser = frame.NoUser

// Scenario describes a standard evaluation setup in the paper's terms:
// a number of GPS buses, a number of e-mail (data) users, and a target
// load index ρ on the reverse channel.
type Scenario struct {
	// Seed makes the run reproducible.
	Seed uint64
	// GPSUsers is the number of buses (0–8).
	GPSUsers int
	// DataUsers is the number of regular data subscribers.
	DataUsers int
	// Load is the target load index ρ (paper §5); 0 disables data
	// traffic.
	Load float64
	// VariableSizes selects the uniform 40–500 B workload; false uses
	// fixed 120 B messages.
	VariableSizes bool
	// Cycles is the number of notification cycles to simulate.
	Cycles int
	// WarmupCycles lets registration and queues settle before the run
	// begins (subscribers join immediately; traffic statistics include
	// the whole run, as in the paper).
	WarmupCycles int
	// ReverseLoss, if positive, applies a two-regime loss model with
	// this codeword-loss probability on the reverse channel.
	ReverseLoss float64
	// ForwardLoss similarly degrades the forward channel.
	ForwardLoss float64
	// DisableSecondCF runs the paper's rejected single-control-field
	// alternative (for the Fig. 12a comparison).
	DisableSecondCF bool
	// DisableDynamicSlots pins format 1 (for the Fig. 12b comparison).
	DisableDynamicSlots bool
	// LegacyGPSGrants restores the fixed (table-slot) GPS grant ordering
	// that predates the deadline-aware scheduler. It reproduces the
	// ROADMAP grant-starvation bug — kept for the autopsy/critical-path
	// tooling and as an ablation baseline.
	LegacyGPSGrants bool
	// DisableCompiledCycle turns off the compiled fast path: every
	// cycle still plays off its slot table, but through the wire
	// handlers, so no cycle skips the encode, channel and decode steps.
	// The two are observationally identical; the toggle exists for
	// differential testing and as an escape hatch.
	DisableCompiledCycle bool
	// Conformance attaches the runtime protocol-invariant checker to
	// the run (see internal/conformance). Run returns a
	// *ConformanceError when any invariant is breached.
	Conformance bool
	// Tracer, when non-nil, receives every protocol event (see
	// internal/obs for JSONL sinks and autopsy tooling). Leaving it nil
	// keeps the simulation hot path allocation-free.
	Tracer Tracer
	// CollectSeries records one CyclePoint per cycle in Metrics.Series,
	// for live dashboards and post-run plots.
	CollectSeries bool
}

// NewScenario returns a mid-load default scenario.
func NewScenario() Scenario {
	return Scenario{
		Seed:          1,
		GPSUsers:      4,
		DataUsers:     10,
		Load:          0.8,
		VariableSizes: true,
		Cycles:        500,
		WarmupCycles:  20,
	}
}

// Result summarizes a scenario run with the paper's headline metrics.
type Result struct {
	// Utilization is delivered payload over offered capacity (Fig. 8a).
	Utilization float64
	// MeanDelayCycles is the mean message delay in cycles (Fig. 8b).
	MeanDelayCycles float64
	// CollisionProbability is the contention-slot collision rate
	// (Fig. 9/10).
	CollisionProbability float64
	// ReservationLatency is the mean seconds from demand to base receipt
	// (Fig. 9/10).
	ReservationLatency float64
	// ControlOverhead is reservation packets per data packet (Fig. 10).
	ControlOverhead float64
	// Fairness is Jain's index over per-user delivered bytes (Fig. 11).
	Fairness float64
	// SecondCFGain is the share of reverse data carried by the last slot
	// (Fig. 12a).
	SecondCFGain float64
	// MeanDataSlotsUsed is data slots carrying traffic per cycle
	// (Fig. 12b).
	MeanDataSlotsUsed float64
	// GPSMaxAccessDelay is the worst GPS access delay in seconds.
	GPSMaxAccessDelay float64
	// GPSDeadlineViolations counts reports later than 4 s.
	GPSDeadlineViolations uint64
	// RegistrationWithin2 and RegistrationWithin10 are the CDF points of
	// the §2.1 design targets (80 % / 99 %).
	RegistrationWithin2  float64
	RegistrationWithin10 float64
	// Metrics exposes the complete measurement bundle.
	Metrics *Metrics
	// EffectiveLoad is the realized ρ given integer slot counts.
	EffectiveLoad float64
}

// Run executes a scenario and summarizes it. With Scenario.Conformance
// set, the run is verified by the protocol-invariant checker and the
// error is a *ConformanceError (alongside the computed Result) when any
// invariant is breached.
func Run(scn Scenario) (*Result, error) {
	total := scn.WarmupCycles + scn.Cycles
	if total <= 0 {
		return nil, fmt.Errorf("osumac: no cycles to run")
	}
	if scn.Conformance {
		n, chk, err := BuildChecked(scn)
		if err != nil {
			return nil, err
		}
		if err := n.Run(total); err != nil {
			return nil, err
		}
		res := Summarize(n)
		if rep := chk.Finish(); !rep.OK() {
			return res, &ConformanceError{Report: rep}
		}
		return res, nil
	}
	n, err := Build(scn)
	if err != nil {
		return nil, err
	}
	if err := n.Run(total); err != nil {
		return nil, err
	}
	return Summarize(n), nil
}

// ConformanceError reports invariant breaches from a checked run. The
// full report (with per-violation details and critical-path breakdowns)
// is attached.
type ConformanceError struct {
	Report *conformance.Report
}

// Error implements error.
func (e *ConformanceError) Error() string {
	total := len(e.Report.Violations) + e.Report.Truncated
	return fmt.Sprintf("osumac: %d protocol invariant violation(s) over %d cycles",
		total, e.Report.Cycles)
}

// ConformanceOptionsFor derives the invariant set a scenario must
// satisfy. The structural invariants (schedule disjointness, the
// format rule, CF2 exclusions, grant starvation-freedom) always apply
// under the matching protocol toggles; the hard real-time property
// (zero GPS deadline violations) is asserted only where the protocol
// guarantees it — ideal channels, both control-field sets, dynamic
// slot adjustment, and the deadline-aware grant policy.
func ConformanceOptionsFor(scn Scenario) ConformanceOptions {
	mustHold := scn.ReverseLoss == 0 && scn.ForwardLoss == 0 &&
		!scn.DisableSecondCF && !scn.DisableDynamicSlots && !scn.LegacyGPSGrants
	return ConformanceOptions{
		DeadlineMustHold:   mustHold,
		DynamicSlots:       !scn.DisableDynamicSlots,
		SecondControlField: !scn.DisableSecondCF,
		KeepEvents:         mustHold,
	}
}

// BuildChecked constructs the network for a scenario with the
// protocol-invariant checker chained in front of the scenario's tracer.
// Call Finish on the checker after running.
func BuildChecked(scn Scenario) (*Network, *ConformanceChecker, error) {
	chk := conformance.New(ConformanceOptionsFor(scn))
	chk.Next = scn.Tracer
	scn.Tracer = chk
	n, err := Build(scn)
	if err != nil {
		return nil, nil, err
	}
	return n, chk, nil
}

// Build constructs (but does not run) the network for a scenario,
// letting callers add churn or extra traffic before running.
func Build(scn Scenario) (*Network, error) {
	if scn.GPSUsers < 0 || scn.GPSUsers > phy.MaxGPSUsers {
		return nil, fmt.Errorf("osumac: GPSUsers %d out of range [0,%d]", scn.GPSUsers, phy.MaxGPSUsers)
	}
	if scn.DataUsers < 0 {
		return nil, fmt.Errorf("osumac: negative DataUsers")
	}
	cfg := core.NewConfig()
	cfg.Seed = scn.Seed
	cfg.SecondControlField = !scn.DisableSecondCF
	cfg.DynamicSlotAdjustment = !scn.DisableDynamicSlots
	if scn.LegacyGPSGrants {
		cfg.GPSGrantPolicy = core.GPSGrantFixed
	}
	cfg.Tracer = scn.Tracer
	cfg.CollectSeries = scn.CollectSeries
	cfg.DisableCompiledCycle = scn.DisableCompiledCycle

	var dist traffic.SizeDist = traffic.PaperFixed
	if scn.VariableSizes {
		dist = traffic.PaperVariable
	}
	cfg.SizeDist = dist

	dataSlots := DataSlotsFor(scn.GPSUsers, !scn.DisableDynamicSlots)
	if scn.Load > 0 && scn.DataUsers > 0 {
		cfg.MeanInterarrival = traffic.InterarrivalForSlots(
			scn.Load, scn.DataUsers, dist, frame.MaxPayload,
			phy.CycleLength, dataSlots)
	}
	if scn.ReverseLoss > 0 {
		loss := scn.ReverseLoss
		cfg.NewReverseModel = func() phy.ErrorModel {
			return phy.TwoRegime{PLoss: loss, MaxCorrectable: 8}
		}
	}
	if scn.ForwardLoss > 0 {
		loss := scn.ForwardLoss
		cfg.NewForwardModel = func() phy.ErrorModel {
			return phy.TwoRegime{PLoss: loss, MaxCorrectable: 8}
		}
	}

	n, err := core.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	// GPS buses join first (EINs 1000+), then data users (EINs 2000+),
	// staggered to avoid a synchronized registration storm.
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

// Summarize converts a run's metrics into a Result.
func Summarize(n *Network) *Result {
	m := n.Metrics()
	return &Result{
		Utilization:           m.Utilization(),
		MeanDelayCycles:       m.MeanDelayCycles(phy.CycleLength),
		CollisionProbability:  m.CollisionProbability(),
		ReservationLatency:    m.ReservationLatency.Mean(),
		ControlOverhead:       m.ControlOverhead(),
		Fairness:              m.Fairness(),
		SecondCFGain:          m.SecondCFGain(),
		MeanDataSlotsUsed:     m.MeanDataSlotsUsed(),
		GPSMaxAccessDelay:     m.GPSAccessDelay.Max(),
		GPSDeadlineViolations: m.GPSDeadlineViolations.Value(),
		RegistrationWithin2:   m.RegistrationWithin(2),
		RegistrationWithin10:  m.RegistrationWithin(10),
		Metrics:               m,
	}
}

// DataSlotsFor returns d, the reverse data slots per cycle for a given
// number of GPS users (paper §5: d = 9 when ≤3 GPS users with dynamic
// adjustment, else 8).
func DataSlotsFor(gpsUsers int, dynamicSlots bool) int {
	if dynamicSlots && gpsUsers <= phy.Format2GPSSlots {
		return phy.Format2DataSlots
	}
	return phy.Format1DataSlots
}

// InterarrivalForLoad returns the per-user Poisson mean interarrival
// time that realizes load index ρ for the given population — the same
// calibration Build uses (ρ measured against reverse data-slot
// capacity, paper §5).
func InterarrivalForLoad(load float64, dataUsers, gpsUsers int, variable bool) time.Duration {
	var dist traffic.SizeDist = traffic.PaperFixed
	if variable {
		dist = traffic.PaperVariable
	}
	d := DataSlotsFor(gpsUsers, true)
	return traffic.InterarrivalForSlots(load, dataUsers, dist, frame.MaxPayload, phy.CycleLength, d)
}

// PaperLoads are the load-index sweep points of the paper's evaluation.
var PaperLoads = []float64{0.3, 0.5, 0.8, 0.9, 1.0, 1.1}
