package core

import (
	"fmt"
	"time"

	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sched"
	"github.com/osu-netlab/osumac/internal/traffic"
)

// ReservationPolicy selects how a subscriber with queued data but no
// assigned slots acquires bandwidth (paper §3.1 lists both means).
type ReservationPolicy int

const (
	// ReserveExplicit sends a reservation control packet in a contention
	// slot.
	ReserveExplicit ReservationPolicy = iota + 1
	// ReserveWithData sends the first queued data packet directly in a
	// contention slot, piggybacking the demand in its header. Colliding
	// data senders back off longer than reservation senders.
	ReserveWithData
)

// String implements fmt.Stringer.
func (p ReservationPolicy) String() string {
	switch p {
	case ReserveExplicit:
		return "explicit"
	case ReserveWithData:
		return "data-in-contention"
	default:
		return fmt.Sprintf("ReservationPolicy(%d)", int(p))
	}
}

// GPSGrantPolicy selects how the base station orders GPS users onto the
// cycle's on-air GPS slots.
type GPSGrantPolicy int

const (
	// GPSGrantDeadline (the default) announces grants in
	// earliest-report-deadline-first order via GPSSlotTable.GrantSchedule:
	// the user whose last report (or admission) is oldest transmits in
	// the earliest slot, so no registered user goes ungranted for a full
	// cycle and consecutive grants stay within the 4 s access bound.
	GPSGrantDeadline GPSGrantPolicy = iota + 1
	// GPSGrantFixed is the legacy policy: each user transmits in the
	// table slot it was admitted to. A user admitted via the previous
	// cycle's overlapping last data slot misses a full cycle of grants
	// and its first grant at a high slot index can open just past its
	// report's replacement deadline — the ROADMAP grant-starvation bug,
	// kept reproducible for the autopsy/critical-path tooling and as an
	// ablation baseline.
	GPSGrantFixed
)

// String implements fmt.Stringer.
func (p GPSGrantPolicy) String() string {
	switch p {
	case GPSGrantDeadline:
		return "deadline"
	case GPSGrantFixed:
		return "fixed"
	default:
		return fmt.Sprintf("GPSGrantPolicy(%d)", int(p))
	}
}

// Config parameterizes one OSU-MAC cell simulation. NewConfig returns
// the paper's defaults; zero-valued fields are filled by Validate.
type Config struct {
	// Seed drives every random stream in the run.
	Seed uint64

	// Scheduler assigns reverse data slots; nil means the paper's
	// round-robin with lumping.
	Scheduler sched.ReverseScheduler

	// NewForwardModel and NewReverseModel construct the per-link channel
	// error models; nil means an ideal channel.
	NewForwardModel func() phy.ErrorModel
	NewReverseModel func() phy.ErrorModel

	// DynamicSlotAdjustment enables GPS slot consolidation (rules R1-R3)
	// and the format-2 conversion of idle GPS slots into a data slot.
	DynamicSlotAdjustment bool

	// SecondControlField enables the CF2 design. When disabled, the base
	// station never assigns the last reverse data slot (the paper's
	// rejected alternative), wasting its bandwidth.
	SecondControlField bool

	// GPSGrantPolicy orders GPS users onto the cycle's on-air GPS slots;
	// zero means GPSGrantDeadline. It only takes effect with
	// DynamicSlotAdjustment (static mode pins users to table slots by
	// construction).
	GPSGrantPolicy GPSGrantPolicy

	// MinContentionSlots and MaxContentionSlots bound the dynamic
	// contention-slot controller. At least one data slot per cycle is
	// always a contention slot (paper §3.5).
	MinContentionSlots int
	MaxContentionSlots int

	// ReservationBackoffCycles is the maximum random backoff (in cycles)
	// after a reservation collision; data-in-contention senders use
	// twice this (paper §3.1).
	ReservationBackoffCycles int

	// MaxRegistrationAttempts bounds a registrant's persistence.
	MaxRegistrationAttempts int

	// Policy is the default slot-acquisition behaviour for data users.
	Policy ReservationPolicy

	// GPSPeriod is the bus location reporting period.
	GPSPeriod time.Duration

	// QueueCapFragments caps a subscriber's pending fragment queue;
	// arrivals beyond it are dropped (buffer overflow, visible in the
	// paper's utilization plot past ρ = 1).
	QueueCapFragments int

	// SizeDist draws data message sizes; nil means the paper's variable
	// workload (uniform 40-500 bytes).
	SizeDist traffic.SizeDist

	// MeanInterarrival is the per-user Poisson mean gap between data
	// messages; zero disables data traffic.
	MeanInterarrival time.Duration

	// Tracer receives protocol events when non-nil (see TraceBuffer).
	Tracer Tracer

	// DisableCompiledCycle runs every notification cycle on the wire
	// handlers — control fields and packets encoded, transmitted and
	// decoded — instead of the compiled fast path, off the same slot
	// table (see compiled.go); no cycle skips the wire, and the
	// Compiled* counters stay 0. The two are observationally identical
	// — this switch exists for the differential tests that prove it,
	// and as an escape hatch.
	DisableCompiledCycle bool

	// CollectSeries records a per-cycle metric point in
	// Metrics.Series — useful for transient analysis and plotting.
	CollectSeries bool
}

// NewConfig returns the paper's default configuration.
func NewConfig() Config {
	return Config{
		Seed:                     1,
		DynamicSlotAdjustment:    true,
		SecondControlField:       true,
		GPSGrantPolicy:           GPSGrantDeadline,
		MinContentionSlots:       1,
		MaxContentionSlots:       3,
		ReservationBackoffCycles: 2,
		MaxRegistrationAttempts:  32,
		Policy:                   ReserveWithData,
		GPSPeriod:                phy.GPSAccessDeadline,
		QueueCapFragments:        128,
		SizeDist:                 traffic.PaperVariable,
	}
}

// Validate fills defaults and rejects inconsistent settings.
func (c *Config) Validate() error {
	if c.Scheduler == nil {
		c.Scheduler = sched.NewRoundRobin()
	}
	if c.NewForwardModel == nil {
		c.NewForwardModel = func() phy.ErrorModel { return phy.Ideal{} }
	}
	if c.NewReverseModel == nil {
		c.NewReverseModel = func() phy.ErrorModel { return phy.Ideal{} }
	}
	if c.MinContentionSlots <= 0 {
		c.MinContentionSlots = 1
	}
	if c.MaxContentionSlots < c.MinContentionSlots {
		c.MaxContentionSlots = c.MinContentionSlots
	}
	if c.MaxContentionSlots >= phy.Format1DataSlots {
		return fmt.Errorf("core: MaxContentionSlots %d must leave at least one schedulable data slot", c.MaxContentionSlots)
	}
	if c.ReservationBackoffCycles <= 0 {
		c.ReservationBackoffCycles = 3
	}
	if c.MaxRegistrationAttempts <= 0 {
		c.MaxRegistrationAttempts = 32
	}
	if c.Policy == 0 {
		c.Policy = ReserveExplicit
	}
	if c.GPSGrantPolicy == 0 {
		c.GPSGrantPolicy = GPSGrantDeadline
	}
	if c.GPSGrantPolicy != GPSGrantDeadline && c.GPSGrantPolicy != GPSGrantFixed {
		return fmt.Errorf("core: unknown GPS grant policy %d", c.GPSGrantPolicy)
	}
	if c.Policy != ReserveExplicit && c.Policy != ReserveWithData {
		return fmt.Errorf("core: unknown reservation policy %d", c.Policy)
	}
	if c.GPSPeriod <= 0 {
		c.GPSPeriod = phy.GPSAccessDeadline
	}
	if c.QueueCapFragments <= 0 {
		c.QueueCapFragments = 128
	}
	if c.SizeDist == nil {
		c.SizeDist = traffic.PaperVariable
	}
	if c.MeanInterarrival < 0 {
		return fmt.Errorf("core: negative MeanInterarrival %v", c.MeanInterarrival)
	}
	return nil
}
