// Package obs is the telemetry layer of the osumac simulator: a named,
// self-describing metric registry over core.Metrics with JSON and
// Prometheus text exposition, fixed-bucket histograms for the paper's
// delay distributions, a streaming JSONL trace sink composable with the
// in-memory TraceBuffer, a live HTTP observability endpoint, and a
// GPS-deadline autopsy that reconstructs scheduling decisions leading
// up to a violation.
//
// Everything here is pull-based or hook-based: with a nil tracer and no
// registry scrape, the simulation hot path pays nothing (the zero-cost
// invariant guarded by the alloc tests and the CI bench gate).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"github.com/osu-netlab/osumac/internal/baseline"
	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/stats"
)

// Kind classifies an exported metric.
type Kind int

const (
	// KindCounter is a monotone cumulative count.
	KindCounter Kind = iota + 1
	// KindGauge is an instantaneous (often derived) value.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String implements fmt.Stringer with the Prometheus type names.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MarshalText renders the kind name into JSON exports.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the kind name back from a JSON export, so a
// written Export round-trips (osumacdiff reloads snapshot files).
func (k *Kind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "counter":
		*k = KindCounter
	case "gauge":
		*k = KindGauge
	case "histogram":
		*k = KindHistogram
	default:
		return fmt.Errorf("unknown metric kind %q", b)
	}
	return nil
}

// Metric is one self-describing exported value.
type Metric struct {
	Name  string             `json:"name"`
	Help  string             `json:"help"`
	Kind  Kind               `json:"kind"`
	Value float64            `json:"value,omitempty"`
	Hist  *HistogramSnapshot `json:"histogram,omitempty"`
}

// HistogramSnapshot is a fixed-bucket distribution captured at gather
// time. Counts are cumulative in Prometheus style: Counts[i] holds the
// observations ≤ UpperBounds[i], and the final entry (one past the last
// bound) is the total count (the +Inf bucket).
type HistogramSnapshot struct {
	UpperBounds []float64 `json:"upperBounds"`
	Counts      []uint64  `json:"counts"`
	Sum         float64   `json:"sum"`
	Count       uint64    `json:"count"`
	// P50 and P99 are Quantile(0.5) and Quantile(0.99), precomputed at
	// gather time for the JSON export (dashboards shouldn't reimplement
	// bucket interpolation).
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
}

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) with linear
// interpolation inside the bucket containing the target rank — the
// same estimator as Prometheus's histogram_quantile(). The first
// bucket interpolates from zero; a rank landing in the +Inf bucket
// returns the highest finite bound (the estimator's conventional
// clamp). NaN is returned for an empty histogram or out-of-range p.
func (h *HistogramSnapshot) Quantile(p float64) float64 {
	if h == nil || h.Count == 0 || p < 0 || p > 1 {
		return math.NaN()
	}
	rank := p * float64(h.Count)
	for i, ub := range h.UpperBounds {
		c := float64(h.Counts[i])
		if c < rank {
			continue
		}
		lower, prev := 0.0, 0.0
		if i > 0 {
			lower = h.UpperBounds[i-1]
			prev = float64(h.Counts[i-1])
		}
		if c == prev {
			return ub
		}
		return lower + (ub-lower)*(rank-prev)/(c-prev)
	}
	if len(h.UpperBounds) == 0 {
		return math.NaN()
	}
	return h.UpperBounds[len(h.UpperBounds)-1]
}

// Registry names every counter and sample of one run's metric bundle
// and exports them on demand. A registry wraps either an OSU-MAC
// core.Metrics (NewRegistry) or a baseline protocol's baseline.Metrics
// (NewBaselineRegistry); both expose the same Gather/Export/exposition
// surface. It holds no state of its own: Gather reads the live bundle,
// so it must be called from the simulation goroutine (or after the
// run); see Live for serving scrapes concurrently.
type Registry struct {
	m      *core.Metrics
	b      *baseline.Metrics // baseline mode when non-nil (see baseline.go)
	label  string            // snapshot label stamped into Exports
	extras []extraGauge
}

// NewRegistry wraps a metric bundle.
func NewRegistry(m *core.Metrics) *Registry { return &Registry{m: m} }

// extraGauge is a caller-registered gauge outside core.Metrics —
// simulator health signals like event-queue depth, trace-buffer drops,
// or flight-ring overwrites.
type extraGauge struct {
	name, help string
	get        func() float64
}

// AddGauge registers a gauge read from fn at each Gather, appended
// after the built-in metrics in registration order. fn is called from
// the gathering goroutine; it must be safe to call between cycles.
func (r *Registry) AddGauge(name, help string, fn func() float64) {
	r.extras = append(r.extras, extraGauge{name: name, help: help, get: fn})
}

type counterDesc struct {
	name, help string
	get        func(*core.Metrics) uint64
}

type gaugeDesc struct {
	name, help string
	get        func(*core.Metrics) float64
}

type histDesc struct {
	name, help string
	bounds     []float64
	sample     func(*core.Metrics) *stats.Sample
}

// counterDescs covers every stats.Counter in core.Metrics (plus the
// cycle count), in a stable export order.
var counterDescs = []counterDesc{
	{"osumac_cycles_total", "completed notification cycles", func(m *core.Metrics) uint64 { return uint64(m.Cycles) }},
	{"osumac_messages_generated_total", "application messages generated", func(m *core.Metrics) uint64 { return m.MessagesGenerated.Value() }},
	{"osumac_messages_delivered_total", "application messages fully delivered", func(m *core.Metrics) uint64 { return m.MessagesDelivered.Value() }},
	{"osumac_messages_dropped_total", "messages dropped on queue overflow", func(m *core.Metrics) uint64 { return m.MessagesDropped.Value() }},
	{"osumac_bytes_generated_total", "application payload bytes generated", func(m *core.Metrics) uint64 { return m.BytesGenerated.Value() }},
	{"osumac_bytes_delivered_total", "application payload bytes delivered", func(m *core.Metrics) uint64 { return m.BytesDelivered.Value() }},
	{"osumac_fragments_sent_total", "data packets sent on scheduled reverse slots", func(m *core.Metrics) uint64 { return m.FragmentsSent.Value() }},
	{"osumac_fragments_lost_total", "data packets lost to RS decode failure", func(m *core.Metrics) uint64 { return m.FragmentsLost.Value() }},
	{"osumac_reservation_packets_total", "explicit reservation packets received", func(m *core.Metrics) uint64 { return m.ReservationPackets.Value() }},
	{"osumac_contention_signals_total", "contention receptions signalling demand", func(m *core.Metrics) uint64 { return m.ContentionSignals.Value() }},
	{"osumac_piggyback_requests_total", "implicit slot requests via data headers", func(m *core.Metrics) uint64 { return m.PiggybackRequests.Value() }},
	{"osumac_contention_tx_total", "transmissions attempted in contention slots", func(m *core.Metrics) uint64 { return m.ContentionTx.Value() }},
	{"osumac_contention_collisions_total", "contention slots with two or more transmissions", func(m *core.Metrics) uint64 { return m.ContentionCollisions.Value() }},
	{"osumac_contention_slots_open_total", "contention slots offered", func(m *core.Metrics) uint64 { return m.ContentionSlotsOpen.Value() }},
	{"osumac_contention_slots_used_total", "contention slots with at least one transmission", func(m *core.Metrics) uint64 { return m.ContentionSlotsUsed.Value() }},
	{"osumac_registrations_approved_total", "registrations admitted by the base station", func(m *core.Metrics) uint64 { return m.RegistrationsApproved.Value() }},
	{"osumac_registrations_failed_total", "registrations rejected or abandoned", func(m *core.Metrics) uint64 { return m.RegistrationsFailed.Value() }},
	{"osumac_page_responses_total", "zero-slot reservations answering pages", func(m *core.Metrics) uint64 { return m.PageResponses.Value() }},
	{"osumac_data_slots_offered_total", "schedulable reverse data slots across cycles", func(m *core.Metrics) uint64 { return m.DataSlotsOffered.Value() }},
	{"osumac_data_slots_assigned_total", "reverse data slots assigned to users", func(m *core.Metrics) uint64 { return m.DataSlotsAssigned.Value() }},
	{"osumac_data_slots_used_total", "reverse data slots carrying a decoded packet", func(m *core.Metrics) uint64 { return m.DataSlotsUsed.Value() }},
	{"osumac_last_slot_data_packets_total", "data packets in the CF2-covered last slot", func(m *core.Metrics) uint64 { return m.LastSlotDataPkts.Value() }},
	{"osumac_reverse_data_packets_total", "all data packets received on data slots", func(m *core.Metrics) uint64 { return m.ReverseDataPkts.Value() }},
	{"osumac_gps_generated_total", "GPS location reports generated", func(m *core.Metrics) uint64 { return m.GPSGenerated.Value() }},
	{"osumac_gps_delivered_total", "GPS location reports received by the base", func(m *core.Metrics) uint64 { return m.GPSDelivered.Value() }},
	{"osumac_gps_lost_total", "GPS reports lost (channel or staleness)", func(m *core.Metrics) uint64 { return m.GPSLost.Value() }},
	{"osumac_gps_deadline_violations_total", "GPS reports later than the 4 s access deadline", func(m *core.Metrics) uint64 { return m.GPSDeadlineViolations.Value() }},
	{"osumac_cf_decode_failures_total", "control-field decode failures at subscribers", func(m *core.Metrics) uint64 { return m.CFDecodeFailures.Value() }},
	{"osumac_cf2_listens_total", "subscribers listening to the second control-field set", func(m *core.Metrics) uint64 { return m.CF2Listens.Value() }},
	{"osumac_forward_packets_sent_total", "forward-channel data packets sent", func(m *core.Metrics) uint64 { return m.ForwardPktsSent.Value() }},
	{"osumac_forward_packets_delivered_total", "forward-channel data packets delivered", func(m *core.Metrics) uint64 { return m.ForwardPktsDelivered.Value() }},
	// Compiled-cycle executor accounting. These live outside
	// core.Snapshot on purpose (the compiled path must be
	// observationally identical to the event kernel, so run artifacts
	// may not differ between engines) but they ARE deterministic for a
	// fixed scenario + engine choice, so exposing them on /metrics and
	// in -export keeps the twin-run byte-identity gate intact.
	{"osumac_compiled_cycles_total", "cycles driven by the compiled fast path", func(m *core.Metrics) uint64 { return m.CompiledCycles.Value() }},
	{"osumac_compiled_fallbacks_total", "cycles whose compiled fast path deactivated", func(m *core.Metrics) uint64 { return m.CompiledFallbacks.Value() }},
	{"osumac_compiled_fallback_loss_total", "fallbacks due to a lossy channel model", func(m *core.Metrics) uint64 { return m.CompiledFallbackLoss.Value() }},
	{"osumac_compiled_fallback_contention_total", "always 0: contention slots run on the compiled fast path (kept for existing readers)", func(m *core.Metrics) uint64 { return m.CompiledFallbackContention.Value() }},
	{"osumac_compiled_fallback_amendment_total", "fallbacks due to CF2 schedule amendments", func(m *core.Metrics) uint64 { return m.CompiledFallbackAmendment.Value() }},
	{"osumac_compiled_fallback_format_total", "fallbacks due to reverse format switches", func(m *core.Metrics) uint64 { return m.CompiledFallbackFormat.Value() }},
	{"osumac_compiled_recompiles_total", "slot-action template re-selections on format switch", func(m *core.Metrics) uint64 { return m.CompiledRecompiles.Value() }},
}

// gaugeDescs covers the derived figures of the paper's evaluation.
var gaugeDescs = []gaugeDesc{
	{"osumac_utilization", "fraction of reverse data slots carrying data (Fig. 8a)", (*core.Metrics).Utilization},
	{"osumac_payload_utilization", "delivered payload bytes over offered capacity", (*core.Metrics).PayloadUtilization},
	{"osumac_control_overhead", "demand signals per data packet (Fig. 9/10)", (*core.Metrics).ControlOverhead},
	{"osumac_collision_probability", "fraction of used contention slots that collided", (*core.Metrics).CollisionProbability},
	{"osumac_second_cf_gain", "share of reverse data carried by the last slot (Fig. 12a)", (*core.Metrics).SecondCFGain},
	{"osumac_mean_data_slots_used", "average data slots carrying traffic per cycle (Fig. 12b)", (*core.Metrics).MeanDataSlotsUsed},
	{"osumac_fairness", "Jain's index over per-user service ratios (Fig. 11)", (*core.Metrics).Fairness},
	{"osumac_fairness_bytes", "Jain's index over raw per-user delivered bytes", (*core.Metrics).FairnessBytes},
	{"osumac_registration_within_2_cycles", "fraction of registrations completing within 2 cycles", func(m *core.Metrics) float64 { return m.RegistrationWithin(2) }},
	{"osumac_registration_within_10_cycles", "fraction of registrations completing within 10 cycles", func(m *core.Metrics) float64 { return m.RegistrationWithin(10) }},
	{"osumac_compiled_cycle_hit_ratio", "fraction of cycles the compiled fast path drove", func(m *core.Metrics) float64 {
		hit := m.CompiledCycles.Value()
		total := hit + m.CompiledFallbacks.Value()
		if total == 0 {
			return 0
		}
		return float64(hit) / float64(total)
	}},
}

// Fixed histogram buckets. The GPS buckets straddle the 4 s deadline so
// a violation is visible as mass past the "4" bound; message-delay
// bounds are roughly one..many notification cycles (~4 s each).
var (
	messageDelayBounds   = []float64{4, 8, 16, 32, 64, 128, 256, 512}
	gpsAccessDelayBounds = []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 5, 6}
	reservationBounds    = []float64{2, 4, 8, 16, 32, 64}
	registrationBounds   = []float64{1, 2, 3, 4, 6, 8, 12, 16}
)

// histDescs covers every stats.Sample in core.Metrics.
var histDescs = []histDesc{
	{"osumac_message_delay_seconds", "end-to-end message delay, arrival to last fragment (Fig. 8b)",
		messageDelayBounds, func(m *core.Metrics) *stats.Sample { return &m.MessageDelay }},
	{"osumac_gps_access_delay_seconds", "GPS report arrival-to-slot delay; deadline is 4 s",
		gpsAccessDelayBounds, func(m *core.Metrics) *stats.Sample { return &m.GPSAccessDelay }},
	{"osumac_reservation_latency_seconds", "demand-to-base-receipt reservation latency (Fig. 9/10)",
		reservationBounds, func(m *core.Metrics) *stats.Sample { return &m.ReservationLatency }},
	{"osumac_registration_latency_cycles", "first-attempt-to-receipt registration latency",
		registrationBounds, func(m *core.Metrics) *stats.Sample { return &m.RegistrationLatency }},
}

// GPSDeadlineSeconds re-exports the protocol deadline for dashboards.
const GPSDeadlineSeconds = float64(phy.GPSAccessDeadline) / 1e9

// Gather snapshots every registered metric in stable order. The result
// shares no state with the live bundle.
func (r *Registry) Gather() []Metric {
	if r.b != nil {
		return r.gatherBaseline()
	}
	out := make([]Metric, 0, len(counterDescs)+len(gaugeDescs)+len(histDescs)+len(r.extras))
	for _, d := range counterDescs {
		out = append(out, Metric{Name: d.name, Help: d.help, Kind: KindCounter, Value: float64(d.get(r.m))})
	}
	for _, d := range gaugeDescs {
		out = append(out, Metric{Name: d.name, Help: d.help, Kind: KindGauge, Value: d.get(r.m)})
	}
	for _, d := range histDescs {
		out = append(out, Metric{Name: d.name, Help: d.help, Kind: KindHistogram,
			Hist: snapshotHistogram(d.sample(r.m), d.bounds)})
	}
	for _, d := range r.extras {
		out = append(out, Metric{Name: d.name, Help: d.help, Kind: KindGauge, Value: d.get()})
	}
	return out
}

// snapshotHistogram bins a sample into cumulative fixed buckets.
func snapshotHistogram(s *stats.Sample, bounds []float64) *HistogramSnapshot {
	h := &HistogramSnapshot{
		UpperBounds: bounds,
		Counts:      make([]uint64, len(bounds)+1),
		Sum:         s.Sum(),
		Count:       uint64(s.Count()),
	}
	// Counts are cumulative: each observation lands in every bucket
	// whose upper bound it does not exceed.
	for _, v := range s.Values() {
		for i, ub := range bounds {
			if v <= ub {
				h.Counts[i]++
			}
		}
	}
	h.Counts[len(bounds)] = h.Count
	if h.Count > 0 {
		// Empty histograms keep 0 here: NaN is not representable in the
		// JSON export.
		h.P50 = h.Quantile(0.5)
		h.P99 = h.Quantile(0.99)
	}
	return h
}

// WritePrometheus renders gathered metrics in the Prometheus text
// exposition format (version 0.0.4).
func WritePrometheus(w io.Writer, metrics []Metric) error {
	for _, m := range metrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.Name, m.Help, m.Name, m.Kind); err != nil {
			return err
		}
		if m.Kind != KindHistogram {
			if _, err := fmt.Fprintf(w, "%s %s\n", m.Name, formatFloat(m.Value)); err != nil {
				return err
			}
			continue
		}
		h := m.Hist
		for i, ub := range h.UpperBounds {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.Name, formatFloat(ub), h.Counts[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			m.Name, h.Counts[len(h.UpperBounds)], m.Name, formatFloat(h.Sum), m.Name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus gathers and renders in one step.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WritePrometheus(w, r.Gather())
}

// WriteJSON renders the gathered metrics as an indented JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r.Gather(), "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
