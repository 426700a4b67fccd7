package span

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Segment is one critical-path interval of a trace.
type Segment struct {
	// Phase classifies the interval.
	Phase Phase `json:"-"`
	// PhaseName is Phase's string form, for JSON consumers.
	PhaseName string `json:"phase"`
	// Start and End bound the interval.
	Start time.Duration `json:"startNs"`
	End   time.Duration `json:"endNs"`
	// Cycle and Slot locate the interval when known (-1 otherwise).
	Cycle int `json:"cycle"`
	Slot  int `json:"slot"`
	// Detail explains the attribution (miss reasons, attempt counts).
	Detail string `json:"detail,omitempty"`
}

// Duration returns the segment's width.
func (s Segment) Duration() time.Duration { return s.End - s.Start }

// Breakdown is a trace's wall-clock time partitioned into phases.
type Breakdown struct {
	// TraceID names the analyzed trace.
	TraceID string `json:"traceId"`
	// Total is the trace's lifecycle duration.
	Total time.Duration `json:"totalNs"`
	// Segments lists the critical-path intervals in time order.
	Segments []Segment `json:"segments"`
	// ByPhase sums segment durations per phase, indexed by Phase.
	byPhase [phaseCount]time.Duration
}

// CriticalPath partitions the trace's duration into its phase spans.
// The stitcher guarantees the phase spans tile [Start, End] without
// overlap, so the breakdown is exhaustive: summing ByPhase over all
// phases reproduces Total (up to zero-width decode markers).
func (t *Trace) CriticalPath() Breakdown {
	b := Breakdown{TraceID: t.ID, Total: t.Duration()}
	for _, s := range t.Spans {
		if s.Phase == 0 { // root
			continue
		}
		b.Segments = append(b.Segments, Segment{
			Phase:     s.Phase,
			PhaseName: s.Phase.String(),
			Start:     s.Start,
			End:       s.End,
			Cycle:     s.Cycle,
			Slot:      s.Slot,
			Detail:    s.Detail,
		})
		b.byPhase[s.Phase] += s.Duration()
	}
	return b
}

// ByPhase returns the total time attributed to one phase.
func (b *Breakdown) ByPhase(p Phase) time.Duration {
	if int(p) <= 0 || int(p) >= phaseCount {
		return 0
	}
	return b.byPhase[p]
}

// Dominant returns the phase holding the largest share of the
// breakdown, with that share's duration. Zero when the trace is empty.
func (b *Breakdown) Dominant() (Phase, time.Duration) {
	var best Phase
	var bestD time.Duration
	for p := PhaseQueueWait; int(p) < phaseCount; p++ {
		if d := b.byPhase[p]; d > bestD {
			best, bestD = p, d
		}
	}
	return best, bestD
}

// WriteText renders the breakdown as an aligned human-readable table.
func (b *Breakdown) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "critical path for %s (total %v)\n", b.TraceID, b.Total); err != nil {
		return err
	}
	for _, s := range b.Segments {
		loc := ""
		if s.Cycle >= 0 {
			loc = fmt.Sprintf(" c%04d", s.Cycle)
			if s.Slot >= 0 {
				loc += fmt.Sprintf(" slot=%d", s.Slot)
			}
		}
		line := fmt.Sprintf("  %-18s %12v  [%v → %v]%s", s.PhaseName, s.Duration(), s.Start, s.End, loc)
		if s.Detail != "" {
			line += "  " + s.Detail
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	for p := PhaseQueueWait; int(p) < phaseCount; p++ {
		d := b.byPhase[p]
		if d == 0 {
			continue
		}
		pct := 0.0
		if b.Total > 0 {
			pct = 100 * float64(d) / float64(b.Total)
		}
		if _, err := fmt.Fprintf(w, "  Σ %-16s %12v  (%5.1f%%)\n", p.String(), d, pct); err != nil {
			return err
		}
	}
	return nil
}

// PhaseBucketBounds are the shared histogram bucket upper bounds, in
// seconds, used for per-phase duration distributions. They bracket the
// protocol's natural scales: sub-slot (≤0.1 s), intra-cycle, the ~4 s
// cycle/deadline, and multi-cycle starvation.
var PhaseBucketBounds = []float64{0.1, 0.5, 1, 2, 4, 8, 16, 32}

// PhaseStats aggregates one phase across a trace set.
type PhaseStats struct {
	// Phase is the phase's string name.
	Phase string `json:"phase"`
	// Count is how many segments contributed.
	Count int `json:"count"`
	// TotalSeconds and MaxSeconds summarize the contributed time.
	TotalSeconds float64 `json:"totalSeconds"`
	MaxSeconds   float64 `json:"maxSeconds"`
	// Buckets counts segments per PhaseBucketBounds bucket; the last
	// extra element is the overflow (+Inf) bucket.
	Buckets []uint64 `json:"buckets"`
}

// Distribution summarizes a trace set's critical paths: how many
// lifecycles, how they ended, and where their time went per phase.
type Distribution struct {
	// Traces, Complete, Violations and Stale count lifecycles.
	Traces     int `json:"traces"`
	Complete   int `json:"complete"`
	Violations int `json:"violations"`
	Stale      int `json:"stale"`
	// Retx is the total observed retransmissions.
	Retx int `json:"retx"`
	// Phases holds per-phase stats in causal phase order.
	Phases []PhaseStats `json:"phases"`
}

// NewDistribution aggregates every trace's critical path.
func NewDistribution(set *Set) *Distribution {
	d := &Distribution{Phases: make([]PhaseStats, phaseCount-1)}
	for i := range d.Phases {
		d.Phases[i] = PhaseStats{
			Phase:   Phase(i + 1).String(),
			Buckets: make([]uint64, len(PhaseBucketBounds)+1),
		}
	}
	for _, t := range set.Traces {
		d.Traces++
		if t.Complete {
			d.Complete++
		}
		if t.Violation {
			d.Violations++
		}
		if t.Stale {
			d.Stale++
		}
		d.Retx += t.Retx
		for j := range t.Spans {
			s := &t.Spans[j]
			if s.Phase == 0 {
				continue
			}
			ps := &d.Phases[s.Phase-1]
			sec := s.Duration().Seconds()
			ps.Count++
			ps.TotalSeconds += sec
			if sec > ps.MaxSeconds {
				ps.MaxSeconds = sec
			}
			i := sort.SearchFloat64s(PhaseBucketBounds, sec)
			ps.Buckets[i]++
		}
	}
	return d
}

// Merge folds another distribution into d. Both must carry the full
// causal phase list (as NewDistribution produces); the tournament uses
// this to aggregate one distribution per protocol across the load grid.
func (d *Distribution) Merge(o *Distribution) {
	d.Traces += o.Traces
	d.Complete += o.Complete
	d.Violations += o.Violations
	d.Stale += o.Stale
	d.Retx += o.Retx
	if len(d.Phases) == 0 {
		d.Phases = make([]PhaseStats, len(o.Phases))
		for i, ps := range o.Phases {
			cp := ps
			cp.Buckets = append([]uint64(nil), ps.Buckets...)
			d.Phases[i] = cp
		}
		return
	}
	for i := range o.Phases {
		if i >= len(d.Phases) || d.Phases[i].Phase != o.Phases[i].Phase {
			continue
		}
		dp, op := &d.Phases[i], &o.Phases[i]
		dp.Count += op.Count
		dp.TotalSeconds += op.TotalSeconds
		if op.MaxSeconds > dp.MaxSeconds {
			dp.MaxSeconds = op.MaxSeconds
		}
		for j := range op.Buckets {
			if j < len(dp.Buckets) {
				dp.Buckets[j] += op.Buckets[j]
			}
		}
	}
}

// Phase returns the stats for a named phase, or nil.
func (d *Distribution) Phase(name string) *PhaseStats {
	for i := range d.Phases {
		if d.Phases[i].Phase == name {
			return &d.Phases[i]
		}
	}
	return nil
}
