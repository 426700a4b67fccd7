package experiments

// Metro-scale deployment runner: thousands of OSU-MAC cells on one
// backbone, exercising the per-cell-kernel engine at the scale it
// exists for.
//
// The 16-bit EIN space caps the backbone's global routing table at
// 65536 addresses, so a metro deployment splits its population the way
// a real one would: the bulk of each cell's subscribers are cell-local
// (their EINs are unique only within their cell and they never cross
// the wire), while a small routed subset per cell registers globally
// and carries the inter-cell ring traffic that keeps the exchange
// machinery loaded.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"github.com/osu-netlab/osumac/internal/backbone"
	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/traffic"
)

// MetroOptions sizes a metro deployment.
type MetroOptions struct {
	// Cells is the number of OSU-MAC cells on the backbone.
	Cells int
	// GPSPerCell and DataPerCell populate each cell with cell-local
	// subscribers (bounded by phy.MaxGPSUsers / phy.MaxDataUsers, the
	// latter shared with RoutedPerCell).
	GPSPerCell  int
	DataPerCell int
	// RoutedPerCell is the number of globally-addressable data
	// subscribers per cell (Cells×RoutedPerCell ≤ the 16-bit address
	// space; they count against the cell's data capacity).
	RoutedPerCell int
	// Load is the per-cell data load index ρ.
	Load float64
	// Seed drives all randomness; cell i runs Seed+i.
	Seed uint64
	// Warmup and Cycles split the run: ring traffic is injected after
	// Warmup settles registrations.
	Warmup, Cycles int
	// WireDelay is the backbone latency (and the conservative-lookahead
	// bound); it must be positive.
	WireDelay time.Duration
	// Deprecated: Sharded has no effect; every deployment runs one kernel per cell.
	Sharded bool
	// Lookahead overrides the barrier window (0: WireDelay).
	Lookahead time.Duration
}

// DefaultMetro returns the full metro configuration: ~14k cells at the
// cell capacity of 72 subscribers — just over one million subscribers —
// with a routed pair per cell filling the global address space.
func DefaultMetro() MetroOptions {
	return MetroOptions{
		Cells:         14000,
		GPSPerCell:    phy.MaxGPSUsers,
		DataPerCell:   phy.MaxDataUsers - 2,
		RoutedPerCell: 2,
		Load:          0.8,
		Seed:          42,
		Warmup:        2,
		Cycles:        3,
		WireDelay:     phy.CycleLength,
	}
}

// MetroResult is a metro run's outcome, reduced to headline numbers and
// a digest over every per-cell metrics snapshot. Equal digests mean
// byte-identical per-cell metrics — the cross-run comparison a
// million-subscriber run can afford.
type MetroResult struct {
	Cells       int
	Subscribers int
	Forwarded   uint64
	Delivered   uint64
	// RingSends counts accepted ring injections; sources still working
	// through registration contention after Warmup are skipped (the
	// skip set is deterministic, because the post-warmup state is).
	RingSends   int
	MeanLatency float64 // seconds, uplink arrival → downlink enqueue
	Utilization float64 // mean reverse-link utilization across cells
	Digest      uint64  // FNV-1a over per-cell snapshots + backbone state
}

// routedAddr returns the global address of routed subscriber r in cell
// c. The routed population occupies the global space from 20000 upward,
// disjoint from the cell-local EIN ranges (1000+/2000+).
func routedAddr(c, r, perCell int) backbone.Address {
	return backbone.Address(20000 + c*perCell + r)
}

// Metro builds, runs, and digests one metro-scale deployment.
func Metro(opts MetroOptions) (*MetroResult, error) {
	if opts.Cells <= 0 {
		return nil, fmt.Errorf("experiments: metro needs at least one cell")
	}
	if opts.GPSPerCell > phy.MaxGPSUsers || opts.DataPerCell+opts.RoutedPerCell > phy.MaxDataUsers {
		return nil, fmt.Errorf("experiments: metro population exceeds cell capacity (%d GPS, %d data)",
			phy.MaxGPSUsers, phy.MaxDataUsers)
	}
	if routed := opts.Cells * opts.RoutedPerCell; 20000+routed > 1<<16 {
		return nil, fmt.Errorf("experiments: %d routed subscribers exceed the 16-bit global address space", routed)
	}
	cfg := core.NewConfig()
	cfg.Seed = opts.Seed
	dataUsers := opts.DataPerCell + opts.RoutedPerCell
	if opts.Load > 0 && dataUsers > 0 {
		dataSlots := phy.Format1DataSlots
		if opts.GPSPerCell <= phy.Format2GPSSlots {
			dataSlots = phy.Format2DataSlots
		}
		cfg.MeanInterarrival = traffic.InterarrivalForSlots(
			opts.Load, dataUsers, cfg.SizeDist, frame.MaxPayload, phy.CycleLength, dataSlots)
	}
	in, err := backbone.NewWithOptions(cfg, backbone.Options{
		Cells:     opts.Cells,
		WireDelay: opts.WireDelay,
		Lookahead: opts.Lookahead,
	})
	if err != nil {
		return nil, err
	}
	subs := 0
	for c := 0; c < opts.Cells; c++ {
		cell := in.Cell(c)
		for i := 0; i < opts.GPSPerCell; i++ {
			if _, err := cell.AddSubscriber(frame.EIN(1000+i), true, time.Duration(i)*time.Second); err != nil {
				return nil, err
			}
		}
		// Routed subscribers join first so they clear registration
		// contention as early as possible; the cell-local bulk follows.
		for r := 0; r < opts.RoutedPerCell; r++ {
			if _, err := in.AddSubscriber(routedAddr(c, r, opts.RoutedPerCell), c, false,
				time.Duration(r)*500*time.Millisecond); err != nil {
				return nil, err
			}
		}
		for i := 0; i < opts.DataPerCell; i++ {
			if _, err := cell.AddSubscriber(frame.EIN(2000+i), false,
				time.Duration(opts.RoutedPerCell+i)*500*time.Millisecond); err != nil {
				return nil, err
			}
		}
		subs += opts.GPSPerCell + dataUsers
	}
	if opts.Warmup > 0 {
		if err := in.Run(opts.Warmup); err != nil {
			return nil, err
		}
	}
	// Ring traffic: each cell's first routed subscriber sends to the
	// next cell's, so every (src, dst) backbone pair on the ring carries
	// one message and every exchange batch has cross-cell merge work.
	// Sources still in registration contention are skipped; the skip set
	// is deterministic because the post-warmup state is.
	ringSends := 0
	if opts.RoutedPerCell > 0 && opts.Cells > 1 {
		for c := 0; c < opts.Cells; c++ {
			src := routedAddr(c, 0, opts.RoutedPerCell)
			if in.Subscriber(src).State() != core.StateActive {
				continue
			}
			if err := in.Send(src, routedAddr((c+1)%opts.Cells, 0, opts.RoutedPerCell), 120+10*(c%9)); err != nil {
				return nil, err
			}
			ringSends++
		}
	}
	if err := in.Run(opts.Cycles); err != nil {
		return nil, err
	}

	res := &MetroResult{
		Cells:       opts.Cells,
		Subscribers: subs,
		Forwarded:   in.Forwarded.Value(),
		Delivered:   in.Delivered.Value(),
		RingSends:   ringSends,
		MeanLatency: in.EndToEndLat.Mean(),
	}
	h := fnv.New64a()
	var util float64
	for c := 0; c < opts.Cells; c++ {
		snap, err := json.Marshal(in.Cell(c).Metrics().Snapshot())
		if err != nil {
			return nil, err
		}
		if _, err := h.Write(snap); err != nil {
			return nil, err
		}
		util += in.Cell(c).Metrics().Utilization()
	}
	fmt.Fprintf(h, "fwd=%d del=%d ring=%d lat=%v vals=%v",
		res.Forwarded, res.Delivered, res.RingSends, in.EndToEndLat.Sum(), in.EndToEndLat.Values())
	res.Digest = h.Sum64()
	res.Utilization = util / float64(opts.Cells)
	return res, nil
}
