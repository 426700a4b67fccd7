// Package core implements the OSU-MAC protocol: the base station with
// its registration handling, GPS slot table, contention controller and
// cycle scheduler; the mobile-subscriber state machine; and the network
// harness that runs them over the simulated physical layer.
package core

import (
	"sync"
	"time"

	"github.com/osu-netlab/osumac/internal/phy"
)

// ReverseFormat selects the reverse-channel cycle structure
// (paper §3.3, Fig. 3).
type ReverseFormat int

// Format1 (8 GPS + 8 data slots) is used with more than three active
// GPS users; Format2 (3 GPS + 9 data slots) otherwise.
const (
	Format1 ReverseFormat = iota + 1
	Format2
)

// String implements fmt.Stringer.
func (f ReverseFormat) String() string {
	switch f {
	case Format1:
		return "format1"
	case Format2:
		return "format2"
	default:
		return "format?"
	}
}

// FormatFor returns the reverse format for the given number of active
// GPS users. The choice is announced implicitly: mobiles count the
// assigned GPS slots in the control fields.
func FormatFor(gpsUsers int) ReverseFormat {
	if gpsUsers > phy.Format2GPSSlots {
		return Format1
	}
	return Format2
}

// GPSSlots returns the GPS slots in this format.
func (f ReverseFormat) GPSSlots() int {
	if f == Format1 {
		return phy.Format1GPSSlots
	}
	return phy.Format2GPSSlots
}

// DataSlots returns the regular data slots in this format.
func (f ReverseFormat) DataSlots() int {
	if f == Format1 {
		return phy.Format1DataSlots
	}
	return phy.Format2DataSlots
}

// Layout holds the slot timing of one notification cycle. All intervals
// are offsets from the forward cycle start; the reverse cycle begins
// ReverseShift later and its last data slot runs into the next forward
// cycle, overlapping that cycle's first control fields — which is why
// the second control-field set exists.
type Layout struct {
	// Format is the reverse-channel structure this layout describes.
	Format ReverseFormat

	// CF1 and CF2 are the control-field transmission intervals on the
	// forward channel.
	CF1, CF2 phy.Interval
	// ForwardData are the N=37 forward data slots.
	ForwardData []phy.Interval

	// GPS are the reverse-channel GPS slots (8 or 3).
	GPS []phy.Interval
	// ReverseData are the reverse data slots (8 or 9).
	ReverseData []phy.Interval
}

// NewLayout computes the slot timing for a reverse format. The times
// reproduce paper Table 2 exactly (see TestTable2AccessTimes).
func NewLayout(format ReverseFormat) Layout {
	l := Layout{Format: format}

	// Forward channel: preamble(300) CF1(600) slot0(300) preamble(150)
	// CF2(600) slots 1..36 (300 each).
	fw := func(sym int) time.Duration { return phy.SymbolDuration(sym, phy.ForwardSymbolRate) }
	at := fw(phy.CyclePreamble1Symbols)
	l.CF1 = phy.Interval{Start: at, End: at + phy.ControlFieldTime}
	at = l.CF1.End
	l.ForwardData = make([]phy.Interval, 0, phy.ForwardDataSlots)
	l.ForwardData = append(l.ForwardData, phy.Interval{Start: at, End: at + phy.ForwardPacketTime})
	at += phy.ForwardPacketTime
	at += fw(phy.CyclePreamble2Symbols)
	l.CF2 = phy.Interval{Start: at, End: at + phy.ControlFieldTime}
	at = l.CF2.End
	for i := 1; i < phy.ForwardDataSlots; i++ {
		l.ForwardData = append(l.ForwardData, phy.Interval{Start: at, End: at + phy.ForwardPacketTime})
		at += phy.ForwardPacketTime
	}

	// Reverse channel: δ shift, then GPS slots, then data slots.
	at = phy.ReverseShift
	l.GPS = make([]phy.Interval, 0, format.GPSSlots())
	for i := 0; i < format.GPSSlots(); i++ {
		l.GPS = append(l.GPS, phy.Interval{Start: at, End: at + phy.GPSSlotTime})
		at += phy.GPSSlotTime
	}
	l.ReverseData = make([]phy.Interval, 0, format.DataSlots())
	for i := 0; i < format.DataSlots(); i++ {
		l.ReverseData = append(l.ReverseData, phy.Interval{Start: at, End: at + phy.ReverseDataSlotTime})
		at += phy.ReverseDataSlotTime
	}
	return l
}

// sharedLayouts holds the two reverse formats' layouts, built once per
// process. Every cell reads them and none writes them, so cells on
// different workers share the slices safely.
var sharedLayouts = sync.OnceValue(func() *[2]Layout {
	return &[2]Layout{NewLayout(Format1), NewLayout(Format2)}
})

// layoutOf returns the process-wide layout of a reverse format. Its
// slices are shared and must not be modified.
func layoutOf(f ReverseFormat) Layout { return sharedLayouts()[f-1] }

// LastDataSlot returns the index of the last reverse data slot, whose
// transmission overlaps the next cycle's CF1.
func (l Layout) LastDataSlot() int { return len(l.ReverseData) - 1 }

// LastSlotOverlapsNextCF1 verifies the structural property that drives
// the two-control-field design: the final reverse data slot overlaps
// the next forward cycle's first control fields, and no other reverse
// slot does.
func (l Layout) LastSlotOverlapsNextCF1() bool {
	nextCF1 := phy.Interval{
		Start: phy.CycleLength + l.CF1.Start,
		End:   phy.CycleLength + l.CF1.End,
	}
	for i, iv := range l.ReverseData {
		overlaps := iv.Overlaps(nextCF1)
		if i == l.LastDataSlot() && !overlaps {
			return false
		}
		if i != l.LastDataSlot() && overlaps {
			return false
		}
	}
	for _, iv := range l.GPS {
		if iv.Overlaps(nextCF1) {
			return false
		}
	}
	return true
}

// ReverseTxInterval returns the on-air interval of a transmission in
// reverse data slot i, offset to the forward cycle start.
func (l Layout) ReverseTxInterval(slot int) phy.Interval { return l.ReverseData[slot] }

// CF2User returns which reverse data slot's owner must listen to CF2:
// always the last slot (paper §3.4 problem 2).
func (l Layout) CF2Slot() int { return l.LastDataSlot() }

// Table2AccessTimes returns the reverse-channel access times of this
// format as (GPS slot starts, data slot starts), reproducing paper
// Table 2.
func (l Layout) Table2AccessTimes() (gps, data []time.Duration) {
	for _, iv := range l.GPS {
		gps = append(gps, iv.Start)
	}
	for _, iv := range l.ReverseData {
		data = append(data, iv.Start)
	}
	return gps, data
}

// SlotAt maps a reverse-channel time offset to (isGPS, slotIndex); ok is
// false if the offset falls in no slot.
func (l Layout) SlotAt(offset time.Duration) (isGPS bool, slot int, ok bool) {
	for i, s := range l.GPS {
		if offset >= s.Start && offset < s.End {
			return true, i, true
		}
	}
	for i, s := range l.ReverseData {
		if offset >= s.Start && offset < s.End {
			return false, i, true
		}
	}
	return false, 0, false
}
