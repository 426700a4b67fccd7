// Package frame defines the wire formats of OSU-MAC: the forward-channel
// control fields (paper Fig. 2), reverse-channel data-packet headers with
// the implicit-reservation bit field, registration and reservation
// control packets, and GPS location reports. All formats marshal to and
// from exact bit layouts and travel through the RS(64,48) codec.
package frame

import (
	"errors"
	"fmt"

	"github.com/osu-netlab/osumac/internal/bitio"
	"github.com/osu-netlab/osumac/internal/phy"
)

// UserID is a cell-local 6-bit subscriber identifier assigned at
// registration (paper §3.1).
type UserID uint8

// NoUser is the reserved user ID marking an unassigned slot (a data slot
// carrying NoUser in the reverse schedule is a contention slot). Using a
// sentinel leaves 63 assignable IDs; the cell admission limit accounts
// for this.
const NoUser UserID = 63

// MaxUserID is the largest assignable user ID.
const MaxUserID UserID = 62

// Valid reports whether the ID is assignable (not the sentinel and
// within 6 bits).
func (u UserID) Valid() bool { return u <= MaxUserID }

// String implements fmt.Stringer.
func (u UserID) String() string {
	if u == NoUser {
		return "-"
	}
	return fmt.Sprintf("u%d", uint8(u))
}

// EIN is the permanent, universally unique 16-bit equipment
// identification number of a mobile subscriber.
type EIN uint16

// Control-field layout (reconstructed; see DESIGN.md). The paper states
// the total is 630 bits in 2 RS codewords with 138 bits reserved; this
// is the unique layout consistent with those totals and the stated
// entry counts.
const (
	// UserIDBits is the width of a user ID.
	UserIDBits = 6
	// EINBits is the width of an equipment identification number.
	EINBits = 16

	// GPSScheduleEntries is the GPS slots announced (paper: up to 8).
	GPSScheduleEntries = 8
	// ReverseScheduleEntries is M, the reverse data slots (paper: M=9).
	ReverseScheduleEntries = 9
	// ForwardScheduleEntries is N, the forward data slots (paper: N=37).
	ForwardScheduleEntries = 37
	// ReverseACKEntries matches the reverse data slots.
	ReverseACKEntries = 9
	// PagingEntries is the page capacity (paper: up to 18 users).
	PagingEntries = 18

	// ControlFieldBits is the exact payload size (paper: 630).
	ControlFieldBits = GPSScheduleEntries*UserIDBits +
		ReverseScheduleEntries*UserIDBits +
		ForwardScheduleEntries*UserIDBits +
		ReverseACKEntries*(UserIDBits+EINBits) +
		PagingEntries*UserIDBits
	// ControlFieldReservedBits is the slack in the 2 codewords
	// (paper: 138).
	ControlFieldReservedBits = phy.ControlFieldCodewords*phy.CodewordInfoBits -
		ControlFieldBits
)

// Errors returned by the unmarshalers.
var (
	// ErrBadLength is returned for wrong-sized buffers.
	ErrBadLength = errors.New("frame: wrong buffer length")
	// ErrBadPacket is returned for malformed packet contents.
	ErrBadPacket = errors.New("frame: malformed packet")
)

// ReverseACK acknowledges activity in one reverse data slot of the
// previous cycle (paper §3.1): User names the subscriber whose data or
// reservation was received; for an approved registration, EIN carries
// the requester's equipment number and User the newly assigned ID. A
// zero-valued entry (User == NoUser) means nothing was received in that
// slot.
type ReverseACK struct {
	User UserID
	EIN  EIN
}

// None reports whether the entry acknowledges nothing.
func (a ReverseACK) None() bool { return a.User == NoUser && a.EIN == 0 }

// ControlFields is one set of forward-channel control fields
// (paper Fig. 2). Two sets are sent per notification cycle; they differ
// only in the reverse ACKs covering last-slot activity (paper §3.4
// problem 3).
type ControlFields struct {
	// GPSSchedule[i] is the user assigned reverse GPS slot i.
	GPSSchedule [GPSScheduleEntries]UserID
	// ReverseSchedule[i] is the user assigned reverse data slot i;
	// NoUser marks a contention slot.
	ReverseSchedule [ReverseScheduleEntries]UserID
	// ForwardSchedule[i] is the user receiving forward data slot i.
	ForwardSchedule [ForwardScheduleEntries]UserID
	// ReverseACKs[i] acknowledges reverse data slot i of the previous
	// cycle.
	ReverseACKs [ReverseACKEntries]ReverseACK
	// Paging lists user IDs being paged.
	Paging [PagingEntries]UserID
}

// NewControlFields returns control fields with every entry unassigned.
func NewControlFields() *ControlFields {
	cf := &ControlFields{}
	for i := range cf.GPSSchedule {
		cf.GPSSchedule[i] = NoUser
	}
	for i := range cf.ReverseSchedule {
		cf.ReverseSchedule[i] = NoUser
	}
	for i := range cf.ForwardSchedule {
		cf.ForwardSchedule[i] = NoUser
	}
	for i := range cf.ReverseACKs {
		cf.ReverseACKs[i] = ReverseACK{User: NoUser}
	}
	for i := range cf.Paging {
		cf.Paging[i] = NoUser
	}
	return cf
}

// ActiveGPSUsers counts assigned GPS slots; mobiles derive the cycle
// format from this (paper §3.3: format 1 iff the count exceeds 3).
func (cf *ControlFields) ActiveGPSUsers() int {
	n := 0
	for _, u := range cf.GPSSchedule {
		if u != NoUser {
			n++
		}
	}
	return n
}

// ContentionSlots lists the reverse data-slot indices left unassigned,
// which subscribers may contend in.
func (cf *ControlFields) ContentionSlots() []int {
	var out []int
	for i, u := range cf.ReverseSchedule {
		if u == NoUser {
			out = append(out, i)
		}
	}
	return out
}

// ContentionSlotCount counts the unassigned reverse data slots without
// allocating: the hot-path form of len(ContentionSlots()).
func (cf *ControlFields) ContentionSlotCount() int {
	n := 0
	for _, u := range cf.ReverseSchedule {
		if u == NoUser {
			n++
		}
	}
	return n
}

// ControlFieldBytes is the marshaled control-field size: the information
// bytes of two RS codewords.
const ControlFieldBytes = phy.ControlFieldCodewords * phy.CodewordInfoBytes

// ControlFieldAirBytes is the on-air control-field size: two full RS
// codewords as produced by Codec.EncodeControlFields.
const ControlFieldAirBytes = phy.ControlFieldCodewords * phy.CodewordBytes

// Marshal packs the control fields into the information bytes of two RS
// codewords (96 bytes); the trailing reserved bits are zero. An entry
// that does not fit its field width (e.g. a user ID above 6 bits)
// returns ErrBadPacket.
func (cf *ControlFields) Marshal() ([]byte, error) {
	return cf.MarshalTo(nil)
}

// MarshalTo packs the control fields like Marshal but appends the 96
// information bytes to dst, so a reused buffer makes the steady-state
// encode allocation-free. Field widths are validated up front; the
// rare failure rebuilds the faithful wrapped error with a throwaway
// Writer off the hot path (a bitio.Writer over caller memory would
// force the buffer onto the heap — see bitio.PutBitsAt).
//
//lint:ignore codecpair UnmarshalControlFieldsInto is the round-trip counterpart; the analyzer pairs by name suffix only
func (cf *ControlFields) MarshalTo(dst []byte) ([]byte, error) {
	if err := cf.Validate(); err != nil {
		return nil, err
	}
	dst, buf := appendZeros(dst, ControlFieldBytes)
	nbit := 0
	for _, u := range cf.GPSSchedule {
		nbit = bitio.PutBitsAt(buf, nbit, uint64(u), UserIDBits)
	}
	for _, u := range cf.ReverseSchedule {
		nbit = bitio.PutBitsAt(buf, nbit, uint64(u), UserIDBits)
	}
	for _, u := range cf.ForwardSchedule {
		nbit = bitio.PutBitsAt(buf, nbit, uint64(u), UserIDBits)
	}
	for _, a := range cf.ReverseACKs {
		nbit = bitio.PutBitsAt(buf, nbit, uint64(a.User), UserIDBits)
		nbit = bitio.PutBitsAt(buf, nbit, uint64(a.EIN), EINBits)
	}
	for _, u := range cf.Paging {
		nbit = bitio.PutBitsAt(buf, nbit, uint64(u), UserIDBits)
	}
	return dst, nil
}

// Validate reports whether the control fields can be marshaled: it
// returns exactly the error MarshalTo would return, without encoding
// anything. A caller that needs the encoded form only sometimes checks
// every set with Validate and encodes on demand.
func (cf *ControlFields) Validate() error {
	if !cf.fieldsInRange() {
		return cf.marshalErr()
	}
	return nil
}

// fieldsInRange reports whether every entry fits its declared field
// width. EINs always fit their 16 bits; user IDs are 8-bit values in
// 6-bit fields.
func (cf *ControlFields) fieldsInRange() bool {
	for _, u := range cf.GPSSchedule {
		if u > NoUser {
			return false
		}
	}
	for _, u := range cf.ReverseSchedule {
		if u > NoUser {
			return false
		}
	}
	for _, u := range cf.ForwardSchedule {
		if u > NoUser {
			return false
		}
	}
	for _, a := range cf.ReverseACKs {
		if a.User > NoUser {
			return false
		}
	}
	for _, u := range cf.Paging {
		if u > NoUser {
			return false
		}
	}
	return true
}

// marshalErr reproduces the wrapped field-width error off the hot path,
// identical to what the strict Writer path has always reported.
func (cf *ControlFields) marshalErr() error {
	w := bitio.NewWriter(ControlFieldBytes * 8)
	for _, u := range cf.GPSSchedule {
		w.PutBits(uint64(u), UserIDBits)
	}
	for _, u := range cf.ReverseSchedule {
		w.PutBits(uint64(u), UserIDBits)
	}
	for _, u := range cf.ForwardSchedule {
		w.PutBits(uint64(u), UserIDBits)
	}
	for _, a := range cf.ReverseACKs {
		w.PutBits(uint64(a.User), UserIDBits)
		w.PutBits(uint64(a.EIN), EINBits)
	}
	for _, u := range cf.Paging {
		w.PutBits(uint64(u), UserIDBits)
	}
	return fmt.Errorf("%w: control fields: %w", ErrBadPacket, w.Err())
}

// UnmarshalControlFields parses the 96 information bytes of a
// control-field set.
func UnmarshalControlFields(b []byte) (*ControlFields, error) {
	cf := &ControlFields{}
	if err := UnmarshalControlFieldsInto(cf, b); err != nil {
		return nil, err
	}
	return cf, nil
}

// UnmarshalControlFieldsInto parses like UnmarshalControlFields but
// fills a caller-owned struct, so the hot path avoids the per-set
// allocation. After the length check no read can fail: the 630 field
// bits always fit the 96-byte buffer.
func UnmarshalControlFieldsInto(cf *ControlFields, b []byte) error {
	if len(b) != ControlFieldBytes {
		return fmt.Errorf("%w: control fields %d bytes, want %d", ErrBadLength, len(b), ControlFieldBytes)
	}
	nbit := 0
	var v uint64
	for i := range cf.GPSSchedule {
		v, nbit = bitio.TakeBitsAt(b, nbit, UserIDBits)
		cf.GPSSchedule[i] = UserID(v)
	}
	for i := range cf.ReverseSchedule {
		v, nbit = bitio.TakeBitsAt(b, nbit, UserIDBits)
		cf.ReverseSchedule[i] = UserID(v)
	}
	for i := range cf.ForwardSchedule {
		v, nbit = bitio.TakeBitsAt(b, nbit, UserIDBits)
		cf.ForwardSchedule[i] = UserID(v)
	}
	for i := range cf.ReverseACKs {
		v, nbit = bitio.TakeBitsAt(b, nbit, UserIDBits)
		cf.ReverseACKs[i].User = UserID(v)
		v, nbit = bitio.TakeBitsAt(b, nbit, EINBits)
		cf.ReverseACKs[i].EIN = EIN(v)
	}
	for i := range cf.Paging {
		v, nbit = bitio.TakeBitsAt(b, nbit, UserIDBits)
		cf.Paging[i] = UserID(v)
	}
	return nil
}
