package frame

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/osu-netlab/osumac/internal/phy"
)

// TestControlFieldBitBudget pins the reconstructed layout to the paper's
// stated totals: 630 payload bits, 138 reserved of 768.
func TestControlFieldBitBudget(t *testing.T) {
	if ControlFieldBits != 630 {
		t.Fatalf("ControlFieldBits = %d, want 630", ControlFieldBits)
	}
	if ControlFieldReservedBits != 138 {
		t.Fatalf("ControlFieldReservedBits = %d, want 138", ControlFieldReservedBits)
	}
	if got := GPSScheduleEntries * UserIDBits; got != 48 {
		t.Fatalf("GPS schedule bits = %d, want 48", got)
	}
	if got := ReverseScheduleEntries * UserIDBits; got != 54 {
		t.Fatalf("reverse schedule bits = %d, want 54", got)
	}
	if got := ForwardScheduleEntries * UserIDBits; got != 222 {
		t.Fatalf("forward schedule bits = %d, want 222", got)
	}
}

func TestNewControlFieldsAllUnassigned(t *testing.T) {
	cf := NewControlFields()
	if cf.ActiveGPSUsers() != 0 {
		t.Fatal("fresh control fields report active GPS users")
	}
	if got := len(cf.ContentionSlots()); got != ReverseScheduleEntries {
		t.Fatalf("fresh control fields have %d contention slots, want all %d", got, ReverseScheduleEntries)
	}
	for _, a := range cf.ReverseACKs {
		if !a.None() {
			t.Fatal("fresh ACK entry not empty")
		}
	}
}

func TestControlFieldsRoundTrip(t *testing.T) {
	cf := NewControlFields()
	cf.GPSSchedule[0] = 5
	cf.GPSSchedule[7] = 12
	cf.ReverseSchedule[1] = 33
	cf.ReverseSchedule[8] = 62
	cf.ForwardSchedule[0] = 1
	cf.ForwardSchedule[36] = 44
	cf.ReverseACKs[2] = ReverseACK{User: 9, EIN: 0xBEEF}
	cf.Paging[17] = 21

	b, err := cf.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalControlFields(b)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *cf {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, cf)
	}
}

func TestMarshalControlFieldsRejectsOversizedID(t *testing.T) {
	cf := NewControlFields()
	cf.GPSSchedule[0] = 64 // does not fit 6 bits
	if _, err := cf.Marshal(); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("err = %v, want ErrBadPacket", err)
	}
}

// TestValidateMatchesMarshalTo pins Validate to MarshalTo's verdict: an
// out-of-range entry in any of the five fields yields the identical
// error, and an all-unassigned set validates clean.
func TestValidateMatchesMarshalTo(t *testing.T) {
	if err := NewControlFields().Validate(); err != nil {
		t.Fatalf("NewControlFields: Validate = %v, want nil", err)
	}
	cases := []struct {
		name string
		set  func(cf *ControlFields)
	}{
		{"gps", func(cf *ControlFields) { cf.GPSSchedule[3] = 64 }},
		{"reverse", func(cf *ControlFields) { cf.ReverseSchedule[8] = 200 }},
		{"forward", func(cf *ControlFields) { cf.ForwardSchedule[36] = 65 }},
		{"ack", func(cf *ControlFields) { cf.ReverseACKs[0] = ReverseACK{User: 255, EIN: 7} }},
		{"paging", func(cf *ControlFields) { cf.Paging[17] = 100 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cf := NewControlFields()
			tc.set(cf)
			verr := cf.Validate()
			_, merr := cf.MarshalTo(nil)
			if verr == nil || merr == nil {
				t.Fatalf("Validate = %v, MarshalTo = %v: want both to fail", verr, merr)
			}
			if !errors.Is(verr, ErrBadPacket) || verr.Error() != merr.Error() {
				t.Fatalf("Validate = %q, MarshalTo = %q: want the same ErrBadPacket", verr, merr)
			}
		})
	}
}

func TestUnmarshalControlFieldsLength(t *testing.T) {
	if _, err := UnmarshalControlFields(make([]byte, 95)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestActiveGPSUsersAndContentionSlots(t *testing.T) {
	cf := NewControlFields()
	cf.GPSSchedule[0] = 1
	cf.GPSSchedule[1] = 2
	cf.GPSSchedule[2] = 3
	cf.GPSSchedule[3] = 4
	if cf.ActiveGPSUsers() != 4 {
		t.Fatalf("ActiveGPSUsers = %d, want 4", cf.ActiveGPSUsers())
	}
	cf.ReverseSchedule[0] = NoUser // contention
	cf.ReverseSchedule[1] = 7
	cf.ReverseSchedule[2] = 7
	slots := cf.ContentionSlots()
	if len(slots) != ReverseScheduleEntries-2 {
		t.Fatalf("contention slots = %v", slots)
	}
	if slots[0] != 0 {
		t.Fatalf("first contention slot = %d, want 0", slots[0])
	}
}

func TestUserID(t *testing.T) {
	if NoUser.Valid() {
		t.Fatal("NoUser should not be assignable")
	}
	if !UserID(0).Valid() || !MaxUserID.Valid() {
		t.Fatal("boundary IDs should be valid")
	}
	if NoUser.String() != "-" {
		t.Fatalf("NoUser.String() = %q", NoUser.String())
	}
	if UserID(7).String() != "u7" {
		t.Fatalf("UserID(7).String() = %q", UserID(7).String())
	}
}

func TestPacketTypeString(t *testing.T) {
	for _, c := range []struct {
		t    PacketType
		want string
	}{
		{TypeData, "data"},
		{TypeRegistration, "registration"},
		{TypeReservation, "reservation"},
	} {
		if c.t.String() != c.want {
			t.Errorf("%d.String() = %q, want %q", int(c.t), c.t.String(), c.want)
		}
	}
	if PacketType(9).String() == "" {
		t.Error("unknown type should still render")
	}
}

// Property: arbitrary valid control fields survive a marshal/unmarshal
// round-trip.
func TestPropertyControlFieldsRoundTrip(t *testing.T) {
	f := func(gps [8]uint8, rev [9]uint8, fwd [37]uint8, ackU [9]uint8, ackE [9]uint16, page [18]uint8) bool {
		cf := NewControlFields()
		for i, v := range gps {
			cf.GPSSchedule[i] = UserID(v % 64)
		}
		for i, v := range rev {
			cf.ReverseSchedule[i] = UserID(v % 64)
		}
		for i, v := range fwd {
			cf.ForwardSchedule[i] = UserID(v % 64)
		}
		for i := range ackU {
			cf.ReverseACKs[i] = ReverseACK{User: UserID(ackU[i] % 64), EIN: EIN(ackE[i])}
		}
		for i, v := range page {
			cf.Paging[i] = UserID(v % 64)
		}
		b, err := cf.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalControlFields(b)
		return err == nil && *got == *cf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalSizeMatchesCodewords(t *testing.T) {
	cf := NewControlFields()
	b, err := cf.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != phy.ControlFieldCodewords*phy.CodewordInfoBytes {
		t.Fatalf("marshal size %d, want %d", len(b), phy.ControlFieldCodewords*phy.CodewordInfoBytes)
	}
}
