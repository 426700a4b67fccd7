package frame

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sim"
)

// Robustness: parsers must never panic on arbitrary input — a corrupted
// RS decode that slips through must fail cleanly.

func TestUnmarshalPacketNeverPanics(t *testing.T) {
	rng := sim.NewRNG(1)
	for i := 0; i < 5000; i++ {
		b := make([]byte, phy.CodewordInfoBytes)
		for j := range b {
			b[j] = byte(rng.Uint64())
		}
		pkt, err := UnmarshalPacket(b) // must not panic
		if err == nil && pkt == nil {
			t.Fatal("nil packet without error")
		}
	}
}

func TestUnmarshalControlFieldsNeverPanics(t *testing.T) {
	rng := sim.NewRNG(2)
	for i := 0; i < 2000; i++ {
		b := make([]byte, phy.ControlFieldCodewords*phy.CodewordInfoBytes)
		for j := range b {
			b[j] = byte(rng.Uint64())
		}
		cf, err := UnmarshalControlFields(b)
		if err != nil {
			continue
		}
		// Whatever parsed must re-marshal to the same bits (the layout
		// is total over 6-bit fields).
		back, err := cf.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := UnmarshalControlFields(back); err != nil || *got != *cf {
			t.Fatal("re-marshal mismatch on random control fields")
		}
	}
}

func TestUnmarshalGPSReportNeverPanics(t *testing.T) {
	rng := sim.NewRNG(3)
	valid := 0
	for i := 0; i < 5000; i++ {
		b := make([]byte, GPSReportBytes)
		for j := range b {
			b[j] = byte(rng.Uint64())
		}
		if _, err := UnmarshalGPSReport(b); err == nil {
			valid++
		}
	}
	// The 8-bit checksum lets ~1/256 of random bodies through.
	if valid > 100 {
		t.Fatalf("%d/5000 random GPS bodies validated; checksum too weak", valid)
	}
}

// FuzzUnmarshalPacket feeds arbitrary bytes to the reverse-packet
// parser. Parsing must never panic, and a successful parse must survive
// a marshal/unmarshal round trip. Seed corpus: testdata/fuzz.
func FuzzUnmarshalPacket(f *testing.F) {
	d := &DataPacket{
		Header:  DataHeader{User: 5, MoreSlots: 2, MsgID: 777, Frag: 1, FragTotal: 3},
		Payload: []byte("osu-mac"),
	}
	if b, err := d.Marshal(); err == nil {
		f.Add(b)
	}
	reg := &RegistrationRequest{EIN: 0xBEEF, WantGPS: true}
	if b, err := reg.Marshal(); err == nil {
		f.Add(b)
	}
	rsv := &ReservationRequest{User: 3, Slots: 4}
	if b, err := rsv.Marshal(); err == nil {
		f.Add(b)
	}
	f.Add(make([]byte, phy.CodewordInfoBytes))
	f.Fuzz(func(t *testing.T, b []byte) {
		pkt, err := UnmarshalPacket(b)
		if err != nil {
			return
		}
		if pkt == nil {
			t.Fatal("nil packet without error")
		}
		var back []byte
		switch pkt.Type {
		case TypeData:
			back, err = pkt.Data.Marshal()
		case TypeRegistration:
			back, err = pkt.Register.Marshal()
		case TypeReservation:
			back, err = pkt.Reservation.Marshal()
		default:
			t.Fatalf("parser accepted unknown packet type %v", pkt.Type)
		}
		if err != nil {
			t.Fatalf("re-marshal of parsed packet failed: %v", err)
		}
		if _, err := UnmarshalPacket(back); err != nil {
			t.Fatalf("round-tripped packet failed to parse: %v", err)
		}
	})
}

// FuzzUnmarshalPacketInto checks the allocation-free packet parser
// against the bitio.Reader reference on any input: both accept and
// reject the same bytes, with the same error class, and accepted bytes
// parse to equal packets. The storage it fills starts dirty, so a field
// the parser forgets to set shows up as a mismatch.
func FuzzUnmarshalPacketInto(f *testing.F) {
	for _, p := range []interface{ Marshal() ([]byte, error) }{
		&DataPacket{Header: DataHeader{User: 5, MoreSlots: 2, MsgID: 777, Frag: 1, FragTotal: 3}, Payload: []byte("osu-mac")},
		&DataPacket{Header: DataHeader{User: 62, MsgID: 1}, Payload: make([]byte, MaxPayload)},
		&DataPacket{Header: DataHeader{User: 1}},
		&RegistrationRequest{EIN: 0xBEEF, WantGPS: true},
		&RegistrationRequest{EIN: 7},
		&ReservationRequest{User: 3, Slots: 4},
	} {
		if b, err := p.Marshal(); err == nil {
			f.Add(b)
		}
	}
	f.Add(make([]byte, phy.CodewordInfoBytes))
	f.Add(make([]byte, phy.CodewordInfoBytes-1))
	over := make([]byte, phy.CodewordInfoBytes)
	over[0], over[5], over[6] = byte(TypeData)<<4, 0x03, 0xF0 // payload length 63 > MaxPayload
	f.Add(over)
	badUser := make([]byte, phy.CodewordInfoBytes)
	badUser[0], badUser[1] = byte(TypeReservation)<<4|0x0F, 0xC0 // user 63
	f.Add(badUser)
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := refUnmarshalPacket(b)
		dirty := bytes.Repeat([]byte{0xAA}, MaxPayload)
		p := &Packet{
			Type:        PacketType(9),
			Data:        &DataPacket{Header: DataHeader{User: 9, MsgID: 9}, Payload: dirty[:5]},
			Register:    &RegistrationRequest{EIN: 9, WantGPS: true},
			Reservation: &ReservationRequest{User: 9, Slots: 9},
		}
		before := *p
		err := UnmarshalPacketInto(p, b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("UnmarshalPacketInto err = %v, reference err = %v", err, wantErr)
		}
		if err != nil {
			if errors.Is(err, ErrBadLength) != errors.Is(wantErr, ErrBadLength) ||
				errors.Is(err, ErrBadPacket) != errors.Is(wantErr, ErrBadPacket) {
				t.Fatalf("error class %v, reference %v", err, wantErr)
			}
			if *p != before {
				t.Fatal("a rejected packet changed the storage")
			}
			return
		}
		if p.Type != want.Type {
			t.Fatalf("type %v, reference %v", p.Type, want.Type)
		}
		switch p.Type {
		case TypeData:
			if p.Register != nil || p.Reservation != nil {
				t.Fatal("data packet kept other bodies")
			}
			if p.Data.Header != want.Data.Header || !bytes.Equal(p.Data.Payload, want.Data.Payload) {
				t.Fatalf("data %+v, reference %+v", *p.Data, *want.Data)
			}
		case TypeRegistration:
			if p.Data != nil || p.Reservation != nil {
				t.Fatal("registration kept other bodies")
			}
			if *p.Register != *want.Register {
				t.Fatalf("registration %+v, reference %+v", *p.Register, *want.Register)
			}
		case TypeReservation:
			if p.Data != nil || p.Register != nil {
				t.Fatal("reservation kept other bodies")
			}
			if *p.Reservation != *want.Reservation {
				t.Fatalf("reservation %+v, reference %+v", *p.Reservation, *want.Reservation)
			}
		}
	})
}

// FuzzUnmarshalGPSReportInto is FuzzUnmarshalPacketInto's twin for the
// GPS body parser.
func FuzzUnmarshalGPSReportInto(f *testing.F) {
	g := &GPSReport{User: 2, Sequence: 513, Latitude: 0x123456, Longitude: 0x654321}
	if b, err := g.Marshal(); err == nil {
		f.Add(b)
		bad := bytes.Clone(b)
		bad[9] ^= 1
		f.Add(bad)
	}
	f.Add(make([]byte, GPSReportBytes))
	f.Add(make([]byte, GPSReportBytes+1))
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := refUnmarshalGPSReport(b)
		dirty := GPSReport{User: 9, Sequence: 9, Latitude: 9, Longitude: 9}
		got := dirty
		err := UnmarshalGPSReportInto(&got, b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("UnmarshalGPSReportInto err = %v, reference err = %v", err, wantErr)
		}
		if err != nil {
			if errors.Is(err, ErrBadLength) != errors.Is(wantErr, ErrBadLength) ||
				errors.Is(err, ErrBadPacket) != errors.Is(wantErr, ErrBadPacket) {
				t.Fatalf("error class %v, reference %v", err, wantErr)
			}
			if got != dirty {
				t.Fatal("a rejected body changed the report")
			}
			return
		}
		if got != *want {
			t.Fatalf("report %+v, reference %+v", got, *want)
		}
	})
}

// FuzzUnmarshalControlFields checks the 630-bit control-field layout is
// total: anything that parses must re-marshal to an equal value.
func FuzzUnmarshalControlFields(f *testing.F) {
	if b, err := NewControlFields().Marshal(); err == nil {
		f.Add(b)
	}
	cf := NewControlFields()
	cf.GPSSchedule[0] = 1
	cf.ReverseSchedule[2] = 7
	cf.ReverseACKs[0] = ReverseACK{User: 7, EIN: 0xBEEF}
	if b, err := cf.Marshal(); err == nil {
		f.Add(b)
	}
	f.Add(make([]byte, phy.ControlFieldCodewords*phy.CodewordInfoBytes))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := UnmarshalControlFields(b)
		if err != nil {
			return
		}
		back, err := got.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of parsed control fields failed: %v", err)
		}
		again, err := UnmarshalControlFields(back)
		if err != nil || *again != *got {
			t.Fatalf("control fields round trip diverged: %v", err)
		}
	})
}

// FuzzUnmarshalGPSReport checks the checksum-guarded GPS body parser:
// no panics, and accepted reports re-marshal to the same fields.
func FuzzUnmarshalGPSReport(f *testing.F) {
	g := &GPSReport{User: 2, Sequence: 513, Latitude: 0x123456, Longitude: 0x654321}
	if b, err := g.Marshal(); err == nil {
		f.Add(b)
	}
	f.Add(make([]byte, GPSReportBytes))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := UnmarshalGPSReport(b)
		if err != nil {
			return
		}
		back, err := got.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of accepted GPS report failed: %v", err)
		}
		again, err := UnmarshalGPSReport(back)
		if err != nil || *again != *got {
			t.Fatalf("GPS report round trip diverged: %v", err)
		}
	})
}

// Property: parsing arbitrary length-correct bytes either fails or
// yields a packet that marshals back into parseable bytes.
func TestPropertyPacketParseStability(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		b := make([]byte, phy.CodewordInfoBytes)
		for j := range b {
			b[j] = byte(rng.Uint64())
		}
		pkt, err := UnmarshalPacket(b)
		if err != nil {
			return true
		}
		var back []byte
		switch pkt.Type {
		case TypeData:
			back, err = pkt.Data.Marshal()
		case TypeRegistration:
			back, err = pkt.Register.Marshal()
		case TypeReservation:
			back, err = pkt.Reservation.Marshal()
		default:
			return false
		}
		if err != nil {
			return false
		}
		_, err = UnmarshalPacket(back)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
