package frame

import (
	"fmt"

	"github.com/osu-netlab/osumac/internal/bitio"
	"github.com/osu-netlab/osumac/internal/phy"
)

// This file keeps the bitio.Reader-based parsers as executable
// references: UnmarshalPacketInto and UnmarshalGPSReportInto must
// accept and reject exactly what they do and return equal values (see
// FuzzUnmarshalPacketInto and FuzzUnmarshalGPSReportInto).

// refUnmarshalPacket parses the 48 information bytes of a reverse
// packet through a bitio.Reader.
func refUnmarshalPacket(b []byte) (*Packet, error) {
	if len(b) != phy.CodewordInfoBytes {
		return nil, fmt.Errorf("%w: packet %d bytes, want %d", ErrBadLength, len(b), phy.CodewordInfoBytes)
	}
	r := bitio.NewReader(b)
	t := PacketType(r.TakeBits(typeBits))
	switch t {
	case TypeData:
		h := DataHeader{
			User:      UserID(r.TakeBits(UserIDBits)),
			MoreSlots: uint8(r.TakeBits(moreSlotsBits)),
			MsgID:     uint16(r.TakeBits(msgIDBits)),
			Frag:      uint8(r.TakeBits(fragBits)),
			FragTotal: uint8(r.TakeBits(fragBits)),
		}
		n := int(r.TakeBits(payloadLenBits))
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%w: data header: %w", ErrBadPacket, err)
		}
		if n > MaxPayload {
			return nil, fmt.Errorf("%w: payload length %d exceeds max %d", ErrBadPacket, n, MaxPayload)
		}
		if err := r.Skip(headerBits - 52); err != nil {
			return nil, err
		}
		payload := r.TakeBytes(n)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%w: data payload: %w", ErrBadPacket, err)
		}
		return &Packet{Type: TypeData, Data: &DataPacket{Header: h, Payload: payload}}, nil
	case TypeRegistration:
		ein := EIN(r.TakeBits(EINBits))
		wantGPS := r.TakeBool()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%w: registration request: %w", ErrBadPacket, err)
		}
		return &Packet{Type: TypeRegistration, Register: &RegistrationRequest{EIN: ein, WantGPS: wantGPS}}, nil
	case TypeReservation:
		user := UserID(r.TakeBits(UserIDBits))
		slots := uint8(r.TakeBits(moreSlotsBits))
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%w: reservation request: %w", ErrBadPacket, err)
		}
		if !user.Valid() {
			return nil, fmt.Errorf("%w: reservation from invalid user %d", ErrBadPacket, user)
		}
		return &Packet{Type: TypeReservation, Reservation: &ReservationRequest{User: user, Slots: slots}}, nil
	default:
		return nil, fmt.Errorf("%w: unknown packet type %d", ErrBadPacket, int(t))
	}
}

// refUnmarshalGPSReport parses and validates a GPS packet body through
// a bitio.Reader.
func refUnmarshalGPSReport(b []byte) (*GPSReport, error) {
	if len(b) != GPSReportBytes {
		return nil, fmt.Errorf("%w: GPS body %d bytes, want %d", ErrBadLength, len(b), GPSReportBytes)
	}
	if xorChecksum(b[:9]) != b[9] {
		return nil, fmt.Errorf("%w: GPS checksum mismatch", ErrBadPacket)
	}
	r := bitio.NewReader(b)
	g := &GPSReport{}
	g.User = UserID(r.TakeBits(UserIDBits))
	g.Sequence = uint16(r.TakeBits(16))
	g.Latitude = uint32(r.TakeBits(24))
	g.Longitude = uint32(r.TakeBits(24))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: GPS report: %w", ErrBadPacket, err)
	}
	return g, nil
}
