package frame

import (
	"fmt"
	"slices"

	"github.com/osu-netlab/osumac/internal/bitio"
	"github.com/osu-netlab/osumac/internal/phy"
)

// PacketType tags the contents of a reverse-channel packet. Control
// information travels in-band: data packets carry a header, while
// registration and reservation requests are standalone control packets
// sent in contention slots (paper §3.1).
type PacketType int

// Reverse-channel packet types.
const (
	TypeData PacketType = iota + 1
	TypeRegistration
	TypeReservation
)

// String implements fmt.Stringer.
func (t PacketType) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeRegistration:
		return "registration"
	case TypeReservation:
		return "reservation"
	default:
		return fmt.Sprintf("PacketType(%d)", int(t))
	}
}

// Bit widths of the data-packet header fields.
const (
	typeBits       = 4
	moreSlotsBits  = 4
	msgIDBits      = 16
	fragBits       = 8
	payloadLenBits = 6

	// headerBits is the data header size: 4+6+4+16+8+8+6 = 52, padded
	// to 56 bits (7 bytes).
	headerBits  = 56
	headerBytes = headerBits / 8

	// MaxPayload is the data bytes one packet carries: 48-byte RS
	// message minus the 7-byte header.
	MaxPayload = phy.CodewordInfoBytes - headerBytes

	// MaxMoreSlots caps the implicit piggyback reservation request.
	MaxMoreSlots = 1<<moreSlotsBits - 1
	// MaxFragments caps the fragments per message.
	MaxFragments = 1<<fragBits - 1
)

// DataHeader is the in-band control header of a reverse data packet.
// MoreSlots is the paper's implicit-reservation field: the number of
// additional data slots the subscriber requests for the next cycle.
type DataHeader struct {
	User      UserID
	MoreSlots uint8
	MsgID     uint16
	Frag      uint8
	FragTotal uint8
}

// DataPacket is a regular reverse- or forward-channel data packet: one
// RS(64,48) codeword with a 7-byte header and up to 41 payload bytes.
type DataPacket struct {
	Header  DataHeader
	Payload []byte
}

// Marshal packs the packet into the 48 information bytes of one RS
// codeword.
func (p *DataPacket) Marshal() ([]byte, error) {
	return p.MarshalTo(nil)
}

// MarshalTo packs the packet like Marshal but appends the 48
// information bytes to dst, so a reused buffer makes the encode
// allocation-free. Every field is range-checked up front, after which
// the header and the byte-aligned payload always fit.
//
//lint:ignore codecpair UnmarshalPacket is the round-trip counterpart; the analyzer pairs by name suffix only
func (p *DataPacket) MarshalTo(dst []byte) ([]byte, error) {
	if len(p.Payload) > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d bytes, max %d", ErrBadPacket, len(p.Payload), MaxPayload)
	}
	if p.Header.MoreSlots > MaxMoreSlots {
		return nil, fmt.Errorf("%w: MoreSlots %d, max %d", ErrBadPacket, p.Header.MoreSlots, MaxMoreSlots)
	}
	if p.Header.User > NoUser {
		return nil, fmt.Errorf("%w: user ID %d exceeds 6 bits", ErrBadPacket, p.Header.User)
	}
	dst, buf := appendZeros(dst, phy.CodewordInfoBytes)
	nbit := bitio.PutBitsAt(buf, 0, uint64(TypeData), typeBits)
	nbit = bitio.PutBitsAt(buf, nbit, uint64(p.Header.User), UserIDBits)
	nbit = bitio.PutBitsAt(buf, nbit, uint64(p.Header.MoreSlots), moreSlotsBits)
	nbit = bitio.PutBitsAt(buf, nbit, uint64(p.Header.MsgID), msgIDBits)
	nbit = bitio.PutBitsAt(buf, nbit, uint64(p.Header.Frag), fragBits)
	nbit = bitio.PutBitsAt(buf, nbit, uint64(p.Header.FragTotal), fragBits)
	bitio.PutBitsAt(buf, nbit, uint64(len(p.Payload)), payloadLenBits)
	// The remaining header bits pad it to a whole byte count.
	copy(buf[headerBytes:], p.Payload)
	return dst, nil
}

// appendZeros extends dst by n zero bytes, returning the extended slice
// and its new n-byte tail.
func appendZeros(dst []byte, n int) ([]byte, []byte) {
	off := len(dst)
	dst = slices.Grow(dst, n)[:off+n]
	tail := dst[off:]
	clear(tail)
	return dst, tail
}

// RegistrationRequest asks the base station to admit a new subscriber
// (paper §3.2). WantGPS selects the real-time GPS service class.
type RegistrationRequest struct {
	EIN     EIN
	WantGPS bool
}

// Marshal packs the request into 48 information bytes.
func (p *RegistrationRequest) Marshal() ([]byte, error) {
	w := bitio.NewWriter(phy.CodewordInfoBits)
	w.PutBits(uint64(TypeRegistration), typeBits)
	w.PutBits(uint64(p.EIN), EINBits)
	w.PutBool(p.WantGPS)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("%w: registration request: %w", ErrBadPacket, err)
	}
	return w.Bytes(), nil
}

// ReservationRequest explicitly asks for data slots in the next cycle
// (paper §3.1 reservation means 1).
type ReservationRequest struct {
	User  UserID
	Slots uint8
}

// Marshal packs the request into 48 information bytes.
func (p *ReservationRequest) Marshal() ([]byte, error) {
	if p.Slots > MaxMoreSlots {
		return nil, fmt.Errorf("%w: Slots %d, max %d", ErrBadPacket, p.Slots, MaxMoreSlots)
	}
	if !p.User.Valid() {
		return nil, fmt.Errorf("%w: invalid user ID %d", ErrBadPacket, p.User)
	}
	w := bitio.NewWriter(phy.CodewordInfoBits)
	w.PutBits(uint64(TypeReservation), typeBits)
	w.PutBits(uint64(p.User), UserIDBits)
	w.PutBits(uint64(p.Slots), moreSlotsBits)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("%w: reservation request: %w", ErrBadPacket, err)
	}
	return w.Bytes(), nil
}

// Packet is the decoded form of a reverse-channel packet: exactly one of
// the pointers is non-nil, matching Type.
type Packet struct {
	Type        PacketType
	Data        *DataPacket
	Register    *RegistrationRequest
	Reservation *ReservationRequest
}

// UnmarshalPacket parses the 48 information bytes of a reverse packet.
func UnmarshalPacket(b []byte) (*Packet, error) {
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

// GPSReport is the periodic 72-bit location packet a bus transmits
// (paper §2.1). The checksum lets the receiver detect corruption;
// corrupted GPS packets are discarded, never retransmitted.
type GPSReport struct {
	User      UserID
	Sequence  uint16
	Latitude  uint32 // 24-bit fixed-point
	Longitude uint32 // 24-bit fixed-point
}

// GPSReportBytes is the on-air body size: 72 bits of report + 8-bit
// checksum padded into the 128-symbol GPS packet body.
const GPSReportBytes = phy.GPSPacketSymbols * phy.BitsPerSymbol / 8

// Marshal packs the report plus checksum into the GPS packet body.
func (g *GPSReport) Marshal() ([]byte, error) {
	return g.MarshalTo(nil)
}

// MarshalTo packs the report like Marshal but appends the GPS packet
// body to dst, so a reused buffer makes the encode allocation-free.
//
//lint:ignore codecpair UnmarshalGPSReport is the round-trip counterpart; the analyzer pairs by name suffix only
func (g *GPSReport) MarshalTo(dst []byte) ([]byte, error) {
	if g.User > NoUser {
		return nil, fmt.Errorf("%w: user ID %d exceeds 6 bits", ErrBadPacket, g.User)
	}
	if g.Latitude >= 1<<24 || g.Longitude >= 1<<24 {
		return nil, fmt.Errorf("%w: coordinates exceed 24 bits", ErrBadPacket)
	}
	dst, body := appendZeros(dst, GPSReportBytes)
	nbit := bitio.PutBitsAt(body, 0, uint64(g.User), UserIDBits)
	nbit = bitio.PutBitsAt(body, nbit, uint64(g.Sequence), 16)
	nbit = bitio.PutBitsAt(body, nbit, uint64(g.Latitude), 24)
	bitio.PutBitsAt(body, nbit, uint64(g.Longitude), 24)
	// Two zero bits pad the report to its 72-bit boundary.
	body[9] = xorChecksum(body[:9])
	return dst, nil
}

// UnmarshalGPSReport parses and validates a GPS packet body. A checksum
// mismatch returns ErrBadPacket: the report is discarded.
func UnmarshalGPSReport(b []byte) (*GPSReport, error) {
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

func xorChecksum(b []byte) byte {
	var c byte = 0xA5 // nonzero seed so an all-zero body fails validation
	for _, x := range b {
		c ^= x
		c = c<<1 | c>>7
	}
	return c
}
