package frame

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/osu-netlab/osumac/internal/bitio"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sim"
)

// refMarshalData is DataPacket.Marshal as it was written over the
// strict bitio.Writer, kept as the reference for MarshalTo.
func refMarshalData(p *DataPacket) ([]byte, error) {
	if len(p.Payload) > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d bytes, max %d", ErrBadPacket, len(p.Payload), MaxPayload)
	}
	if p.Header.MoreSlots > MaxMoreSlots {
		return nil, fmt.Errorf("%w: MoreSlots %d, max %d", ErrBadPacket, p.Header.MoreSlots, MaxMoreSlots)
	}
	if p.Header.User > NoUser {
		return nil, fmt.Errorf("%w: user ID %d exceeds 6 bits", ErrBadPacket, p.Header.User)
	}
	w := bitio.NewWriter(phy.CodewordInfoBits)
	w.PutBits(uint64(TypeData), typeBits)
	w.PutBits(uint64(p.Header.User), UserIDBits)
	w.PutBits(uint64(p.Header.MoreSlots), moreSlotsBits)
	w.PutBits(uint64(p.Header.MsgID), msgIDBits)
	w.PutBits(uint64(p.Header.Frag), fragBits)
	w.PutBits(uint64(p.Header.FragTotal), fragBits)
	w.PutBits(uint64(len(p.Payload)), payloadLenBits)
	w.PutBits(0, headerBits-52)
	w.PutBytes(p.Payload)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("%w: data packet: %w", ErrBadPacket, err)
	}
	return w.Bytes(), nil
}

// refMarshalGPS is the Writer-based GPSReport.Marshal reference.
func refMarshalGPS(g *GPSReport) ([]byte, error) {
	if g.User > NoUser {
		return nil, fmt.Errorf("%w: user ID %d exceeds 6 bits", ErrBadPacket, g.User)
	}
	if g.Latitude >= 1<<24 || g.Longitude >= 1<<24 {
		return nil, fmt.Errorf("%w: coordinates exceed 24 bits", ErrBadPacket)
	}
	w := bitio.NewWriter(GPSReportBytes * 8)
	w.PutBits(uint64(g.User), UserIDBits)
	w.PutBits(uint64(g.Sequence), 16)
	w.PutBits(uint64(g.Latitude), 24)
	w.PutBits(uint64(g.Longitude), 24)
	w.PutBits(0, 2)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("%w: GPS report: %w", ErrBadPacket, err)
	}
	body := w.Bytes()
	body[9] = xorChecksum(body[:9])
	return body, nil
}

func sameResult(t *testing.T, what string, got, want []byte, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: err %v, reference %v", what, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %x, reference %x", what, got, want)
	}
}

// TestMarshalToMatchesWriter compares the stateless MarshalTo encoders
// with the Writer-based references on random and out-of-range packets,
// appending after a non-empty prefix, and round-trips the data packets.
func TestMarshalToMatchesWriter(t *testing.T) {
	rng := sim.NewRNG(17)
	prefix := []byte{0xde, 0xad}
	for i := 0; i < 2000; i++ {
		p := &DataPacket{
			Header: DataHeader{
				User:      UserID(rng.Intn(70)),
				MoreSlots: uint8(rng.Intn(18)),
				MsgID:     uint16(rng.Uint64()),
				Frag:      uint8(rng.Uint64()),
				FragTotal: uint8(rng.Uint64()),
			},
			Payload: make([]byte, rng.Intn(MaxPayload+3)),
		}
		for j := range p.Payload {
			p.Payload[j] = byte(rng.Uint64())
		}
		want, wantErr := refMarshalData(p)
		got, gotErr := p.Marshal()
		sameResult(t, "DataPacket.Marshal", got, want, gotErr, wantErr)
		ext, extErr := p.MarshalTo(bytes.Clone(prefix))
		if wantErr == nil {
			want = append(bytes.Clone(prefix), want...)
		}
		sameResult(t, "DataPacket.MarshalTo", ext, want, extErr, wantErr)
		if wantErr == nil {
			back, err := UnmarshalPacket(ext[len(prefix):])
			if err != nil || back.Data.Header != p.Header || !bytes.Equal(back.Data.Payload, p.Payload) {
				t.Fatalf("round trip of %+v: %+v, %v", p, back, err)
			}
		}

		g := &GPSReport{
			User:      UserID(rng.Intn(70)),
			Sequence:  uint16(rng.Uint64()),
			Latitude:  uint32(rng.Intn(1<<24 + 8)),
			Longitude: uint32(rng.Intn(1<<24 + 8)),
		}
		want, wantErr = refMarshalGPS(g)
		got, gotErr = g.Marshal()
		sameResult(t, "GPSReport.Marshal", got, want, gotErr, wantErr)
		ext, extErr = g.MarshalTo(bytes.Clone(prefix))
		if wantErr == nil {
			want = append(bytes.Clone(prefix), want...)
		}
		sameResult(t, "GPSReport.MarshalTo", ext, want, extErr, wantErr)
	}
}

func TestPacketMarshalToAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := &DataPacket{Header: DataHeader{User: 5, MoreSlots: 2, MsgID: 9, Frag: 1, FragTotal: 3}, Payload: make([]byte, 30)}
	g := &GPSReport{User: 5, Sequence: 7, Latitude: 1234, Longitude: 5678}
	buf := make([]byte, 0, phy.CodewordInfoBytes)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := p.MarshalTo(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := g.MarshalTo(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MarshalTo into a reused buffer: %v allocs/op, want 0", n)
	}
}
