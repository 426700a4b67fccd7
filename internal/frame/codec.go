package frame

import (
	"fmt"

	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/rs"
	"github.com/osu-netlab/osumac/internal/sim"
)

// Codec turns marshaled frames into on-air RS codewords and back,
// applying a channel error model on receive. It owns no state beyond
// the immutable RS code, so one Codec may be shared by every entity in
// a simulation.
type Codec struct {
	code *rs.Code
}

// NewCodec returns a codec using the paper's RS(64,48) code.
func NewCodec() *Codec {
	return &Codec{code: rs.NewPaperCode()}
}

// Code exposes the underlying RS code (for tests and diagnostics).
func (c *Codec) Code() *rs.Code { return c.code }

// EncodePayload RS-encodes a 48-byte information block into one 64-byte
// codeword.
func (c *Codec) EncodePayload(info []byte) ([]byte, error) {
	return c.code.Encode(info)
}

// EncodePayloadTo appends the codeword for a 48-byte information block
// to dst. With a reused buffer the steady-state path is allocation-free.
func (c *Codec) EncodePayloadTo(dst, info []byte) ([]byte, error) {
	return c.code.EncodeTo(dst, info)
}

// DecodePayload RS-decodes one codeword back to 48 information bytes.
func (c *Codec) DecodePayload(cw []byte) ([]byte, error) {
	return c.code.Decode(cw)
}

// DecodePayloadTo appends the 48 decoded information bytes to dst.
// With a reused buffer it is allocation-free, correcting or not.
func (c *Codec) DecodePayloadTo(dst, cw []byte) ([]byte, error) {
	return c.code.DecodeTo(dst, cw)
}

// EncodeControlFields produces the on-air form of a control-field set:
// two consecutive RS codewords (128 bytes).
func (c *Codec) EncodeControlFields(cf *ControlFields) ([]byte, error) {
	return c.EncodeControlFieldsTo(make([]byte, 0, phy.ControlFieldCodewords*phy.CodewordBytes), cf)
}

// EncodeControlFieldsTo appends the on-air control-field codewords to
// dst. The schedule marshals into stack scratch and the RS encodes
// append, so with a reused buffer the whole encode is allocation-free.
//
//lint:ignore codecpair DecodeControlFieldsInto is the round-trip counterpart; the analyzer pairs by name suffix only
func (c *Codec) EncodeControlFieldsTo(dst []byte, cf *ControlFields) ([]byte, error) {
	var infoArr [ControlFieldBytes]byte
	info, err := cf.MarshalTo(infoArr[:0])
	if err != nil {
		return nil, err
	}
	for i := 0; i < phy.ControlFieldCodewords; i++ {
		dst, err = c.code.EncodeTo(dst, info[i*phy.CodewordInfoBytes:(i+1)*phy.CodewordInfoBytes])
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeControlFields decodes two received codewords into control
// fields. Any codeword failing RS decode fails the whole set: a mobile
// that cannot read the control fields has no schedule for the cycle.
func (c *Codec) DecodeControlFields(air []byte) (*ControlFields, error) {
	cf := &ControlFields{}
	if err := c.DecodeControlFieldsInto(cf, air); err != nil {
		return nil, err
	}
	return cf, nil
}

// DecodeControlFieldsInto decodes two received codewords into a
// caller-owned struct. The decoded info blocks live in stack scratch,
// so once the RS decoder's scratch pool is warm the decode is
// allocation-free, on the correcting path as well as the clean one. On
// error cf's contents are unspecified.
func (c *Codec) DecodeControlFieldsInto(cf *ControlFields, air []byte) error {
	want := phy.ControlFieldCodewords * phy.CodewordBytes
	if len(air) != want {
		return fmt.Errorf("%w: control fields air size %d, want %d", ErrBadLength, len(air), want)
	}
	var infoArr [ControlFieldBytes]byte
	dst := infoArr[:0]
	var err error
	for i := 0; i < phy.ControlFieldCodewords; i++ {
		dst, err = c.code.DecodeTo(dst, air[i*phy.CodewordBytes:(i+1)*phy.CodewordBytes])
		if err != nil {
			return fmt.Errorf("control field codeword %d: %w", i, err)
		}
	}
	return UnmarshalControlFieldsInto(cf, dst)
}

// Transmit models one coded transmission through a channel error model:
// the codeword is copied, corrupted according to the model, and
// returned. The caller decodes the result; a decode error is a packet
// loss.
func Transmit(cw []byte, model phy.ErrorModel, rng *sim.RNG) []byte {
	return TransmitTo(make([]byte, 0, len(cw)), cw, model, rng)
}

// TransmitTo models one coded transmission like Transmit but appends
// the (possibly corrupted) received bytes to dst, so a per-link reused
// buffer makes the channel allocation-free. dst must not alias cw.
func TransmitTo(dst, cw []byte, model phy.ErrorModel, rng *sim.RNG) []byte {
	off := len(dst)
	dst = append(dst, cw...)
	if model != nil {
		model.Corrupt(dst[off:], rng)
	}
	return dst
}
