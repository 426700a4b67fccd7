package frame

import (
	"bytes"
	"testing"

	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sim"
)

// The To-variants are the hot-path forms of the codec: with reused
// buffers the steady-state encode and clean-path decode must stay at
// zero allocations per operation, or the simulation kernel regresses.

func TestCodecPayloadToRoundTrip(t *testing.T) {
	c := NewCodec()
	info := make([]byte, phy.CodewordInfoBytes)
	for i := range info {
		info[i] = byte(i*31 + 7)
	}
	cw, err := c.EncodePayloadTo(nil, info)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.EncodePayload(info)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cw, plain) {
		t.Fatal("EncodePayloadTo differs from EncodePayload")
	}
	back, err := c.DecodePayloadTo(nil, cw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, info) {
		t.Fatal("DecodePayloadTo round-trip mismatch")
	}
}

func TestCodecControlFieldsToRoundTrip(t *testing.T) {
	c := NewCodec()
	cf := NewControlFields()
	cf.GPSSchedule[1] = 9
	cf.ReverseSchedule[2] = 21
	cf.ReverseACKs[1] = ReverseACK{User: 21, EIN: 0x1234}

	air, err := c.EncodeControlFieldsTo(nil, cf)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.EncodeControlFields(cf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(air, plain) {
		t.Fatal("EncodeControlFieldsTo differs from EncodeControlFields")
	}
	scratch := make([]byte, 0, phy.ControlFieldCodewords*phy.CodewordInfoBytes)
	got, err := c.DecodeControlFieldsTo(scratch, air)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *cf {
		t.Fatal("DecodeControlFieldsTo round-trip mismatch")
	}
}

func TestCodecToVariantsAppend(t *testing.T) {
	c := NewCodec()
	info := make([]byte, phy.CodewordInfoBytes)
	prefix := []byte{0xDE, 0xAD}
	cw, err := c.EncodePayloadTo(append([]byte(nil), prefix...), info)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cw[:2], prefix) || len(cw) != 2+phy.CodewordBytes {
		t.Fatalf("EncodePayloadTo did not append: len=%d", len(cw))
	}
	back, err := c.DecodePayloadTo(append([]byte(nil), prefix...), cw[2:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back[:2], prefix) || !bytes.Equal(back[2:], info) {
		t.Fatal("DecodePayloadTo did not append")
	}
}

func TestCodecSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := NewCodec()
	info := make([]byte, phy.CodewordInfoBytes)
	for i := range info {
		info[i] = byte(i ^ 0x5A)
	}
	encBuf := make([]byte, 0, phy.CodewordBytes)
	decBuf := make([]byte, 0, phy.CodewordInfoBytes)
	rxBuf := make([]byte, 0, phy.CodewordBytes)
	rng := sim.NewRNG(7)

	// Warm the decoder scratch pool before measuring.
	cw, err := c.EncodePayloadTo(encBuf, info)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodePayloadTo(decBuf, cw); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.EncodePayloadTo(encBuf[:0], info); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("EncodePayloadTo: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.DecodePayloadTo(decBuf[:0], cw); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("clean DecodePayloadTo: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		rxBuf = TransmitTo(rxBuf[:0], cw, nil, rng)
	}); n != 0 {
		t.Errorf("TransmitTo: %v allocs/op, want 0", n)
	}
}

func TestControlFieldCodecSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := NewCodec()
	cf := NewControlFields()
	cf.GPSSchedule[0] = 4
	cf.ReverseSchedule[2] = 17
	cf.ReverseACKs[0] = ReverseACK{User: 17, EIN: 0xBEEF}

	air := make([]byte, 0, ControlFieldAirBytes)
	marshaled := make([]byte, 0, ControlFieldBytes)
	var rx ControlFields

	// Warm the RS decoder scratch pool before measuring.
	air, err := c.EncodeControlFieldsTo(air, cf)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DecodeControlFieldsInto(&rx, air); err != nil {
		t.Fatal(err)
	}
	if rx != *cf {
		t.Fatal("DecodeControlFieldsInto round-trip mismatch")
	}

	if n := testing.AllocsPerRun(200, func() {
		if marshaled, err = cf.MarshalTo(marshaled[:0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MarshalTo: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := UnmarshalControlFieldsInto(&rx, marshaled); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("UnmarshalControlFieldsInto: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if air, err = c.EncodeControlFieldsTo(air[:0], cf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("EncodeControlFieldsTo: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := c.DecodeControlFieldsInto(&rx, air); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("clean DecodeControlFieldsInto: %v allocs/op, want 0", n)
	}
}

// TestCorrectedControlFieldsAllocFree covers the lossy path a
// subscriber pays every cycle on a noisy forward link: corrupt the
// control-field set through the channel model, then decode it with RS
// correction in both codewords.
func TestCorrectedControlFieldsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := NewCodec()
	cf := NewControlFields()
	cf.GPSSchedule[1] = 9
	cf.ForwardSchedule[30] = 21
	cf.ReverseACKs[4] = ReverseACK{User: 21, EIN: 0x1234}
	air, err := c.EncodeControlFieldsTo(nil, cf)
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]byte, 0, ControlFieldAirBytes)
	rx = append(rx, air...)
	rng := sim.NewRNG(13)
	// t errors in each codeword: correctable, and the worst case for
	// the Chien search and Forney.
	for w := 0; w < phy.ControlFieldCodewords; w++ {
		word := rx[w*phy.CodewordBytes : (w+1)*phy.CodewordBytes]
		for _, p := range rng.Shuffled(len(word))[:c.Code().T()] {
			word[p] ^= byte(rng.UniformInt(1, 255))
		}
	}
	var got ControlFields
	if err := c.DecodeControlFieldsInto(&got, rx); err != nil {
		t.Fatal(err)
	}
	if got != *cf {
		t.Fatal("corrected control fields differ from the sent set")
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := c.DecodeControlFieldsInto(&got, rx); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("corrected DecodeControlFieldsInto: %v allocs/op, want 0", n)
	}

	var model phy.ErrorModel = phy.TwoRegime{PLoss: 0.05, MaxCorrectable: 8}
	buf := make([]byte, 0, ControlFieldAirBytes)
	if n := testing.AllocsPerRun(200, func() {
		buf = TransmitTo(buf[:0], air, model, rng)
	}); n != 0 {
		t.Errorf("TransmitTo through TwoRegime: %v allocs/op, want 0", n)
	}
}
