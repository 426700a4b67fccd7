package rs

import (
	"bytes"
	"testing"

	"github.com/osu-netlab/osumac/internal/sim"
)

// errorPathAllocBound caps allocations on the correcting decode path.
// After the scratch pool is warm the Berlekamp–Massey/Chien/Forney
// machinery runs entirely out of pooled buffers, so even the worst-case
// t-error decode stays allocation-free; the bound documents that and
// guards against scratch buffers silently falling off the pool.
const errorPathAllocBound = 0

func TestEncodeToSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := NewPaperCode()
	msg := make([]byte, c.K())
	for i := range msg {
		msg[i] = byte(i*13 + 1)
	}
	dst := make([]byte, 0, c.N())
	if n := testing.AllocsPerRun(200, func() {
		var err error
		dst, err = c.EncodeTo(dst[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("EncodeTo with reused buffer: %v allocs/op, want 0", n)
	}
}

func TestDecodeToCleanPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := NewPaperCode()
	msg := make([]byte, c.K())
	for i := range msg {
		msg[i] = byte(255 - i*3)
	}
	cw, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, c.K())
	// One run to warm the scratch pool before measuring.
	if dst, err = c.DecodeTo(dst[:0], cw); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		var err error
		dst, err = c.DecodeTo(dst[:0], cw)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("clean DecodeTo with reused buffer: %v allocs/op, want 0", n)
	}
}

func TestDecodeToErrorPathAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := NewPaperCode()
	rng := sim.NewRNG(5)
	msg := make([]byte, c.K())
	for i := range msg {
		msg[i] = byte(rng.Uint64())
	}
	clean, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := make([]byte, len(clean))
	copy(corrupted, clean)
	for _, p := range rng.Shuffled(len(clean))[:c.T()] {
		corrupted[p] ^= byte(rng.UniformInt(1, 255))
	}
	dst := make([]byte, 0, c.N())
	if dst, err = c.DecodeTo(dst[:0], corrupted); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		var err error
		dst, err = c.DecodeTo(dst[:0], corrupted)
		if err != nil {
			t.Fatal(err)
		}
	}); n > errorPathAllocBound {
		t.Errorf("worst-case DecodeTo: %v allocs/op, want <= %d", n, errorPathAllocBound)
	}
}

// TestDecodeToCorrectionFitsMessageBuffer pins that correcting t errors
// needs room for only the k message bytes in dst: the correction runs
// on pooled scratch, so a dst sized for the message (as Decode and the
// control-field decoders size theirs) never grows.
func TestDecodeToCorrectionFitsMessageBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := NewPaperCode()
	rng := sim.NewRNG(6)
	msg := make([]byte, c.K())
	for i := range msg {
		msg[i] = byte(rng.Uint64())
	}
	corrupted, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rng.Shuffled(len(corrupted))[:c.T()] {
		corrupted[p] ^= byte(rng.UniformInt(1, 255))
	}
	// Every run hands DecodeTo the same cap-k buffer, so a decode that
	// needs more room allocates on every run.
	buf := make([]byte, 0, c.K())
	if _, err := c.DecodeTo(buf, corrupted); err != nil {
		t.Fatal(err)
	}
	var out []byte
	if n := testing.AllocsPerRun(200, func() {
		var err error
		out, err = c.DecodeTo(buf, corrupted)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("t-error DecodeTo into a cap-k dst: %v allocs/op, want 0", n)
	}
	if !bytes.Equal(out, msg) {
		t.Errorf("decoded %x, want %x", out, msg)
	}
}
