package phy

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"github.com/osu-netlab/osumac/internal/rs"
	"github.com/osu-netlab/osumac/internal/sim"
)

func TestIdealNeverCorrupts(t *testing.T) {
	rng := sim.NewRNG(1)
	cw := bytes.Repeat([]byte{0x5A}, 64)
	snapshot := append([]byte(nil), cw...)
	var m Ideal
	for i := 0; i < 100; i++ {
		if n := m.Corrupt(cw, rng); n != 0 {
			t.Fatal("ideal channel corrupted bytes")
		}
	}
	if !bytes.Equal(cw, snapshot) {
		t.Fatal("ideal channel mutated the codeword")
	}
}

func TestIIDErrorRate(t *testing.T) {
	rng := sim.NewRNG(2)
	m := IID{P: 0.05}
	total, changed := 0, 0
	for i := 0; i < 500; i++ {
		cw := make([]byte, 64)
		changed += m.Corrupt(cw, rng)
		total += len(cw)
	}
	got := float64(changed) / float64(total)
	if math.Abs(got-0.05) > 0.01 {
		t.Fatalf("empirical corruption rate %v, want ~0.05", got)
	}
}

func TestIIDCorruptionChangesBytes(t *testing.T) {
	rng := sim.NewRNG(3)
	m := IID{P: 1.0}
	cw := make([]byte, 64)
	n := m.Corrupt(cw, rng)
	if n != 64 {
		t.Fatalf("P=1 corrupted %d/64 bytes", n)
	}
	for i, b := range cw {
		if b == 0 {
			t.Fatalf("byte %d unchanged despite corruption (XOR with 0?)", i)
		}
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	rng := sim.NewRNG(4)
	// Long dwell times: errors should cluster.
	m := NewGilbertElliott(0.01, 0.2, 0.0, 0.8)
	burstHits, cleanWords := 0, 0
	const words = 2000
	for i := 0; i < words; i++ {
		cw := make([]byte, 64)
		n := m.Corrupt(cw, rng)
		switch {
		case n == 0:
			cleanWords++
		case n > 8: // beyond RS t — a burst
			burstHits++
		}
	}
	if cleanWords == 0 {
		t.Fatal("no clean codewords; good state not dwelling")
	}
	if burstHits == 0 {
		t.Fatal("no burst codewords; bad state not producing bursts")
	}
	// Bimodality: clean + burst should dominate the middle ground.
	if cleanWords+burstHits < words/2 {
		t.Fatalf("bimodal regimes only cover %d/%d words", cleanWords+burstHits, words)
	}
}

func TestTwoRegimeMatchesRSOutcomes(t *testing.T) {
	// The two-regime shortcut must produce exactly two RS outcomes:
	// decode success with the original message, or decode failure.
	rng := sim.NewRNG(5)
	code := rs.NewPaperCode()
	m := TwoRegime{PLoss: 0.3, MaxCorrectable: 8}
	msg := make([]byte, 48)
	for i := range msg {
		msg[i] = byte(i)
	}
	clean, err := code.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	losses := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		cw := append([]byte(nil), clean...)
		m.Corrupt(cw, rng)
		got, decErr := code.Decode(cw)
		if decErr != nil {
			if !errors.Is(decErr, rs.ErrTooManyErrors) {
				t.Fatalf("unexpected decode error: %v", decErr)
			}
			losses++
			continue
		}
		if !bytes.Equal(got, msg) {
			t.Fatal("benign regime produced a silent miscorrection")
		}
	}
	gotLoss := float64(losses) / trials
	if math.Abs(gotLoss-0.3) > 0.05 {
		t.Fatalf("empirical loss rate %v, want ~0.3", gotLoss)
	}
}

func TestTwoRegimeZeroLossZeroErrors(t *testing.T) {
	rng := sim.NewRNG(6)
	m := TwoRegime{PLoss: 0, MaxCorrectable: 0}
	cw := make([]byte, 64)
	for i := 0; i < 50; i++ {
		if m.Corrupt(cw, rng) != 0 {
			t.Fatal("zero-parameter model corrupted bytes")
		}
	}
	mNeg := TwoRegime{PLoss: 0, MaxCorrectable: -3}
	if mNeg.Corrupt(cw, rng) != 0 {
		t.Fatal("negative MaxCorrectable should behave as zero")
	}
}

func TestGilbertElliottThroughRSIsBimodal(t *testing.T) {
	// Validation of the DESIGN.md substitution: burst channel + real RS
	// decode yields the paper's observation — packets are delivered
	// error-free or lost, almost never delivered corrupted.
	rng := sim.NewRNG(7)
	code := rs.NewPaperCode()
	m := NewGilbertElliott(0.005, 0.1, 0.001, 0.7)
	msg := make([]byte, 48)
	clean, err := code.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	silent := 0
	const trials = 3000
	for i := 0; i < trials; i++ {
		cw := append([]byte(nil), clean...)
		m.Corrupt(cw, rng)
		got, decErr := code.Decode(cw)
		if decErr == nil && !bytes.Equal(got, msg) {
			silent++
		}
	}
	if silent > trials/500 {
		t.Fatalf("silent corruption in %d/%d words; expected extremely rare", silent, trials)
	}
}

func TestModelNames(t *testing.T) {
	models := []ErrorModel{
		Ideal{},
		IID{P: 0.1},
		NewGilbertElliott(0.1, 0.2, 0.0, 0.5),
		TwoRegime{PLoss: 0.1, MaxCorrectable: 4},
	}
	seen := make(map[string]bool)
	for _, m := range models {
		name := m.Name()
		if name == "" {
			t.Fatalf("%T has empty name", m)
		}
		if seen[name] {
			t.Fatalf("duplicate model name %q", name)
		}
		seen[name] = true
	}
}

// refTwoRegimeCorrupt is TwoRegime.Corrupt as it was written over
// rng.Shuffled, kept as the differential reference for the stack
// shuffle.
func refTwoRegimeCorrupt(m TwoRegime, cw []byte, rng *sim.RNG) int {
	if rng.Bool(m.PLoss) {
		n := len(cw)/2 + rng.Intn(len(cw)/2+1)
		for _, p := range rng.Shuffled(len(cw))[:n] {
			cw[p] ^= byte(rng.UniformInt(1, 255))
		}
		return n
	}
	maxC := m.MaxCorrectable
	if maxC < 0 {
		maxC = 0
	}
	if maxC == 0 {
		return 0
	}
	n := rng.Intn(maxC + 1)
	for _, p := range rng.Shuffled(len(cw))[:n] {
		cw[p] ^= byte(rng.UniformInt(1, 255))
	}
	return n
}

func TestTwoRegimeMatchesShuffledReference(t *testing.T) {
	models := []TwoRegime{
		{PLoss: 0.05, MaxCorrectable: 8},
		{PLoss: 0.5, MaxCorrectable: 3},
		{PLoss: 1, MaxCorrectable: 8},
		{PLoss: 0, MaxCorrectable: 0},
	}
	for _, size := range []int{1, 32, 64, 128, 255, 256, 300} {
		for mi, m := range models {
			if m.MaxCorrectable > size {
				m.MaxCorrectable = size
			}
			got, want := sim.NewRNG(uint64(size*10+mi)), sim.NewRNG(uint64(size*10+mi))
			gw, ww := make([]byte, size), make([]byte, size)
			for i := 0; i < 200; i++ {
				gn, wn := m.Corrupt(gw, got), refTwoRegimeCorrupt(m, ww, want)
				if gn != wn || !bytes.Equal(gw, ww) {
					t.Fatalf("size %d, %s, call %d: Corrupt changed %d bytes to %x; reference %d, %x",
						size, m.Name(), i, gn, gw, wn, ww)
				}
				if got.Uint64() != want.Uint64() {
					t.Fatalf("size %d, %s, call %d: generator streams diverged", size, m.Name(), i)
				}
			}
		}
	}
}

func TestTwoRegimeCorruptAllocFree(t *testing.T) {
	for _, size := range []int{64, 128} {
		rng := sim.NewRNG(9)
		m := TwoRegime{PLoss: 0.3, MaxCorrectable: 8}
		cw := make([]byte, size)
		if n := testing.AllocsPerRun(200, func() { m.Corrupt(cw, rng) }); n != 0 {
			t.Errorf("TwoRegime.Corrupt on %d-byte words: %v allocs/op, want 0", size, n)
		}
	}
}
