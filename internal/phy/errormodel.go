package phy

import (
	"fmt"

	"github.com/osu-netlab/osumac/internal/sim"
)

// ErrorModel corrupts a coded transmission unit in place. Units are RS
// codewords (byte slices); implementations flip whole bytes, matching
// the symbol-level error behaviour of the narrow-band modem.
//
// Implementations must use only the supplied RNG so runs stay
// deterministic.
type ErrorModel interface {
	// Corrupt mutates cw, returning the number of byte positions
	// changed.
	Corrupt(cw []byte, rng *sim.RNG) int
	// Name identifies the model in experiment output.
	Name() string
}

// Ideal is a noiseless channel.
type Ideal struct{}

var _ ErrorModel = Ideal{}

// Corrupt is a no-op.
func (Ideal) Corrupt([]byte, *sim.RNG) int { return 0 }

// Name implements ErrorModel.
func (Ideal) Name() string { return "ideal" }

// IID corrupts each byte independently with probability P — a binary
// symmetric channel at the RS-symbol level.
type IID struct {
	// P is the per-byte corruption probability.
	P float64
}

var _ ErrorModel = IID{}

// Corrupt implements ErrorModel.
func (m IID) Corrupt(cw []byte, rng *sim.RNG) int {
	changed := 0
	for i := range cw {
		if rng.Bool(m.P) {
			cw[i] ^= byte(rng.UniformInt(1, 255))
			changed++
		}
	}
	return changed
}

// Name implements ErrorModel.
func (m IID) Name() string { return fmt.Sprintf("iid(p=%g)", m.P) }

// GilbertElliott is a two-state burst error model. The channel is in a
// Good or Bad state per byte; transitions follow the given
// probabilities, and each state has its own per-byte error probability.
// With a high PBad this reproduces the paper's field observation that
// errors are either few (corrected by RS) or a long burst (decode
// failure).
type GilbertElliott struct {
	// PGoodToBad and PBadToGood are per-byte transition probabilities.
	PGoodToBad float64
	PBadToGood float64
	// PGood and PBad are per-byte error probabilities in each state.
	PGood float64
	PBad  float64

	inBad bool
}

var _ ErrorModel = (*GilbertElliott)(nil)

// NewGilbertElliott constructs a burst model with the canonical testbed
// calibration: rare transitions to a severely errored state.
func NewGilbertElliott(pGoodToBad, pBadToGood, pGood, pBad float64) *GilbertElliott {
	return &GilbertElliott{
		PGoodToBad: pGoodToBad,
		PBadToGood: pBadToGood,
		PGood:      pGood,
		PBad:       pBad,
	}
}

// Corrupt implements ErrorModel.
func (m *GilbertElliott) Corrupt(cw []byte, rng *sim.RNG) int {
	changed := 0
	for i := range cw {
		if m.inBad {
			if rng.Bool(m.PBadToGood) {
				m.inBad = false
			}
		} else if rng.Bool(m.PGoodToBad) {
			m.inBad = true
		}
		p := m.PGood
		if m.inBad {
			p = m.PBad
		}
		if rng.Bool(p) {
			cw[i] ^= byte(rng.UniformInt(1, 255))
			changed++
		}
	}
	return changed
}

// Name implements ErrorModel.
func (m *GilbertElliott) Name() string {
	return fmt.Sprintf("gilbert-elliott(g→b=%g,b→g=%g,pg=%g,pb=%g)",
		m.PGoodToBad, m.PBadToGood, m.PGood, m.PBad)
}

// TwoRegime is a cheap surrogate for the full burst-model + RS pipeline,
// matching the paper's observed bimodal outcome directly: with
// probability PLoss the codeword is hit by a burst beyond the correction
// radius (decode fails); otherwise a small correctable number of errors
// occur. It is validated against GilbertElliott+RS in the phy tests and
// used for large parameter sweeps.
type TwoRegime struct {
	// PLoss is the probability a codeword is destroyed.
	PLoss float64
	// MaxCorrectable bounds the benign-regime error count (≤ RS t).
	MaxCorrectable int
}

var _ ErrorModel = TwoRegime{}

// Corrupt implements ErrorModel.
func (m TwoRegime) Corrupt(cw []byte, rng *sim.RNG) int {
	if rng.Bool(m.PLoss) {
		// Burst: corrupt well past any correction radius.
		n := len(cw)/2 + rng.Intn(len(cw)/2+1)
		flipDistinct(cw, n, rng)
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
	flipDistinct(cw, n, rng)
	return n
}

// maxStackWord is the longest transmission unit whose position shuffle
// runs in a stack array: a full control-field set is 128 bytes and an
// RS codeword at most 255.
const maxStackWord = 256

// flipDistinct XORs a random nonzero byte into n distinct positions of
// cw: the first n entries of a uniform permutation of its indices. The
// whole permutation is drawn even when n is small, exactly as
// rng.Shuffled(len(cw)) draws it, so every seeded run keeps its bytes.
func flipDistinct(cw []byte, n int, rng *sim.RNG) {
	var stack [maxStackWord]int
	var perm []int
	if len(cw) <= len(stack) {
		perm = stack[:len(cw)]
	} else {
		//lint:ignore hotpathalloc words longer than maxStackWord never reach the channel (the longest unit is the 128-byte control-field set); the heap fallback only keeps the public ErrorModel total
		perm = make([]int, len(cw))
	}
	for _, p := range rng.ShuffledInto(perm)[:n] {
		cw[p] ^= byte(rng.UniformInt(1, 255))
	}
}

// Name implements ErrorModel.
func (m TwoRegime) Name() string {
	return fmt.Sprintf("two-regime(loss=%g,maxfix=%d)", m.PLoss, m.MaxCorrectable)
}
