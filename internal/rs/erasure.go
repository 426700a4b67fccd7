package rs

import (
	"fmt"

	"github.com/osu-netlab/osumac/internal/gf256"
)

// DecodeWithErasures corrects a received word given known erasure
// positions (byte indices the demodulator flagged as unreliable) in
// addition to unknown errors. A Reed-Solomon code corrects any
// combination of e errors and s erasures with 2e + s ≤ n − k, so
// flagging erasures doubles their correction budget — useful when the
// pilot-symbol tracker knows which PS frames faded.
//
// The returned slice is the corrected codeword; the input is not
// modified. Unlike the plain decode paths this one allocates for its
// polynomial products (Γ, Ξ, Ψ are erasure-count-sized and off the
// simulator's hot path); syndromes and the Berlekamp–Massey/Chien state
// still come from the pooled scratch.
func (c *Code) DecodeWithErasures(cw []byte, erasures []int) ([]byte, error) {
	if len(cw) != c.n {
		return nil, fmt.Errorf("%w: codeword %d bytes, want %d", ErrLength, len(cw), c.n)
	}
	if len(erasures) == 0 {
		out, _, err := c.DecodeCodeword(cw)
		return out, err
	}
	if len(erasures) > c.n-c.k {
		return nil, ErrTooManyErrors
	}
	seen := make(map[int]bool, len(erasures))
	for _, p := range erasures {
		if p < 0 || p >= c.n {
			return nil, fmt.Errorf("%w: erasure position %d", ErrLength, p)
		}
		if seen[p] {
			return nil, fmt.Errorf("%w: duplicate erasure position %d", ErrLength, p)
		}
		seen[p] = true
	}

	out := make([]byte, c.n)
	copy(out, cw)

	s := c.getScratch()
	defer c.scratch.Put(s)
	if c.syndromesInto(s.syn, out) {
		return out, nil
	}
	syn := s.syn

	// Erasure locator Γ(x) = ∏ (1 − X_j x), X_j = α^(n−1−pos).
	gamma := []byte{1}
	for _, pos := range erasures {
		x := gf256.Exp(c.n - 1 - pos)
		gamma = gf256.PolyMul(gamma, []byte{1, x})
	}

	// Modified (Forney) syndromes Ξ(x) = [S(x)·Γ(x)] mod x^(n−k) expose
	// only the unknown errors.
	mod := gf256.PolyMul(syn, gamma)
	if len(mod) > len(syn) {
		mod = mod[:len(syn)]
	}
	for len(mod) < len(syn) {
		mod = append(mod, 0)
	}

	// The Forney syndromes T_i = Ξ_{i+s} satisfy the error-locator
	// recurrence alone; Berlekamp–Massey on them finds σ for up to
	// ⌊(n−k−s)/2⌋ unknown errors.
	forneySyn := mod[len(erasures):]
	maxErrs := (c.n - c.k - len(erasures)) / 2
	sigma, err := c.berlekampMassey(s, forneySyn, maxErrs)
	if err != nil {
		return nil, err
	}

	var errPositions []int
	if gf256.PolyDegree(sigma) > 0 {
		found, err := c.chienSearch(s, sigma)
		if err != nil {
			return nil, err
		}
		for _, p := range found {
			if seen[p] {
				// An "error" landing on an erasure means the locator is
				// bogus.
				return nil, ErrTooManyErrors
			}
		}
		errPositions = found
	}

	// Combined locator Ψ = σ·Γ covers both kinds; Forney with Ψ yields
	// all magnitudes. Ψ is copied out of scratch-backed σ before use.
	psi := gf256.PolyMul(sigma, gamma)
	positions := append(append([]int{}, erasures...), errPositions...)
	if err := c.forney(s, out, syn, psi, positions); err != nil {
		return nil, err
	}

	if !c.recheck(s, out, positions) {
		return nil, ErrTooManyErrors
	}
	return out, nil
}
