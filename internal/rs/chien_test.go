package rs

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"github.com/osu-netlab/osumac/internal/gf256"
	"github.com/osu-netlab/osumac/internal/sim"
)

// bruteChien is the specification of the Chien search: evaluate σ at
// the locator inverse of every position with a full Horner pass, and
// accept exactly when the root count equals deg σ.
func bruteChien(c *Code, sigma []byte) ([]int, bool) {
	var roots []int
	for pos := 0; pos < c.n; pos++ {
		if gf256.PolyEval(sigma, gf256.Exp(pos-(c.n-1))) == 0 {
			roots = append(roots, pos)
		}
	}
	return roots, len(roots) == gf256.PolyDegree(sigma)
}

// locatorWithRoots builds σ(x) = ∏ (1 − X_p·x) over the given positions,
// X_p = α^{n−1−p}: a locator whose roots are exactly those positions.
func locatorWithRoots(c *Code, positions []int) []byte {
	sigma := []byte{1}
	for _, p := range positions {
		sigma = gf256.PolyMul(sigma, []byte{1, gf256.Exp(c.n - 1 - p)})
	}
	return sigma
}

// tableCodes are codes that build the Chien table, including lengths
// that are not a multiple of eight (padded last word).
func tableCodes(t *testing.T) []*Code {
	codes := []*Code{NewPaperCode(), MustNew(15, 11), MustNew(30, 20), MustNew(100, 90)}
	for _, c := range codes {
		if c.chienFlat == nil {
			t.Fatalf("RS(%d,%d) has no Chien table", c.n, c.k)
		}
	}
	return codes
}

func TestChienTableMatchesIncrementalAndBruteForce(t *testing.T) {
	rng := sim.NewRNG(11)
	for _, c := range tableCodes(t) {
		s := c.getScratch()
		check := func(sigma []byte) {
			t.Helper()
			deg := gf256.PolyDegree(sigma)
			want, ok := bruteChien(c, sigma)
			tab, tabErr := c.chienTable(s, sigma, deg)
			tab = slices.Clone(tab)
			inc, incErr := c.chienIncremental(s, sigma, deg)
			inc = slices.Clone(inc)
			if (tabErr == nil) != ok || (incErr == nil) != ok {
				t.Fatalf("RS(%d,%d) σ=%x: table err %v, incremental err %v, brute force accepts=%v (roots %v)",
					c.n, c.k, sigma, tabErr, incErr, ok, want)
			}
			if ok && (!slices.Equal(tab, want) || !slices.Equal(inc, want)) {
				t.Fatalf("RS(%d,%d) σ=%x: table %v, incremental %v, brute force %v",
					c.n, c.k, sigma, tab, inc, want)
			}
			if tabErr != nil && !errors.Is(tabErr, ErrTooManyErrors) {
				t.Fatalf("table error %v", tabErr)
			}
		}
		for deg := 1; deg <= c.T(); deg++ {
			for trial := 0; trial < 30; trial++ {
				// A genuine locator: deg distinct roots.
				check(locatorWithRoots(c, rng.Shuffled(c.n)[:deg]))
				// A random polynomial of degree deg, usually with too
				// few roots; σ_0 is random too, zero included.
				sigma := make([]byte, deg+1)
				for j := range sigma {
					sigma[j] = byte(rng.Uint64())
				}
				sigma[deg] = byte(rng.UniformInt(1, 255))
				check(sigma)
				// deg−1 genuine roots times a linear factor whose root
				// α^m is no position's locator inverse (those are
				// α^{−(n−1)}…α^0): one root short.
				m := rng.UniformInt(1, 255-c.n)
				sigma = locatorWithRoots(c, rng.Shuffled(c.n)[:deg-1])
				check(gf256.PolyMul(sigma, []byte{1, gf256.Exp(-m)}))
			}
		}
		c.scratch.Put(s)
	}
}

// TestDecodeToMatchesDecodeCodeword drives the correcting DecodeTo
// (pooled copy, table Chien search, linear re-check) and the generic
// kernels against DecodeCodeword from 0 to t+3 errors.
func TestDecodeToMatchesDecodeCodeword(t *testing.T) {
	rng := sim.NewRNG(12)
	codes := append(tableCodes(t), MustNew(255, 223))
	for _, c := range codes {
		for trial := 0; trial < 200; trial++ {
			msg := make([]byte, c.k)
			for i := range msg {
				msg[i] = byte(rng.Uint64())
			}
			cw, err := c.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			nerr := trial % (c.T() + 4)
			for _, p := range rng.Shuffled(c.n)[:nerr] {
				cw[p] ^= byte(rng.UniformInt(1, 255))
			}
			full, _, fullErr := c.DecodeCodeword(cw)
			got, gotErr := c.DecodeTo(make([]byte, 0, c.k), cw)
			if (fullErr == nil) != (gotErr == nil) {
				t.Fatalf("RS(%d,%d) %d errors: DecodeTo err %v, DecodeCodeword err %v", c.n, c.k, nerr, gotErr, fullErr)
			}
			if gotErr == nil && !bytes.Equal(got, full[:c.k]) {
				t.Fatalf("RS(%d,%d) %d errors: DecodeTo %x, DecodeCodeword %x", c.n, c.k, nerr, got, full[:c.k])
			}
			if nerr <= c.T() && (gotErr != nil || !bytes.Equal(got, msg)) {
				t.Fatalf("RS(%d,%d) %d errors not corrected: %v", c.n, c.k, nerr, gotErr)
			}
		}
	}
}
