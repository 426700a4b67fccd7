// Package rs implements systematic Reed-Solomon codes over GF(2⁸),
// including the RS(64,48) code the OSU narrow-band wireless testbed uses
// to protect every data slot and control field.
//
// The encoder appends n−k parity symbols computed as the remainder of
// the message polynomial modulo the generator polynomial
// g(x) = ∏_{i=0}^{n-k-1} (x − α^i). The decoder computes syndromes, runs
// Berlekamp–Massey to find the error-locator polynomial, locates errors
// with a Chien search and corrects them with Forney's algorithm. Up to
// t = (n−k)/2 symbol errors are corrected; beyond that the decoder
// reports failure, which the MAC treats as a packet loss — exactly the
// bimodal behaviour the paper observed in field tests.
//
// Every simulated slot pays one encode and one decode, so the hot paths
// are written against precomputed tables. Codes whose tables fit
// maxFastTableBytes (the paper code does) encode, compute syndromes and
// run the Chien search as runs of contiguous row XORs: parity and
// syndromes XOR one row per nonzero byte, and the Chien search XORs one
// n-byte row per nonzero σ coefficient, leaving σ evaluated at every
// position at once so the roots are the zero bytes. A correction is
// re-checked by folding each corrected error's syndrome row into the
// received syndromes (syndromes are linear) instead of a second full
// syndrome pass. Other codes use the LFSR encode, Horner syndromes, a
// full re-check and the incremental Chien search (each σ_j term
// multiplied by α^j per position). All decoder working memory comes
// from a per-Code sync.Pool, so the append-style EncodeTo and DecodeTo
// entry points are allocation-free in steady state on both the clean
// and the correcting path; Encode, Decode and DecodeCodeword keep
// their original copying contracts on top of them.
package rs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"github.com/osu-netlab/osumac/internal/gf256"
)

// Paper code parameters: RS(64,48), 64 coded bytes carrying 48
// information bytes, correcting up to 8 byte errors.
const (
	PaperN = 64
	PaperK = 48
)

var (
	// ErrTooManyErrors is returned when the received word is corrupted
	// beyond the code's correction radius and decoding fails.
	ErrTooManyErrors = errors.New("rs: too many errors to correct")
	// ErrLength is returned when an input has the wrong length.
	ErrLength = errors.New("rs: wrong input length")
)

// Code is a Reed-Solomon code with fixed (n, k). It is immutable after
// construction and safe for concurrent use; decoder scratch memory is
// drawn from an internal sync.Pool.
type Code struct {
	n, k int
	gen  []byte // generator polynomial, ascending powers, degree n-k

	// encTab is the LFSR feedback table, flattened per feedback byte:
	// encTab[fb·(n−k)+j] = fb · gen[n−k−1−j], so one feedback step XORs a
	// single contiguous (n−k)-byte row into the parity register.
	// 256·(n−k) bytes (4 KiB for the paper code).
	encTab []byte
	// synTab[i] is the multiplication row of α^i, driving the Horner
	// syndrome recurrence acc_i = α^i·acc_i + byte as two indexed loads.
	// Contiguous so all n−k interleaved chains share cache lines.
	synTab [][256]byte

	// Word-parallel contribution tables, built when they fit in
	// maxFastTableBytes. Both exploit linearity: the parity of a message
	// and the syndrome vector of a codeword are XORs of independent
	// per-byte contributions, so one table row per (position, value)
	// pair turns the whole computation into a run of contiguous row
	// XORs with no serial dependency.
	//
	// encFlat[((p·256)+v)·(n−k)+j] = coefficient j of v·(x^{n−1−p} mod g):
	// parity(msg) = XOR of rows for each message byte.
	encFlat []byte
	// synFlat[((p·256)+v)·(n−k)+i] = v·X_p^i with X_p = α^{n−1−p}:
	// syndromes(cw) = XOR of rows for each codeword byte.
	synFlat []byte
	// chienFlat[(((j−1)·256)+v)·chienStride+p] = v·α^{j·(p−(n−1))} for
	// j = 1…t: σ evaluated at the position-p locator inverse is σ_0
	// XOR the rows of each nonzero σ_j. Rows are padded to whole
	// 64-bit words; the padding bytes stay zero.
	chienFlat   []byte
	chienStride int

	scratch sync.Pool // *decoderScratch
}

// decoderScratch is the working memory of one in-flight decode. All
// slices are allocated once at full capacity so the decode paths never
// grow them.
type decoderScratch struct {
	syn       []byte // n−k syndromes
	sigBuf    []byte // Berlekamp–Massey σ accumulator, cap n−k+1
	prevBuf   []byte // previous σ, cap n−k+1
	tmpBuf    []byte // σ snapshot for the length-change branch
	omega     []byte // error evaluator, cap n−k
	deriv     []byte // σ′, cap n−k
	terms     []byte // incremental Chien terms σ_j·α^{j·step}, cap t+1
	steps     []byte // per-term Chien multipliers α^j, cap t+1
	positions []int  // located error positions, cap t
	mags      []byte // Forney magnitudes per position, cap n−k
	word      []byte // DecodeTo's corrected copy of the codeword, n bytes
}

// New constructs an RS(n,k) code over GF(256). n must be in (k, 255] and
// k positive.
func New(n, k int) (*Code, error) {
	if k <= 0 || n <= k || n > 255 {
		return nil, fmt.Errorf("rs: invalid parameters n=%d k=%d", n, k)
	}
	gen := []byte{1}
	for i := 0; i < n-k; i++ {
		// Multiply by (x + α^i); subtraction is addition in GF(2⁸).
		gen = gf256.PolyMul(gen, []byte{gf256.Exp(i), 1})
	}
	c := &Code{n: n, k: k, gen: gen}
	// Parity position j is fed by the generator coefficient of
	// x^(n-k-1-j); precompute one full feedback row per byte value.
	c.encTab = make([]byte, 256*(n-k))
	for fb := 1; fb < 256; fb++ {
		row := c.encTab[fb*(n-k) : (fb+1)*(n-k)]
		for j := range row {
			row[j] = gf256.Mul(byte(fb), gen[n-k-1-j])
		}
	}
	c.synTab = make([][256]byte, n-k)
	for i := range c.synTab {
		c.synTab[i] = *gf256.MulTableRow(gf256.Exp(i))
	}
	c.buildFastTables()
	c.scratch.New = func() any {
		t := (n - k) / 2
		return &decoderScratch{
			syn:       make([]byte, n-k),
			sigBuf:    make([]byte, n-k+1),
			prevBuf:   make([]byte, n-k+1),
			tmpBuf:    make([]byte, n-k+1),
			omega:     make([]byte, n-k),
			deriv:     make([]byte, n-k),
			terms:     make([]byte, t+1),
			steps:     make([]byte, t+1),
			positions: make([]int, 0, t),
			mags:      make([]byte, 0, n-k),
			word:      make([]byte, n),
		}
	}
	return c, nil
}

// maxFastTableBytes bounds the combined size of the word-parallel
// tables; codes whose tables would be larger (e.g. the (255,223) CD
// code, ~4.7 MiB) fall back to the LFSR/Horner/incremental kernels. The
// paper code needs 576 KiB: 448 KiB of encode and syndrome rows plus
// the 128 KiB Chien table. The Chien table turns the ~t·n dependent
// GF multiplies of a worst-case search into t·n/8 word XORs; measured
// on a 2-core Xeon, it cut a t-error RS(64,48) DecodeTo from ~2.9 µs
// to ~1.75 µs, so the bound admits it.
const maxFastTableBytes = 640 << 10

// fastTableBytes is the size of the word-parallel tables of an (n, k)
// code: encode rows, syndrome rows and Chien rows.
func fastTableBytes(n, k int) int {
	return (n+k)*256*(n-k) + (n-k)/2*256*chienStride(n)
}

// chienStride is the Chien row length: n rounded up to whole words.
func chienStride(n int) int { return (n + 7) &^ 7 }

// buildFastTables precomputes the per-(position, value) contribution
// rows used by the word-parallel encode, syndrome and Chien paths.
func (c *Code) buildFastTables() {
	n, k := c.n, c.k
	p := n - k
	if fastTableBytes(n, k) > maxFastTableBytes {
		return
	}
	// Encode: r_p(x) = x^{n−1−p} mod g for each message position p,
	// computed by repeated multiply-by-x reduction from p=k−1 upward
	// (x^{n−k} mod g seeds the recurrence), then scaled by every byte.
	c.encFlat = make([]byte, k*256*p)
	r := make([]byte, p)    // r_p coefficients, ascending powers
	rrev := make([]byte, p) // r_p in parity byte order (x^{p−1} first)
	// pos = k−1 → exponent n−k: x^{n−k} ≡ the low coefficients of g
	// (g is monic, characteristic 2).
	copy(r, c.gen[:p])
	for pos := k - 1; pos >= 0; pos-- {
		// Parity byte j is the coefficient of x^{p−1−j}; store rows in
		// that order so the runtime XOR is a straight contiguous run.
		for j := range rrev {
			rrev[j] = r[p-1-j]
		}
		base := pos * 256 * p
		for v := 1; v < 256; v++ {
			gf256.MulSlice(byte(v), c.encFlat[base+v*p:base+(v+1)*p], rrev)
		}
		if pos > 0 {
			// r ← (x·r) mod g: shift up one power and reduce by g.
			lead := r[p-1]
			copy(r[1:], r[:p-1])
			r[0] = 0
			gf256.AddMulSlice(lead, r, c.gen[:p])
		}
	}
	// Syndromes: powers of X_p = α^{n−1−p} scaled by every byte value.
	c.synFlat = make([]byte, n*256*p)
	powers := make([]byte, p)
	for pos := 0; pos < n; pos++ {
		x := gf256.Exp(n - 1 - pos)
		pw := byte(1)
		for i := range powers {
			powers[i] = pw
			pw = gf256.Mul(pw, x)
		}
		base := pos * 256 * p
		for v := 1; v < 256; v++ {
			gf256.MulSlice(byte(v), c.synFlat[base+v*p:base+(v+1)*p], powers)
		}
	}
	// Chien: for each σ degree j ≤ t, the locator-inverse powers
	// α^{j·(pos−(n−1))} across all positions, scaled by every byte.
	t := c.T()
	stride := chienStride(n)
	c.chienStride = stride
	c.chienFlat = make([]byte, t*256*stride)
	xs := make([]byte, n)
	for j := 1; j <= t; j++ {
		for pos := range xs {
			xs[pos] = gf256.Exp(j * (pos - (n - 1)))
		}
		base := (j - 1) * 256 * stride
		for v := 1; v < 256; v++ {
			gf256.MulSlice(byte(v), c.chienFlat[base+v*stride:base+v*stride+n], xs)
		}
	}
}

// MustNew is New for static configurations; it panics on invalid
// parameters, which indicates a programming error.
func MustNew(n, k int) *Code {
	c, err := New(n, k)
	if err != nil {
		//lint:ignore panicfree Must-style API contract: invalid static parameters are a programming error
		panic(err)
	}
	return c
}

// paperCode is the process-wide RS(64,48) instance. A Code is immutable
// after construction and its scratch pool is concurrency-safe, so every
// codec in every (possibly concurrent) simulation shares one copy of
// the 576 KiB fast tables instead of rebuilding them per network.
var paperCode = sync.OnceValue(func() *Code { return MustNew(PaperN, PaperK) })

// NewPaperCode returns the RS(64,48) code used by the OSU testbed. The
// returned Code is a shared, immutable, concurrency-safe instance.
func NewPaperCode() *Code { return paperCode() }

// N returns the codeword length in bytes.
func (c *Code) N() int { return c.n }

// K returns the message length in bytes.
func (c *Code) K() int { return c.k }

// T returns the maximum number of correctable byte errors, (n−k)/2.
func (c *Code) T() int { return (c.n - c.k) / 2 }

// zeros pads append-style growth without a per-call allocation; 255 is
// the largest possible codeword, so a parity run always fits.
var zeros [256]byte

// Encode produces the systematic codeword for msg: the k message bytes
// followed by n−k parity bytes. msg must be exactly k bytes.
func (c *Code) Encode(msg []byte) ([]byte, error) {
	return c.EncodeTo(make([]byte, 0, c.n), msg)
}

// EncodeTo appends the systematic codeword for msg to dst and returns
// the extended slice. When dst has capacity for n more bytes the call
// performs no allocations, so a reused buffer gives an allocation-free
// steady-state encode path.
func (c *Code) EncodeTo(dst, msg []byte) ([]byte, error) {
	if len(msg) != c.k {
		return nil, fmt.Errorf("%w: message %d bytes, want %d", ErrLength, len(msg), c.k)
	}
	// Treat the codeword polynomial with the message in the HIGH-order
	// coefficients: cw(x) = msg(x)·x^(n−k) + parity(x). Internally we
	// store codewords as byte slices where index 0 is the first
	// transmitted byte (message first), so the polynomial coefficient of
	// x^(n-1-i) is cw[i].
	dst = append(dst, msg...)
	off := len(dst)
	dst = append(dst, zeros[:c.n-c.k]...)
	parity := dst[off:]
	plen := len(parity)

	if c.encFlat != nil && plen == 16 {
		// Word-parallel path: the parity block is the XOR of one
		// 16-byte contribution row per nonzero message byte.
		var acc0, acc1 uint64
		for p, v := range msg {
			if v == 0 {
				continue
			}
			row := c.encFlat[(p<<8|int(v))<<4:]
			acc0 ^= binary.LittleEndian.Uint64(row)
			acc1 ^= binary.LittleEndian.Uint64(row[8:])
		}
		binary.LittleEndian.PutUint64(parity, acc0)
		binary.LittleEndian.PutUint64(parity[8:], acc1)
		return dst, nil
	}
	if c.encFlat != nil {
		for p, v := range msg {
			if v == 0 {
				continue
			}
			row := c.encFlat[(p*256+int(v))*plen:]
			for j := 0; j < plen; j++ {
				parity[j] ^= row[j]
			}
		}
		return dst, nil
	}

	// Generic synthetic LFSR division: process message bytes high-order
	// first. Each step shifts the register and folds the feedback byte
	// in by XORing its precomputed generator row — one contiguous
	// load/XOR run with no multiplications.
	last := plen - 1
	for _, m := range msg {
		feedback := m ^ parity[0]
		copy(parity, parity[1:])
		parity[last] = 0
		if feedback != 0 {
			row := c.encTab[int(feedback)*plen : int(feedback)*plen+plen]
			for j := range parity {
				parity[j] ^= row[j]
			}
		}
	}
	return dst, nil
}

// getScratch pulls per-decode working memory from the pool. The pool
// stores pointers, so steady-state Get/Put pairs do not allocate.
func (c *Code) getScratch() *decoderScratch {
	s, _ := c.scratch.Get().(*decoderScratch)
	if s == nil {
		// Unreachable with the New hook installed; kept as a safety net.
		s = c.scratch.New().(*decoderScratch)
	}
	return s
}

// syndromesInto fills syn with S_i = cw(α^i) and reports whether all are
// zero. The codeword is interpreted with cw[0] as the coefficient of
// x^(n−1). The Horner recurrences acc_i = α^i·acc_i + b run interleaved
// with the codeword byte in the outer loop: each chain is a serial
// dependency of table loads, so advancing all n−k chains per byte keeps
// the load ports busy instead of waiting out one chain's latency.
func (c *Code) syndromesInto(syn, cw []byte) bool {
	if c.synFlat != nil && len(syn) == 16 {
		// Word-parallel path: the syndrome vector is the XOR of one
		// 16-byte contribution row per nonzero codeword byte.
		var acc0, acc1 uint64
		for p, v := range cw {
			if v == 0 {
				continue
			}
			row := c.synFlat[(p<<8|int(v))<<4:]
			acc0 ^= binary.LittleEndian.Uint64(row)
			acc1 ^= binary.LittleEndian.Uint64(row[8:])
		}
		binary.LittleEndian.PutUint64(syn, acc0)
		binary.LittleEndian.PutUint64(syn[8:], acc1)
		return (acc0 | acc1) == 0
	}
	if c.synFlat != nil {
		p := len(syn)
		clear(syn)
		for pos, v := range cw {
			if v == 0 {
				continue
			}
			row := c.synFlat[(pos*256+int(v))*p:]
			for i := 0; i < p; i++ {
				syn[i] ^= row[i]
			}
		}
		var any byte
		for _, s := range syn {
			any |= s
		}
		return any == 0
	}
	// Generic path: Horner recurrences acc_i = α^i·acc_i + b run
	// interleaved with the codeword byte in the outer loop — each chain
	// is a serial dependency of table loads, so advancing all n−k chains
	// per byte keeps the load ports busy instead of waiting out one
	// chain's latency.
	tab := c.synTab
	clear(syn)
	for _, b := range cw {
		for i := range syn {
			syn[i] = tab[i][syn[i]] ^ b
		}
	}
	var any byte
	for _, s := range syn {
		any |= s
	}
	return any == 0
}

// Decode corrects up to T() byte errors in place of a copy of cw and
// returns the k message bytes. It returns ErrTooManyErrors when the
// error pattern exceeds the correction radius (decode failure), and
// ErrLength for a wrong-sized input. The input slice is not modified.
func (c *Code) Decode(cw []byte) ([]byte, error) {
	out, err := c.DecodeTo(make([]byte, 0, c.k), cw)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeTo appends the k corrected message bytes to dst and returns the
// extended slice. Both the clean path (no channel errors, the common
// case on a working link) and the correcting path perform no
// allocations when dst has room for k more bytes: the correction runs
// on a pooled copy of the codeword and only its message bytes are
// appended.
func (c *Code) DecodeTo(dst, cw []byte) ([]byte, error) {
	if len(cw) != c.n {
		return nil, fmt.Errorf("%w: codeword %d bytes, want %d", ErrLength, len(cw), c.n)
	}
	s := c.getScratch()
	defer c.scratch.Put(s)
	if c.syndromesInto(s.syn, cw) {
		return append(dst, cw[:c.k]...), nil
	}
	word := s.word
	copy(word, cw)
	if _, err := c.correct(s, word); err != nil {
		return nil, err
	}
	return append(dst, word[:c.k]...), nil
}

// DecodeCodeword corrects a copy of cw, returning the full corrected
// codeword and the number of byte errors fixed.
func (c *Code) DecodeCodeword(cw []byte) ([]byte, int, error) {
	if len(cw) != c.n {
		return nil, 0, fmt.Errorf("%w: codeword %d bytes, want %d", ErrLength, len(cw), c.n)
	}
	out := make([]byte, c.n)
	copy(out, cw)
	s := c.getScratch()
	if c.syndromesInto(s.syn, out) {
		c.scratch.Put(s)
		return out, 0, nil
	}
	n, err := c.correct(s, out)
	c.scratch.Put(s)
	if err != nil {
		return nil, 0, err
	}
	return out, n, nil
}

// correct runs the error-correction pipeline on cw in place using the
// syndromes already in s.syn. It returns the number of corrected bytes.
func (c *Code) correct(s *decoderScratch, cw []byte) (int, error) {
	sigma, err := c.berlekampMassey(s, s.syn, c.T())
	if err != nil {
		return 0, err
	}
	positions, err := c.chienSearch(s, sigma)
	if err != nil {
		return 0, err
	}
	if err := c.forney(s, cw, s.syn, sigma, positions); err != nil {
		return 0, err
	}
	// Re-check syndromes: Berlekamp–Massey can produce a spurious locator
	// for >t errors; a failed re-check means decode failure.
	if !c.recheck(s, cw, positions) {
		return 0, ErrTooManyErrors
	}
	return len(positions), nil
}

// recheck reports whether the corrected word cw is a codeword, given
// the received syndromes in s.syn and the magnitudes forney applied at
// positions (in s.mags). With the syndrome table it XORs each
// correction's syndrome row into the received syndromes: syndromes are
// linear, so that equals the syndromes of the corrected word, at one
// row per corrected byte instead of a pass over all n bytes. Otherwise
// it recomputes them. Either way s.syn may be overwritten.
func (c *Code) recheck(s *decoderScratch, cw []byte, positions []int) bool {
	if c.synFlat == nil {
		return c.syndromesInto(s.syn, cw)
	}
	syn := s.syn
	p := len(syn)
	if p == 16 {
		acc0 := binary.LittleEndian.Uint64(syn)
		acc1 := binary.LittleEndian.Uint64(syn[8:])
		for i, pos := range positions {
			row := c.synFlat[(pos<<8|int(s.mags[i]))<<4:]
			acc0 ^= binary.LittleEndian.Uint64(row)
			acc1 ^= binary.LittleEndian.Uint64(row[8:])
		}
		return acc0|acc1 == 0
	}
	for i, pos := range positions {
		row := c.synFlat[(pos*256+int(s.mags[i]))*p:][:p]
		for j := range syn {
			syn[j] ^= row[j]
		}
	}
	var any byte
	for _, v := range syn {
		any |= v
	}
	return any == 0
}

// berlekampMassey finds the error-locator polynomial σ(x) (ascending
// powers, σ(0)=1) from the given syndromes (s.syn for plain decoding,
// the Forney syndromes for the erasure path). If the implied number of
// errors exceeds t it fails. σ lives in s.sigBuf; the buffer is fully
// zeroed up front so in-place length growth never reads stale bytes.
func (c *Code) berlekampMassey(s *decoderScratch, syn []byte, t int) ([]byte, error) {
	clear(s.sigBuf)
	clear(s.prevBuf)
	sigma := s.sigBuf[:1]
	prev := s.prevBuf[:1]
	sigma[0] = 1
	prev[0] = 1
	var l, m int = 0, 1
	b := byte(1)

	for i := 0; i < len(syn); i++ {
		// Compute discrepancy d = S_i + Σ_{j=1..l} σ_j·S_{i−j}.
		d := syn[i]
		for j := 1; j <= l && j < len(sigma); j++ {
			d ^= gf256.Mul(sigma[j], syn[i-j])
		}
		if d == 0 {
			m++
			continue
		}
		coef := gf256.Div(d, b)
		if 2*l <= i {
			tmp := s.tmpBuf[:len(sigma)]
			copy(tmp, sigma)
			sigma = addMulShifted(sigma, prev, coef, m)
			l = i + 1 - l
			// prev ← old σ. Copy through prevBuf so σ keeps its backing
			// array; the tails beyond len stay zero by construction.
			clear(prev)
			prev = s.prevBuf[:len(tmp)]
			copy(prev, tmp)
			b = d
			m = 1
		} else {
			sigma = addMulShifted(sigma, prev, coef, m)
			m++
		}
	}
	if l > t {
		return nil, ErrTooManyErrors
	}
	return gf256.PolyTrim(sigma), nil
}

// addMulShifted computes sigma += coef·x^shift·prev in place, extending
// sigma's length within its backing array when the shifted term is
// longer. Bytes beyond len(sigma) are zero by the caller's invariant, so
// extension is a pure reslice.
func addMulShifted(sigma, prev []byte, coef byte, shift int) []byte {
	if need := len(prev) + shift; need > len(sigma) {
		sigma = sigma[:need]
	}
	gf256.AddMulSlice(coef, sigma[shift:shift+len(prev)], prev)
	return sigma
}

// chienSearch finds error positions (byte indices into the codeword,
// index 0 = first transmitted byte = coefficient of x^(n−1)) as the
// roots of σ: position pos is a root when σ(α^(pos−(n−1))) = 0. It
// fails if the number of distinct roots does not match deg σ, which
// signals an uncorrectable pattern. Codes with the Chien table evaluate
// every position at once (chienTable); the others step incrementally.
func (c *Code) chienSearch(s *decoderScratch, sigma []byte) ([]int, error) {
	deg := gf256.PolyDegree(sigma)
	if deg <= 0 {
		return nil, ErrTooManyErrors
	}
	if c.chienFlat != nil && deg <= c.T() {
		return c.chienTable(s, sigma, deg)
	}
	return c.chienIncremental(s, sigma, deg)
}

// Byte-lane masks for finding zero bytes in a 64-bit word.
const (
	lanes01 = 0x0101010101010101
	lanes7f = 0x7f7f7f7f7f7f7f7f
)

// chienTable evaluates σ at all n locator inverses at once: the
// evaluations start as σ_0 in every byte and each nonzero σ_j XORs in
// its precomputed n-byte row, eight positions per word. The roots are
// the zero bytes, found with an exact (carry-free) zero-byte mask and
// reported in increasing position order.
func (c *Code) chienTable(s *decoderScratch, sigma []byte, deg int) ([]int, error) {
	stride := c.chienStride
	var acc [256 / 8]uint64
	words := acc[:stride/8]
	base := uint64(sigma[0]) * lanes01
	for w := range words {
		words[w] = base
	}
	for j := 1; j <= deg; j++ {
		v := sigma[j]
		if v == 0 {
			continue
		}
		row := c.chienFlat[((j-1)*256+int(v))*stride:][:stride]
		for w := range words {
			words[w] ^= binary.LittleEndian.Uint64(row[w*8:])
		}
	}
	positions := s.positions[:0]
	for w, x := range words {
		// Bit 8b+7 of zero is set exactly when byte b of x is zero.
		zero := ^((x&lanes7f + lanes7f) | x | lanes7f)
		if pad := (w+1)*8 - c.n; pad > 0 {
			zero &= ^uint64(0) >> (8 * pad)
		}
		for ; zero != 0; zero &= zero - 1 {
			if len(positions) == cap(positions) {
				return nil, ErrTooManyErrors
			}
			positions = append(positions, w*8+bits.TrailingZeros64(zero)/8)
		}
	}
	if len(positions) != deg {
		return nil, ErrTooManyErrors
	}
	return positions, nil
}

// chienIncremental is the generic Chien search. Instead of a full
// polynomial evaluation per position it keeps the running products
// σ_j·α^{j·step}: position pos evaluates σ at α^(pos−(n−1)), and
// stepping to pos+1 multiplies term j by α^j.
func (c *Code) chienIncremental(s *decoderScratch, sigma []byte, deg int) ([]int, error) {
	terms := s.terms[:deg+1]
	steps := s.steps[:deg+1]
	for j := 0; j <= deg; j++ {
		// Starting point pos=0 evaluates σ at α^{-(n-1)}: term_j =
		// σ_j·α^{-j(n-1)}.
		terms[j] = gf256.Mul(sigma[j], gf256.Exp(-j*(c.n-1)))
		steps[j] = gf256.Exp(j)
	}
	positions := s.positions[:0]
	for pos := 0; pos < c.n; pos++ {
		var v byte
		for _, t := range terms {
			v ^= t
		}
		if v == 0 {
			if len(positions) == cap(positions) {
				// More roots than t errors can explain: bail before the
				// append would spill out of the pooled buffer.
				return nil, ErrTooManyErrors
			}
			positions = append(positions, pos)
		}
		for j := 1; j < len(terms); j++ {
			terms[j] = gf256.Mul(terms[j], steps[j])
		}
	}
	if len(positions) != deg {
		return nil, ErrTooManyErrors
	}
	return positions, nil
}

// forney computes error magnitudes from the given syndromes and locator
// (σ for plain decoding, the combined locator Ψ = σ·Γ for the erasure
// path) and corrects cw in place.
func (c *Code) forney(s *decoderScratch, cw, syn, sigma []byte, positions []int) error {
	// Error evaluator Ω(x) = [S(x)·σ(x)] mod x^(n−k), computed directly
	// into the truncated scratch buffer via table rows.
	omega := s.omega[:len(syn)]
	clear(omega)
	for i, si := range syn {
		if si == 0 {
			continue
		}
		row := gf256.MulTableRow(si)
		for j, sj := range sigma {
			if i+j >= len(omega) {
				break
			}
			omega[i+j] ^= row[sj]
		}
	}
	omega = gf256.PolyTrim(omega)

	// σ′: even-power terms vanish in characteristic 2.
	deriv := s.deriv[:0]
	if len(sigma) > 1 {
		deriv = s.deriv[:len(sigma)-1]
		clear(deriv)
		for i := 1; i < len(sigma); i += 2 {
			deriv[i-1] = sigma[i]
		}
		deriv = gf256.PolyTrim(deriv)
	}

	mags := s.mags[:0]
	for _, pos := range positions {
		x := gf256.Exp(c.n - 1 - pos) // locator X_j
		xInv := gf256.Inv(x)
		denom := gf256.PolyEval(deriv, xInv)
		if denom == 0 {
			return ErrTooManyErrors
		}
		// e_j = X_j · Ω(X_j⁻¹) / σ'(X_j⁻¹) for first consecutive root b=0.
		num := gf256.Mul(x, gf256.PolyEval(omega, xInv))
		e := gf256.Div(num, denom)
		cw[pos] ^= e
		mags = append(mags, e)
	}
	s.mags = mags
	return nil
}
