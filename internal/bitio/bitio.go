// Package bitio provides MSB-first bit-level reading and writing over
// byte slices. The OSU-MAC control fields pack 6-bit user IDs and 16-bit
// EINs into 630 bits across two RS codewords; this package does the
// packing.
//
// Every subscriber unpacks those 630 bits on every cycle, so the field
// kernels work a byte chunk at a time: a w-bit field at any bit offset
// costs at most ⌈w/8⌉+1 shift-and-mask steps (one partial leading
// byte, whole middle bytes, one partial trailing byte) instead of w
// single-bit steps, and byte runs at an aligned offset are plain
// copies.
package bitio

import (
	"errors"
	"fmt"
)

// ErrOverflow is returned when a read or write would pass the end of the
// underlying buffer.
var ErrOverflow = errors.New("bitio: past end of buffer")

// ErrValueRange is returned by the strict Put methods when a value does
// not fit its declared field width.
var ErrValueRange = errors.New("bitio: value exceeds field width")

// Writer packs bits MSB-first into an internal buffer.
type Writer struct {
	buf  []byte
	nbit int // bits written so far
	err  error
}

// NewWriter returns a writer with the given capacity in bits. The
// underlying buffer is rounded up to whole bytes and zero-filled.
func NewWriter(capacityBits int) *Writer {
	if capacityBits < 0 {
		capacityBits = 0
	}
	//lint:ignore hotpathalloc constructor of the cold strict-Writer API; hot paths use the stateless PutBitsAt and only reach here via frame's off-path marshalErr rebuild
	return &Writer{buf: make([]byte, (capacityBits+7)/8)}
}

// PutBitsAt writes the low width bits of v MSB-first at bit offset nbit
// of buf and returns the advanced offset. It is the stateless form of
// WriteBits for zero-allocation hot paths: holding the offset in a
// local instead of a Writer keeps caller-owned stack buffers off the
// heap (escape analysis treats any slice stored into a struct as
// escaping). The caller guarantees capacity, zeroed target bits, and
// that v fits width — validate up front, as frame's MarshalTo does.
func PutBitsAt(buf []byte, nbit int, v uint64, width int) int {
	if width <= 0 {
		return nbit
	}
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	end := nbit + width
	i := nbit >> 3
	if off := nbit & 7; off != 0 {
		// Leading partial byte: the field's top bits fill the low
		// 8−off bits of buf[i].
		free := 8 - off
		if width <= free {
			buf[i] |= byte(v << uint(free-width))
			return end
		}
		width -= free
		buf[i] |= byte(v >> uint(width))
		i++
	}
	for ; width >= 8; i++ {
		width -= 8
		buf[i] |= byte(v >> uint(width))
	}
	if width > 0 {
		buf[i] |= byte(v << uint(8-width))
	}
	return end
}

// TakeBitsAt reads width bits MSB-first from bit offset nbit of buf,
// returning the value and the advanced offset: the stateless form of
// ReadBits (see PutBitsAt). The caller guarantees bounds.
func TakeBitsAt(buf []byte, nbit, width int) (uint64, int) {
	if width <= 0 {
		return 0, nbit
	}
	end := nbit + width
	i := nbit >> 3
	var v uint64
	if off := nbit & 7; off != 0 {
		free := 8 - off
		v = uint64(buf[i] & (0xff >> uint(off)))
		if width <= free {
			return v >> uint(free-width), end
		}
		width -= free
		i++
	}
	for ; width >= 8; i++ {
		width -= 8
		v = v<<8 | uint64(buf[i])
	}
	if width > 0 {
		v = v<<uint(width) | uint64(buf[i]>>uint(8-width))
	}
	return v, end
}

// CapacityBits returns the writer's capacity in bits.
func (w *Writer) CapacityBits() int { return len(w.buf) * 8 }

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// WriteBits writes the low width bits of v, MSB first. width must be in
// [0, 64].
func (w *Writer) WriteBits(v uint64, width int) error {
	if width < 0 || width > 64 {
		return fmt.Errorf("bitio: invalid width %d", width)
	}
	if w.nbit+width > len(w.buf)*8 {
		return fmt.Errorf("%w: write %d bits at offset %d, capacity %d",
			ErrOverflow, width, w.nbit, len(w.buf)*8)
	}
	w.nbit = PutBitsAt(w.buf, w.nbit, v, width)
	return nil
}

// WriteBool writes a single bit.
func (w *Writer) WriteBool(b bool) error {
	var v uint64
	if b {
		v = 1
	}
	return w.WriteBits(v, 1)
}

// WriteBytes writes whole bytes at the current bit offset. At a byte
// boundary this is a copy. When p does not fit, the bytes that do are
// written and the overflow error names the first byte that does not.
func (w *Writer) WriteBytes(p []byte) error {
	if w.nbit&7 == 0 {
		n := copy(w.buf[w.nbit>>3:], p)
		w.nbit += 8 * n
		p = p[n:]
	}
	for _, b := range p {
		if err := w.WriteBits(uint64(b), 8); err != nil {
			return err
		}
	}
	return nil
}

// Err returns the first error recorded by the Put methods, or nil.
func (w *Writer) Err() error { return w.err }

// setErr records the first error seen by a Put method.
func (w *Writer) setErr(err error) {
	if w.err == nil {
		w.err = err
	}
}

// PutBits writes the low width bits of v, MSB first, recording rather
// than returning errors: after any Put fails, subsequent Puts are no-ops
// and Err reports the first failure. Unlike WriteBits, PutBits is strict
// about range: v must fit in width bits.
func (w *Writer) PutBits(v uint64, width int) {
	if w.err != nil {
		return
	}
	if width < 64 && v >= 1<<uint(width) {
		//lint:ignore hotpathalloc error construction in the cold strict-Writer API; hot callers validate field widths up front and never take this branch
		w.setErr(fmt.Errorf("%w: value %d in %d bits", ErrValueRange, v, width))
		return
	}
	w.setErr(w.WriteBits(v, width))
}

// PutBool writes a single bit, recording errors like PutBits.
func (w *Writer) PutBool(b bool) {
	if w.err != nil {
		return
	}
	w.setErr(w.WriteBool(b))
}

// PutBytes writes whole bytes at the current bit offset, recording
// errors like PutBits.
func (w *Writer) PutBytes(p []byte) {
	if w.err != nil {
		return
	}
	w.setErr(w.WriteBytes(p))
}

// Bytes returns the buffer padded with zero bits to whole bytes. The
// returned slice is the full capacity; callers that need only the
// written prefix can slice it with (Len()+7)/8.
func (w *Writer) Bytes() []byte {
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out
}

// Reader unpacks MSB-first bits from a byte slice.
type Reader struct {
	buf  []byte
	nbit int
	err  error
}

// NewReader returns a reader over p. The reader does not copy p; callers
// must not mutate it while reading.
func NewReader(p []byte) *Reader {
	return &Reader{buf: p}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return len(r.buf)*8 - r.nbit }

// Offset returns the number of bits consumed so far.
func (r *Reader) Offset() int { return r.nbit }

// ReadBits reads width bits MSB-first and returns them in the low bits
// of the result. width must be in [0, 64].
func (r *Reader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitio: invalid width %d", width)
	}
	if r.nbit+width > len(r.buf)*8 {
		return 0, fmt.Errorf("%w: read %d bits at offset %d, size %d",
			ErrOverflow, width, r.nbit, len(r.buf)*8)
	}
	var v uint64
	v, r.nbit = TakeBitsAt(r.buf, r.nbit, width)
	return v, nil
}

// ReadBool reads a single bit.
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// ReadBytes reads n whole bytes at the current bit offset into a new
// slice. At a byte boundary this is a copy. When fewer than n bytes
// remain, the ones that do are consumed and the overflow error names
// the first byte that does not.
func (r *Reader) ReadBytes(n int) ([]byte, error) {
	out := make([]byte, 0, n)
	if r.nbit&7 == 0 {
		at := r.nbit >> 3
		out = append(out, r.buf[at:at+min(n, len(r.buf)-at)]...)
		r.nbit += 8 * len(out)
	}
	for len(out) < n {
		v, err := r.ReadBits(8)
		if err != nil {
			return nil, err
		}
		out = append(out, byte(v))
	}
	return out, nil
}

// Err returns the first error recorded by the Take methods, or nil.
func (r *Reader) Err() error { return r.err }

// setErr records the first error seen by a Take method.
func (r *Reader) setErr(err error) {
	if r.err == nil {
		r.err = err
	}
}

// TakeBits reads width bits MSB-first, recording rather than returning
// errors: after any Take fails, subsequent Takes return zero values and
// Err reports the first failure.
func (r *Reader) TakeBits(width int) uint64 {
	if r.err != nil {
		return 0
	}
	v, err := r.ReadBits(width)
	r.setErr(err)
	return v
}

// TakeBool reads a single bit, recording errors like TakeBits.
func (r *Reader) TakeBool() bool {
	if r.err != nil {
		return false
	}
	v, err := r.ReadBool()
	r.setErr(err)
	return v
}

// TakeBytes reads n whole bytes, recording errors like TakeBits.
func (r *Reader) TakeBytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	p, err := r.ReadBytes(n)
	r.setErr(err)
	return p
}

// Skip advances the reader by n bits.
func (r *Reader) Skip(n int) error {
	if n < 0 || r.nbit+n > len(r.buf)*8 {
		return fmt.Errorf("%w: skip %d bits at offset %d, size %d",
			ErrOverflow, n, r.nbit, len(r.buf)*8)
	}
	r.nbit += n
	return nil
}
