package bitio

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/osu-netlab/osumac/internal/sim"
)

// refPutBitsAt is the bit-at-a-time PutBitsAt the byte-chunked kernel
// replaced, kept as the differential reference.
func refPutBitsAt(buf []byte, nbit int, v uint64, width int) int {
	for i := width - 1; i >= 0; i-- {
		if v&(1<<uint(i)) != 0 {
			buf[nbit/8] |= 1 << uint(7-nbit%8)
		}
		nbit++
	}
	return nbit
}

// refTakeBitsAt is the bit-at-a-time TakeBitsAt reference.
func refTakeBitsAt(buf []byte, nbit, width int) (uint64, int) {
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 1
		if buf[nbit/8]&(1<<uint(7-nbit%8)) != 0 {
			v |= 1
		}
		nbit++
	}
	return v, nbit
}

// refWriteBytes is the byte-by-byte Writer.WriteBytes reference over
// (buf, nbit): it returns the advanced offset and the error the old
// WriteBits loop reported.
func refWriteBytes(buf []byte, nbit int, p []byte) (int, error) {
	for _, b := range p {
		if nbit+8 > len(buf)*8 {
			return nbit, fmt.Errorf("%w: write %d bits at offset %d, capacity %d",
				ErrOverflow, 8, nbit, len(buf)*8)
		}
		nbit = refPutBitsAt(buf, nbit, uint64(b), 8)
	}
	return nbit, nil
}

// refReadBytes is the byte-by-byte Reader.ReadBytes reference.
func refReadBytes(buf []byte, nbit, n int) ([]byte, int, error) {
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		if nbit+8 > len(buf)*8 {
			return nil, nbit, fmt.Errorf("%w: read %d bits at offset %d, size %d",
				ErrOverflow, 8, nbit, len(buf)*8)
		}
		var v uint64
		v, nbit = refTakeBitsAt(buf, nbit, 8)
		out = append(out, byte(v))
	}
	return out, nbit, nil
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error() && errors.Is(a, ErrOverflow) == errors.Is(b, ErrOverflow)
}

// checkBitsAt compares the byte-chunked kernels and the Writer/Reader
// byte runs against the bit-at-a-time references on one input.
func checkBitsAt(t *testing.T, buf []byte, nbit int, v uint64, width, nbytes int) {
	t.Helper()
	if width < 0 || width > 64 || nbit < 0 || nbit+width > len(buf)*8 {
		return
	}
	got := bytes.Clone(buf)
	want := bytes.Clone(buf)
	gEnd := PutBitsAt(got, nbit, v, width)
	wEnd := refPutBitsAt(want, nbit, v, width)
	if gEnd != wEnd || !bytes.Equal(got, want) {
		t.Fatalf("PutBitsAt(buf=%x, nbit=%d, v=%#x, width=%d) = %x,%d; reference %x,%d",
			buf, nbit, v, width, got, gEnd, want, wEnd)
	}
	gv, gEnd := TakeBitsAt(buf, nbit, width)
	wv, wEnd := refTakeBitsAt(buf, nbit, width)
	if gv != wv || gEnd != wEnd {
		t.Fatalf("TakeBitsAt(buf=%x, nbit=%d, width=%d) = %#x,%d; reference %#x,%d",
			buf, nbit, width, gv, gEnd, wv, wEnd)
	}

	// Writer byte runs at this offset, aligned or not, into a buffer
	// that may be too short: same bytes, offset and error.
	if nbytes < 0 {
		return
	}
	p := buf[:min(nbytes, len(buf))]
	w := NewWriter(len(buf) * 8)
	w.nbit = nbit
	err := w.WriteBytes(p)
	ref := make([]byte, len(buf))
	refEnd, refErr := refWriteBytes(ref, nbit, p)
	if !sameErr(err, refErr) || w.nbit != refEnd || !bytes.Equal(w.buf, ref) {
		t.Fatalf("WriteBytes(%x) at %d into %d bytes = %x,%d,%v; reference %x,%d,%v",
			p, nbit, len(buf), w.buf, w.nbit, err, ref, refEnd, refErr)
	}

	r := NewReader(buf)
	r.nbit = nbit
	out, err := r.ReadBytes(nbytes)
	refOut, refEnd, refErr := refReadBytes(buf, nbit, nbytes)
	if !sameErr(err, refErr) || r.nbit != refEnd || !bytes.Equal(out, refOut) || (out == nil) != (refOut == nil) {
		t.Fatalf("ReadBytes(%d) at %d of %d bytes = %x,%d,%v; reference %x,%d,%v",
			nbytes, nbit, len(buf), out, r.nbit, err, refOut, refEnd, refErr)
	}
}

func FuzzBitsAt(f *testing.F) {
	f.Add([]byte{0xa5, 0x3c, 0xff, 0x00, 0x81}, uint16(3), uint64(0xabcdef), uint8(13), uint8(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(7), ^uint64(0), uint8(64), uint8(1))
	f.Add(make([]byte, 96), uint16(0), uint64(0x3f), uint8(6), uint8(96))
	f.Add([]byte{0xff}, uint16(8), uint64(1), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, buf []byte, nbit uint16, v uint64, width, nbytes uint8) {
		checkBitsAt(t, buf, int(nbit), v, int(width), int(nbytes))
	})
}

// TestBitsAtMatchesReference sweeps every (offset mod 8, width) pair
// over seeded random buffers and values, plus byte runs that end
// exactly at, and one byte past, the buffer end.
func TestBitsAtMatchesReference(t *testing.T) {
	rng := sim.NewRNG(1)
	for trial := 0; trial < 40; trial++ {
		buf := make([]byte, 1+rng.Intn(24))
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		for width := 0; width <= 64; width++ {
			for off := 0; off < 8; off++ {
				nbit := off + 8*rng.Intn(len(buf))
				checkBitsAt(t, buf, nbit, rng.Uint64(), width, -1)
			}
		}
		for nbit := 0; nbit <= len(buf)*8; nbit++ {
			room := (len(buf)*8 - nbit) / 8
			checkBitsAt(t, buf, nbit, 0, 0, room)
			checkBitsAt(t, buf, nbit, 0, 0, room+1)
		}
	}
}
