package hashes

import (
	"encoding/binary"
	"math/bits"
)

// SHA1Size is the SHA-1 digest length in bytes.
const SHA1Size = 20

// SHA1BlockSize is the SHA-1 block size in bytes.
const SHA1BlockSize = 64

// SHA1 computes digests incrementally; use NewSHA1.
type SHA1 struct {
	h   [5]uint32
	buf [SHA1BlockSize]byte
	n   int
	len uint64
}

// NewSHA1 returns a fresh SHA-1 state.
func NewSHA1() *SHA1 {
	s := &SHA1{}
	s.Reset()
	return s
}

// Reset restores the initial chaining values.
func (s *SHA1) Reset() {
	s.h = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	s.n = 0
	s.len = 0
}

// Size returns SHA1Size.
func (s *SHA1) Size() int { return SHA1Size }

// BlockSize returns SHA1BlockSize.
func (s *SHA1) BlockSize() int { return SHA1BlockSize }

// Write absorbs p; it never fails.
func (s *SHA1) Write(p []byte) (int, error) {
	total := len(p)
	s.len += uint64(total)
	if s.n > 0 {
		c := copy(s.buf[s.n:], p)
		s.n += c
		p = p[c:]
		if s.n == SHA1BlockSize {
			s.block(&s.buf)
			s.n = 0
		}
		if len(p) == 0 {
			return total, nil
		}
	}
	for len(p) >= SHA1BlockSize {
		s.block((*[SHA1BlockSize]byte)(p))
		p = p[SHA1BlockSize:]
	}
	s.n = copy(s.buf[:], p)
	return total, nil
}

// One SHA-1 step per stage function: it returns the new e and b<<<30.
// Callers rotate the five working variables by renaming instead of
// shuffling them, so block is straight-line code once these inline.
// The sum adds a, the previous step's result, last so the terms that
// are ready earlier do not wait on it.
func sha1Ch(a, b, c, d, e, w uint32) (uint32, uint32) {
	return e + w + 0x5a827999 + (d ^ (b & (c ^ d))) + bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
}

func sha1Parity(a, b, c, d, e, w, k uint32) (uint32, uint32) {
	return e + w + k + (b ^ c ^ d) + bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
}

func sha1Maj(a, b, c, d, e, w uint32) (uint32, uint32) {
	return e + w + 0x8f1bbcdc + (b & c) + (d & (b ^ c)) + bits.RotateLeft32(a, 5), bits.RotateLeft32(b, 30)
}

// sha1Sched extends the message schedule in a 16-word ring: word i
// (i ≥ 16) replaces word i-16.
func sha1Sched(w *[16]uint32, i int) uint32 {
	x := bits.RotateLeft32(w[(i-3)&15]^w[(i-8)&15]^w[(i-14)&15]^w[i&15], 1)
	w[i&15] = x
	return x
}

// block is the SHA-1 compression function, unrolled over all 80 steps.
func (s *SHA1) block(p *[SHA1BlockSize]byte) {
	var w [16]uint32
	for i := range w {
		w[i] = binary.BigEndian.Uint32(p[4*i:])
	}
	a, b, c, d, e := s.h[0], s.h[1], s.h[2], s.h[3], s.h[4]

	// Steps 0-19.
	e, b = sha1Ch(a, b, c, d, e, w[0])
	d, a = sha1Ch(e, a, b, c, d, w[1])
	c, e = sha1Ch(d, e, a, b, c, w[2])
	b, d = sha1Ch(c, d, e, a, b, w[3])
	a, c = sha1Ch(b, c, d, e, a, w[4])
	e, b = sha1Ch(a, b, c, d, e, w[5])
	d, a = sha1Ch(e, a, b, c, d, w[6])
	c, e = sha1Ch(d, e, a, b, c, w[7])
	b, d = sha1Ch(c, d, e, a, b, w[8])
	a, c = sha1Ch(b, c, d, e, a, w[9])
	e, b = sha1Ch(a, b, c, d, e, w[10])
	d, a = sha1Ch(e, a, b, c, d, w[11])
	c, e = sha1Ch(d, e, a, b, c, w[12])
	b, d = sha1Ch(c, d, e, a, b, w[13])
	a, c = sha1Ch(b, c, d, e, a, w[14])
	e, b = sha1Ch(a, b, c, d, e, w[15])
	d, a = sha1Ch(e, a, b, c, d, sha1Sched(&w, 16))
	c, e = sha1Ch(d, e, a, b, c, sha1Sched(&w, 17))
	b, d = sha1Ch(c, d, e, a, b, sha1Sched(&w, 18))
	a, c = sha1Ch(b, c, d, e, a, sha1Sched(&w, 19))

	// Steps 20-39.
	e, b = sha1Parity(a, b, c, d, e, sha1Sched(&w, 20), 0x6ed9eba1)
	d, a = sha1Parity(e, a, b, c, d, sha1Sched(&w, 21), 0x6ed9eba1)
	c, e = sha1Parity(d, e, a, b, c, sha1Sched(&w, 22), 0x6ed9eba1)
	b, d = sha1Parity(c, d, e, a, b, sha1Sched(&w, 23), 0x6ed9eba1)
	a, c = sha1Parity(b, c, d, e, a, sha1Sched(&w, 24), 0x6ed9eba1)
	e, b = sha1Parity(a, b, c, d, e, sha1Sched(&w, 25), 0x6ed9eba1)
	d, a = sha1Parity(e, a, b, c, d, sha1Sched(&w, 26), 0x6ed9eba1)
	c, e = sha1Parity(d, e, a, b, c, sha1Sched(&w, 27), 0x6ed9eba1)
	b, d = sha1Parity(c, d, e, a, b, sha1Sched(&w, 28), 0x6ed9eba1)
	a, c = sha1Parity(b, c, d, e, a, sha1Sched(&w, 29), 0x6ed9eba1)
	e, b = sha1Parity(a, b, c, d, e, sha1Sched(&w, 30), 0x6ed9eba1)
	d, a = sha1Parity(e, a, b, c, d, sha1Sched(&w, 31), 0x6ed9eba1)
	c, e = sha1Parity(d, e, a, b, c, sha1Sched(&w, 32), 0x6ed9eba1)
	b, d = sha1Parity(c, d, e, a, b, sha1Sched(&w, 33), 0x6ed9eba1)
	a, c = sha1Parity(b, c, d, e, a, sha1Sched(&w, 34), 0x6ed9eba1)
	e, b = sha1Parity(a, b, c, d, e, sha1Sched(&w, 35), 0x6ed9eba1)
	d, a = sha1Parity(e, a, b, c, d, sha1Sched(&w, 36), 0x6ed9eba1)
	c, e = sha1Parity(d, e, a, b, c, sha1Sched(&w, 37), 0x6ed9eba1)
	b, d = sha1Parity(c, d, e, a, b, sha1Sched(&w, 38), 0x6ed9eba1)
	a, c = sha1Parity(b, c, d, e, a, sha1Sched(&w, 39), 0x6ed9eba1)

	// Steps 40-59.
	e, b = sha1Maj(a, b, c, d, e, sha1Sched(&w, 40))
	d, a = sha1Maj(e, a, b, c, d, sha1Sched(&w, 41))
	c, e = sha1Maj(d, e, a, b, c, sha1Sched(&w, 42))
	b, d = sha1Maj(c, d, e, a, b, sha1Sched(&w, 43))
	a, c = sha1Maj(b, c, d, e, a, sha1Sched(&w, 44))
	e, b = sha1Maj(a, b, c, d, e, sha1Sched(&w, 45))
	d, a = sha1Maj(e, a, b, c, d, sha1Sched(&w, 46))
	c, e = sha1Maj(d, e, a, b, c, sha1Sched(&w, 47))
	b, d = sha1Maj(c, d, e, a, b, sha1Sched(&w, 48))
	a, c = sha1Maj(b, c, d, e, a, sha1Sched(&w, 49))
	e, b = sha1Maj(a, b, c, d, e, sha1Sched(&w, 50))
	d, a = sha1Maj(e, a, b, c, d, sha1Sched(&w, 51))
	c, e = sha1Maj(d, e, a, b, c, sha1Sched(&w, 52))
	b, d = sha1Maj(c, d, e, a, b, sha1Sched(&w, 53))
	a, c = sha1Maj(b, c, d, e, a, sha1Sched(&w, 54))
	e, b = sha1Maj(a, b, c, d, e, sha1Sched(&w, 55))
	d, a = sha1Maj(e, a, b, c, d, sha1Sched(&w, 56))
	c, e = sha1Maj(d, e, a, b, c, sha1Sched(&w, 57))
	b, d = sha1Maj(c, d, e, a, b, sha1Sched(&w, 58))
	a, c = sha1Maj(b, c, d, e, a, sha1Sched(&w, 59))

	// Steps 60-79.
	e, b = sha1Parity(a, b, c, d, e, sha1Sched(&w, 60), 0xca62c1d6)
	d, a = sha1Parity(e, a, b, c, d, sha1Sched(&w, 61), 0xca62c1d6)
	c, e = sha1Parity(d, e, a, b, c, sha1Sched(&w, 62), 0xca62c1d6)
	b, d = sha1Parity(c, d, e, a, b, sha1Sched(&w, 63), 0xca62c1d6)
	a, c = sha1Parity(b, c, d, e, a, sha1Sched(&w, 64), 0xca62c1d6)
	e, b = sha1Parity(a, b, c, d, e, sha1Sched(&w, 65), 0xca62c1d6)
	d, a = sha1Parity(e, a, b, c, d, sha1Sched(&w, 66), 0xca62c1d6)
	c, e = sha1Parity(d, e, a, b, c, sha1Sched(&w, 67), 0xca62c1d6)
	b, d = sha1Parity(c, d, e, a, b, sha1Sched(&w, 68), 0xca62c1d6)
	a, c = sha1Parity(b, c, d, e, a, sha1Sched(&w, 69), 0xca62c1d6)
	e, b = sha1Parity(a, b, c, d, e, sha1Sched(&w, 70), 0xca62c1d6)
	d, a = sha1Parity(e, a, b, c, d, sha1Sched(&w, 71), 0xca62c1d6)
	c, e = sha1Parity(d, e, a, b, c, sha1Sched(&w, 72), 0xca62c1d6)
	b, d = sha1Parity(c, d, e, a, b, sha1Sched(&w, 73), 0xca62c1d6)
	a, c = sha1Parity(b, c, d, e, a, sha1Sched(&w, 74), 0xca62c1d6)
	e, b = sha1Parity(a, b, c, d, e, sha1Sched(&w, 75), 0xca62c1d6)
	d, a = sha1Parity(e, a, b, c, d, sha1Sched(&w, 76), 0xca62c1d6)
	c, e = sha1Parity(d, e, a, b, c, sha1Sched(&w, 77), 0xca62c1d6)
	b, d = sha1Parity(c, d, e, a, b, sha1Sched(&w, 78), 0xca62c1d6)
	a, c = sha1Parity(b, c, d, e, a, sha1Sched(&w, 79), 0xca62c1d6)

	s.h[0] += a
	s.h[1] += b
	s.h[2] += c
	s.h[3] += d
	s.h[4] += e
}

// Sum appends the digest of everything written so far to b (non-destructive).
// When b has spare capacity the append does not allocate.
func (s *SHA1) Sum(b []byte) []byte {
	out := s.sumArray()
	return append(b, out[:]...)
}

// sumArray finalizes a copy of the state into a value digest, keeping the
// one-shot and HMAC paths free of heap allocation.
func (s *SHA1) sumArray() [SHA1Size]byte {
	cp := *s
	// Padding is 0x80, zeros up to 56 mod 64, then the message length in
	// bits, all absorbed in one Write.
	var pad [SHA1BlockSize + 8]byte
	pad[0] = 0x80
	n := 56 - cp.n
	if n <= 0 {
		n += SHA1BlockSize
	}
	binary.BigEndian.PutUint64(pad[n:], cp.len*8)
	cp.Write(pad[:n+8])
	var out [SHA1Size]byte
	for i, v := range cp.h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// SHA1Sum is the one-shot convenience.  It allocates nothing.
func SHA1Sum(data []byte) [SHA1Size]byte {
	var s SHA1
	s.Reset()
	s.Write(data)
	return s.sumArray()
}
