// Package hashes implements the MD5 and SHA-1 digest algorithms and HMAC
// from scratch.  SSL 3.0/TLS 1.0 — the transport-layer protocol whose
// transactions Figure 8 accelerates — uses both digests in its handshake
// and HMAC-MD5/HMAC-SHA1 for record-layer integrity; on the platform these
// run on the base core and therefore form part of the non-accelerated
// "miscellaneous" workload share.
package hashes

import (
	"encoding/binary"
	"math/bits"
)

// MD5Size is the MD5 digest length in bytes.
const MD5Size = 16

// MD5BlockSize is the MD5 block size in bytes.
const MD5BlockSize = 64

// MD5 computes digests incrementally; the zero value is not usable — call
// NewMD5.
type MD5 struct {
	h   [4]uint32
	buf [MD5BlockSize]byte
	n   int    // bytes buffered
	len uint64 // total bytes written
}

// NewMD5 returns a fresh MD5 state.
func NewMD5() *MD5 {
	m := &MD5{}
	m.Reset()
	return m
}

// Reset restores the initial chaining values.
func (m *MD5) Reset() {
	m.h = [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}
	m.n = 0
	m.len = 0
}

// Size returns MD5Size.
func (m *MD5) Size() int { return MD5Size }

// BlockSize returns MD5BlockSize.
func (m *MD5) BlockSize() int { return MD5BlockSize }

// Write absorbs p; it never fails.
func (m *MD5) Write(p []byte) (int, error) {
	total := len(p)
	m.len += uint64(total)
	if m.n > 0 {
		c := copy(m.buf[m.n:], p)
		m.n += c
		p = p[c:]
		if m.n == MD5BlockSize {
			m.block(&m.buf)
			m.n = 0
		}
		if len(p) == 0 {
			return total, nil
		}
	}
	for len(p) >= MD5BlockSize {
		m.block((*[MD5BlockSize]byte)(p))
		p = p[MD5BlockSize:]
	}
	m.n = copy(m.buf[:], p)
	return total, nil
}

// The four MD5 round functions fused with one step's add-and-rotate:
// a' = b + (a + x + k + fn(b, c, d)) <<< s.  Each inlines, so block is
// straight-line code.  a, x and k are summed first because they are
// ready early; fn waits on b, the previous step's result, and adding it
// last keeps the step's dependency chain short.
func ff(a, b, c, d, x uint32, s int, k uint32) uint32 {
	return b + bits.RotateLeft32(a+x+k+(d^(b&(c^d))), s)
}

func gg(a, b, c, d, x uint32, s int, k uint32) uint32 {
	return b + bits.RotateLeft32(a+x+k+(c^(d&(b^c))), s)
}

func hh(a, b, c, d, x uint32, s int, k uint32) uint32 {
	return b + bits.RotateLeft32(a+x+k+(b^c^d), s)
}

func ii(a, b, c, d, x uint32, s int, k uint32) uint32 {
	return b + bits.RotateLeft32(a+x+k+(c^(b|^d)), s)
}

// block is the MD5 compression function, unrolled: the message words
// live in locals and the 64 steps are written out with the RFC 1321
// message-word order, rotation amounts and sine constants
// K[i] = floor(2³²·|sin(i+1)|) written in place.
func (m *MD5) block(p *[MD5BlockSize]byte) {
	x0 := binary.LittleEndian.Uint32(p[0:])
	x1 := binary.LittleEndian.Uint32(p[4:])
	x2 := binary.LittleEndian.Uint32(p[8:])
	x3 := binary.LittleEndian.Uint32(p[12:])
	x4 := binary.LittleEndian.Uint32(p[16:])
	x5 := binary.LittleEndian.Uint32(p[20:])
	x6 := binary.LittleEndian.Uint32(p[24:])
	x7 := binary.LittleEndian.Uint32(p[28:])
	x8 := binary.LittleEndian.Uint32(p[32:])
	x9 := binary.LittleEndian.Uint32(p[36:])
	x10 := binary.LittleEndian.Uint32(p[40:])
	x11 := binary.LittleEndian.Uint32(p[44:])
	x12 := binary.LittleEndian.Uint32(p[48:])
	x13 := binary.LittleEndian.Uint32(p[52:])
	x14 := binary.LittleEndian.Uint32(p[56:])
	x15 := binary.LittleEndian.Uint32(p[60:])
	a, b, c, d := m.h[0], m.h[1], m.h[2], m.h[3]

	// Round 1.
	a = ff(a, b, c, d, x0, 7, 0xd76aa478)
	d = ff(d, a, b, c, x1, 12, 0xe8c7b756)
	c = ff(c, d, a, b, x2, 17, 0x242070db)
	b = ff(b, c, d, a, x3, 22, 0xc1bdceee)
	a = ff(a, b, c, d, x4, 7, 0xf57c0faf)
	d = ff(d, a, b, c, x5, 12, 0x4787c62a)
	c = ff(c, d, a, b, x6, 17, 0xa8304613)
	b = ff(b, c, d, a, x7, 22, 0xfd469501)
	a = ff(a, b, c, d, x8, 7, 0x698098d8)
	d = ff(d, a, b, c, x9, 12, 0x8b44f7af)
	c = ff(c, d, a, b, x10, 17, 0xffff5bb1)
	b = ff(b, c, d, a, x11, 22, 0x895cd7be)
	a = ff(a, b, c, d, x12, 7, 0x6b901122)
	d = ff(d, a, b, c, x13, 12, 0xfd987193)
	c = ff(c, d, a, b, x14, 17, 0xa679438e)
	b = ff(b, c, d, a, x15, 22, 0x49b40821)

	// Round 2.
	a = gg(a, b, c, d, x1, 5, 0xf61e2562)
	d = gg(d, a, b, c, x6, 9, 0xc040b340)
	c = gg(c, d, a, b, x11, 14, 0x265e5a51)
	b = gg(b, c, d, a, x0, 20, 0xe9b6c7aa)
	a = gg(a, b, c, d, x5, 5, 0xd62f105d)
	d = gg(d, a, b, c, x10, 9, 0x02441453)
	c = gg(c, d, a, b, x15, 14, 0xd8a1e681)
	b = gg(b, c, d, a, x4, 20, 0xe7d3fbc8)
	a = gg(a, b, c, d, x9, 5, 0x21e1cde6)
	d = gg(d, a, b, c, x14, 9, 0xc33707d6)
	c = gg(c, d, a, b, x3, 14, 0xf4d50d87)
	b = gg(b, c, d, a, x8, 20, 0x455a14ed)
	a = gg(a, b, c, d, x13, 5, 0xa9e3e905)
	d = gg(d, a, b, c, x2, 9, 0xfcefa3f8)
	c = gg(c, d, a, b, x7, 14, 0x676f02d9)
	b = gg(b, c, d, a, x12, 20, 0x8d2a4c8a)

	// Round 3.
	a = hh(a, b, c, d, x5, 4, 0xfffa3942)
	d = hh(d, a, b, c, x8, 11, 0x8771f681)
	c = hh(c, d, a, b, x11, 16, 0x6d9d6122)
	b = hh(b, c, d, a, x14, 23, 0xfde5380c)
	a = hh(a, b, c, d, x1, 4, 0xa4beea44)
	d = hh(d, a, b, c, x4, 11, 0x4bdecfa9)
	c = hh(c, d, a, b, x7, 16, 0xf6bb4b60)
	b = hh(b, c, d, a, x10, 23, 0xbebfbc70)
	a = hh(a, b, c, d, x13, 4, 0x289b7ec6)
	d = hh(d, a, b, c, x0, 11, 0xeaa127fa)
	c = hh(c, d, a, b, x3, 16, 0xd4ef3085)
	b = hh(b, c, d, a, x6, 23, 0x04881d05)
	a = hh(a, b, c, d, x9, 4, 0xd9d4d039)
	d = hh(d, a, b, c, x12, 11, 0xe6db99e5)
	c = hh(c, d, a, b, x15, 16, 0x1fa27cf8)
	b = hh(b, c, d, a, x2, 23, 0xc4ac5665)

	// Round 4.
	a = ii(a, b, c, d, x0, 6, 0xf4292244)
	d = ii(d, a, b, c, x7, 10, 0x432aff97)
	c = ii(c, d, a, b, x14, 15, 0xab9423a7)
	b = ii(b, c, d, a, x5, 21, 0xfc93a039)
	a = ii(a, b, c, d, x12, 6, 0x655b59c3)
	d = ii(d, a, b, c, x3, 10, 0x8f0ccc92)
	c = ii(c, d, a, b, x10, 15, 0xffeff47d)
	b = ii(b, c, d, a, x1, 21, 0x85845dd1)
	a = ii(a, b, c, d, x8, 6, 0x6fa87e4f)
	d = ii(d, a, b, c, x15, 10, 0xfe2ce6e0)
	c = ii(c, d, a, b, x6, 15, 0xa3014314)
	b = ii(b, c, d, a, x13, 21, 0x4e0811a1)
	a = ii(a, b, c, d, x4, 6, 0xf7537e82)
	d = ii(d, a, b, c, x11, 10, 0xbd3af235)
	c = ii(c, d, a, b, x2, 15, 0x2ad7d2bb)
	b = ii(b, c, d, a, x9, 21, 0xeb86d391)

	m.h[0] += a
	m.h[1] += b
	m.h[2] += c
	m.h[3] += d
}

// Sum appends the digest of everything written so far to b.  The state may
// continue to be written to afterwards (Sum operates on a copy).  When b
// has spare capacity the append does not allocate.
func (m *MD5) Sum(b []byte) []byte {
	out := m.sumArray()
	return append(b, out[:]...)
}

// sumArray finalizes a copy of the state into a value digest, keeping the
// one-shot and HMAC paths free of heap allocation.
func (m *MD5) sumArray() [MD5Size]byte {
	cp := *m
	// Padding is 0x80, zeros up to 56 mod 64, then the message length in
	// bits, all absorbed in one Write.
	var pad [MD5BlockSize + 8]byte
	pad[0] = 0x80
	n := 56 - cp.n
	if n <= 0 {
		n += MD5BlockSize
	}
	binary.LittleEndian.PutUint64(pad[n:], cp.len*8)
	cp.Write(pad[:n+8])
	var out [MD5Size]byte
	for i, v := range cp.h {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// MD5Sum is the one-shot convenience.  It allocates nothing.
func MD5Sum(data []byte) [MD5Size]byte {
	var m MD5
	m.Reset()
	m.Write(data)
	return m.sumArray()
}
