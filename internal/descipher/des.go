// Package descipher implements the Data Encryption Standard (FIPS 46-3)
// and Triple DES from scratch, including all permutation and substitution
// tables.
//
// This is the host kernel that serves SSL records, so it uses the
// table-fused form that optimized software DES uses rather than the
// specification's bit-level structure.  Each round is eight lookups into
// SP boxes (S-box output already run through P) indexed by rotations of
// the right half, with the round key split per S-box at key expansion.
// IP and FP are five delta swaps plus a byte swap instead of 64-step bit
// gathers, and Triple DES applies IP once and FP once around all 48
// rounds, since the inner FP∘IP pairs cancel.  The SP boxes are built at
// init from the FIPS S-boxes and P permutation, so no derived table is
// written out by hand.
//
// The wide bit permutations the host removes with lookup and word tricks
// are the operations that are expensive on a 32-bit RISC core and cheap
// as custom-instruction wiring; that is what gives the paper's 31× (DES)
// and 33.9× (3DES) speedups.  Those figures come from the xt32 assembly
// kernels in internal/kernels, which reuse this package's hardware-model
// hooks (IP, FP, Feistel, SPBox) so the modeled datapath and the host
// cipher compute the same functions.
package descipher

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// BlockSize is the DES block size in bytes.
const BlockSize = 8

// Bit-selection tables from FIPS 46-3.  Entries are 1-based bit positions
// in the conventional DES numbering (bit 1 = most significant).

// pPermutation (P): 32 → 32 bits after the S-boxes.
var pPermutation = [32]byte{
	16, 7, 20, 21, 29, 12, 28, 17,
	1, 15, 23, 26, 5, 18, 31, 10,
	2, 8, 24, 14, 32, 27, 3, 9,
	19, 13, 30, 6, 22, 11, 4, 25,
}

// permutedChoice1 (PC-1): 64 → 56 key bits.
var permutedChoice1 = [56]byte{
	57, 49, 41, 33, 25, 17, 9,
	1, 58, 50, 42, 34, 26, 18,
	10, 2, 59, 51, 43, 35, 27,
	19, 11, 3, 60, 52, 44, 36,
	63, 55, 47, 39, 31, 23, 15,
	7, 62, 54, 46, 38, 30, 22,
	14, 6, 61, 53, 45, 37, 29,
	21, 13, 5, 28, 20, 12, 4,
}

// permutedChoice2 (PC-2): 56 → 48 round-key bits.
var permutedChoice2 = [48]byte{
	14, 17, 11, 24, 1, 5,
	3, 28, 15, 6, 21, 10,
	23, 19, 12, 4, 26, 8,
	16, 7, 27, 20, 13, 2,
	41, 52, 31, 37, 47, 55,
	30, 40, 51, 45, 33, 48,
	44, 49, 39, 56, 34, 53,
	46, 42, 50, 36, 29, 32,
}

// keyShifts: left-rotation amounts per round for C and D halves.
var keyShifts = [16]byte{1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1}

// sBoxes: the eight DES substitution boxes, indexed [box][row][column].
var sBoxes = [8][4][16]byte{
	{ // S1
		{14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7},
		{0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8},
		{4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0},
		{15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13},
	},
	{ // S2
		{15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10},
		{3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5},
		{0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15},
		{13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9},
	},
	{ // S3
		{10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8},
		{13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1},
		{13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7},
		{1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12},
	},
	{ // S4
		{7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15},
		{13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9},
		{10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4},
		{3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14},
	},
	{ // S5
		{2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9},
		{14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6},
		{4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14},
		{11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3},
	},
	{ // S6
		{12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11},
		{10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8},
		{9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6},
		{4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13},
	},
	{ // S7
		{4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1},
		{13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6},
		{1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2},
		{6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12},
	},
	{ // S8
		{13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7},
		{1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2},
		{7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8},
		{2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11},
	},
}

// spBoxes holds, for each S-box and 6-bit input, SPBox rotated left one
// bit: the round works on halves kept rotated by one, which lines every
// S-box's E-expansion input up with a byte boundary (see roundKey).
var spBoxes [8][64]uint32

// pc2Tables[i][v] is the packed round key (a<<32 | b, see roundKey) of
// PC-2 applied to the 56-bit C|D word holding only the 7-bit group v at
// group position i, most significant first.  PC-2 and the per-S-box split
// only move bits, so key expansion ORs eight lookups instead of running a
// 48-step bit gather and a chunk split per round.
var pc2Tables [8][128]uint64

func init() {
	for box := range spBoxes {
		for v := range spBoxes[box] {
			spBoxes[box][v] = bits.RotateLeft32(SPBox(box, byte(v)), 1)
		}
	}
	for i := range pc2Tables {
		for v := range pc2Tables[i] {
			k := newRoundKey(permute(uint64(v)<<uint(49-7*i), 56, permutedChoice2[:]))
			pc2Tables[i][v] = uint64(k.a)<<32 | uint64(k.b)
		}
	}
}

// pc2RoundKey applies PC-2 to a 56-bit C|D word and splits the subkey per
// S-box.
func pc2RoundKey(cd uint64) roundKey {
	var k uint64
	for i := range pc2Tables {
		k |= pc2Tables[i][cd>>uint(49-7*i)&0x7f]
	}
	return roundKey{a: uint32(k >> 32), b: uint32(k)}
}

// roundKey is one 48-bit round subkey split into its eight 6-bit S-box
// chunks, packed to line up with the round's two views of the rotated
// right half u = R<<<1: a holds S8, S6, S4, S2 at bits 0, 8, 16, 24 (the
// inputs u itself presents there), b holds S7, S5, S3, S1 the same way
// for u>>>4.
type roundKey struct{ a, b uint32 }

func newRoundKey(subkey uint64) roundKey {
	c := RoundKeyChunks(subkey)
	return roundKey{
		a: uint32(c[7]) | uint32(c[5])<<8 | uint32(c[3])<<16 | uint32(c[1])<<24,
		b: uint32(c[6]) | uint32(c[4])<<8 | uint32(c[2])<<16 | uint32(c[0])<<24,
	}
}

// f is the DES round function on rotated halves: E expansion by
// rotation, key mixing, and the fused S-box and P lookups.  It returns
// f(R, K)<<<1 for u = R<<<1.  It is the only round implementation in the
// package.
func (k roundKey) f(u uint32) uint32 {
	t := u ^ k.a
	out := spBoxes[7][t&0x3f] ^ spBoxes[5][t>>8&0x3f] ^ spBoxes[3][t>>16&0x3f] ^ spBoxes[1][t>>24&0x3f]
	t = bits.RotateLeft32(u, -4) ^ k.b
	return out ^ spBoxes[6][t&0x3f] ^ spBoxes[4][t>>8&0x3f] ^ spBoxes[2][t>>16&0x3f] ^ spBoxes[0][t>>24&0x3f]
}

// schedule is the 16 round keys in encryption order.
type schedule [16]roundKey

// encRounds runs the 16-round Feistel network on rotated halves, two
// rounds per step so the halves never swap, and returns (L16, R16).
func (ks *schedule) encRounds(l, r uint32) (uint32, uint32) {
	for i := 0; i < 16; i += 2 {
		l ^= ks[i].f(r)
		r ^= ks[i+1].f(l)
	}
	return l, r
}

// decRounds is encRounds with the round keys taken in reverse order.
func (ks *schedule) decRounds(l, r uint32) (uint32, uint32) {
	for i := 15; i > 0; i -= 2 {
		l ^= ks[i].f(r)
		r ^= ks[i-1].f(l)
	}
	return l, r
}

// ipHalves applies IP to a block and splits it into the rotated halves
// the rounds work on.
func ipHalves(block uint64) (l, r uint32) {
	x := IP(block)
	return bits.RotateLeft32(uint32(x>>32), 1), bits.RotateLeft32(uint32(x), 1)
}

// fpHalves joins two rotated halves (left one first) and applies FP.
func fpHalves(l, r uint32) uint64 {
	return FP(uint64(bits.RotateLeft32(l, -1))<<32 | uint64(bits.RotateLeft32(r, -1)))
}

// deltaSwap exchanges the bits of x selected by mask with the bits shift
// places above them.
func deltaSwap(x, mask uint64, shift uint) uint64 {
	t := (x>>shift ^ x) & mask
	return x ^ t ^ t<<shift
}

// IP and FP permute bit positions by permuting the six bits of their
// index.  Counting positions from the least significant bit, IP sends
// input position p5..p0 to output position ¬p0 p2 p1 ¬p5 ¬p4 ¬p3.  The
// byte swap complements p5..p3, three delta swaps transpose the 8×8 bit
// matrix (exchanging index bits 0↔3, 1↔4, 2↔5), two more rotate the
// byte index, and swapping the 32-bit halves complements its top bit.
// FP undoes the same steps in reverse order.

// IP applies the initial permutation to a 64-bit block.
func IP(block uint64) uint64 {
	x := bits.ReverseBytes64(block)
	x = deltaSwap(x, 0x00aa00aa00aa00aa, 7)
	x = deltaSwap(x, 0x0000cccc0000cccc, 14)
	x = deltaSwap(x, 0x00000000f0f0f0f0, 28)
	x = deltaSwap(x, 0x0000ff000000ff00, 8)
	x = deltaSwap(x, 0x00000000ffff0000, 16)
	return bits.RotateLeft64(x, 32)
}

// FP applies the final permutation (IP⁻¹) to a 64-bit block.
func FP(block uint64) uint64 {
	x := bits.RotateLeft64(block, 32)
	x = deltaSwap(x, 0x00000000ffff0000, 16)
	x = deltaSwap(x, 0x0000ff000000ff00, 8)
	x = deltaSwap(x, 0x00000000f0f0f0f0, 28)
	x = deltaSwap(x, 0x0000cccc0000cccc, 14)
	x = deltaSwap(x, 0x00aa00aa00aa00aa, 7)
	return bits.ReverseBytes64(x)
}

// Cipher is a DES block cipher with an expanded key schedule.
type Cipher struct {
	ks schedule
}

// NewCipher expands an 8-byte key (parity bits ignored, per common
// practice) into the 16 round subkeys.
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != 8 {
		return nil, fmt.Errorf("descipher: key must be 8 bytes, got %d", len(key))
	}
	c := &Cipher{}
	c.expandKey(key)
	return c, nil
}

func (c *Cipher) expandKey(key []byte) {
	cd := permute(binary.BigEndian.Uint64(key), 64, permutedChoice1[:]) // 56 bits: C (28) | D (28)
	ch := uint32(cd >> 28 & 0x0FFFFFFF)
	dh := uint32(cd & 0x0FFFFFFF)
	for round := 0; round < 16; round++ {
		s := uint(keyShifts[round])
		ch = (ch<<s | ch>>(28-s)) & 0x0FFFFFFF
		dh = (dh<<s | dh>>(28-s)) & 0x0FFFFFFF
		c.ks[round] = pc2RoundKey(uint64(ch)<<28 | uint64(dh))
	}
}

// permute applies a 1-based bit-selection table to src (width source
// bits), producing len(table) output bits, MSB first.  Only PC-1 and
// table construction use it; the block path never does.
func permute(src uint64, srcBits int, table []byte) uint64 {
	var out uint64
	for _, pos := range table {
		out <<= 1
		out |= src >> uint(srcBits-int(pos)) & 1
	}
	return out
}

// Encrypt encrypts one 8-byte block (dst and src may overlap).  The
// rounds leave (L16, R16); the output block is FP(R16 L16).
func (c *Cipher) Encrypt(dst, src []byte) {
	checkBlock(dst, src)
	l, r := c.ks.encRounds(ipHalves(binary.BigEndian.Uint64(src)))
	binary.BigEndian.PutUint64(dst, fpHalves(r, l))
}

// Decrypt decrypts one 8-byte block.
func (c *Cipher) Decrypt(dst, src []byte) {
	checkBlock(dst, src)
	l, r := c.ks.decRounds(ipHalves(binary.BigEndian.Uint64(src)))
	binary.BigEndian.PutUint64(dst, fpHalves(r, l))
}

// BlockSize returns the cipher block size (8).
func (c *Cipher) BlockSize() int { return BlockSize }

func checkBlock(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("descipher: input not a full block")
	}
}

// TripleCipher is EDE Triple DES.  It accepts 16-byte (two-key, K1 K2 K1)
// or 24-byte (three-key) keys.
type TripleCipher struct {
	c [3]Cipher
}

// NewTripleCipher builds a 3DES cipher from a 16- or 24-byte key.
func NewTripleCipher(key []byte) (*TripleCipher, error) {
	t := &TripleCipher{}
	switch len(key) {
	case 16:
		t.c[0].expandKey(key[0:8])
		t.c[1].expandKey(key[8:16])
		t.c[2] = t.c[0]
	case 24:
		t.c[0].expandKey(key[0:8])
		t.c[1].expandKey(key[8:16])
		t.c[2].expandKey(key[16:24])
	default:
		return nil, fmt.Errorf("descipher: 3DES key must be 16 or 24 bytes, got %d", len(key))
	}
	return t, nil
}

// Encrypt performs EDE encryption of one block.  Each pass ends by
// swapping the halves into FP and the next begins with IP, so between
// passes only the swap survives: the middle pass takes (R, L) and its
// output lands back in (l, r) order for the third.
func (t *TripleCipher) Encrypt(dst, src []byte) {
	checkBlock(dst, src)
	l, r := ipHalves(binary.BigEndian.Uint64(src))
	l, r = t.c[0].ks.encRounds(l, r)
	r, l = t.c[1].ks.decRounds(r, l)
	l, r = t.c[2].ks.encRounds(l, r)
	binary.BigEndian.PutUint64(dst, fpHalves(r, l))
}

// Decrypt performs DED decryption of one block.
func (t *TripleCipher) Decrypt(dst, src []byte) {
	checkBlock(dst, src)
	l, r := ipHalves(binary.BigEndian.Uint64(src))
	l, r = t.c[2].ks.decRounds(l, r)
	r, l = t.c[1].ks.encRounds(r, l)
	l, r = t.c[0].ks.decRounds(l, r)
	binary.BigEndian.PutUint64(dst, fpHalves(r, l))
}

// BlockSize returns the cipher block size (8).
func (t *TripleCipher) BlockSize() int { return BlockSize }
