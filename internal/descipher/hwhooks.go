package descipher

import "math/bits"

// Hardware-model hooks: the TIE custom-instruction semantics in
// internal/kernels model DES datapath hardware (IP/FP wiring, the combined
// E ⊕ K → S-boxes → P round function) and reuse this package's cipher
// logic so the "hardware" and the software library can never diverge.
// IP and FP themselves live in des.go beside the block path that uses them.

// Feistel exposes the round function f(R, K) for the hardware model.  It
// runs the same fused round as the block path, undoing the one-bit
// rotation the block path keeps its halves in.
func Feistel(r uint32, subkey uint64) uint32 {
	return bits.RotateLeft32(newRoundKey(subkey).f(bits.RotateLeft32(r, 1)), -1)
}

// Subkeys returns the 16 expanded 48-bit round subkeys, reassembled from
// the per-S-box chunks the block path keeps.
func (c *Cipher) Subkeys() [16]uint64 {
	var out [16]uint64
	for i, k := range c.ks {
		for box := 0; box < 8; box++ {
			word, shift := k.a, 24-8*(box/2)
			if box%2 == 0 {
				word = k.b
			}
			out[i] |= uint64(word>>uint(shift)&0x3f) << uint(42-6*box)
		}
	}
	return out
}

// Ciphers returns the three single-DES stages of a triple cipher, in EDE
// application order.
func (t *TripleCipher) Ciphers() (c1, c2, c3 *Cipher) { return &t.c[0], &t.c[1], &t.c[2] }

// SPBox returns the combined S-then-P contribution of S-box `box` for a
// 6-bit input: P(S_box(v) << 4*(7-box)).  Optimized software DES uses these
// eight 64-entry tables to fuse substitution and permutation; the block
// path's tables are built from it at init.
func SPBox(box int, v byte) uint32 {
	s := sBoxes[box][(v&0x20)>>4|v&1][v>>1&0xF]
	return uint32(permute(uint64(s)<<uint(4*(7-box)), 32, pPermutation[:]))
}

// RoundKeyChunks splits a 48-bit subkey into eight 6-bit chunks, one per
// S-box, in S1..S8 order (each chunk's bit 5 is the S-box's b1).
func RoundKeyChunks(subkey uint64) [8]byte {
	var out [8]byte
	for i := 0; i < 8; i++ {
		out[i] = byte(subkey >> uint(42-6*i) & 0x3F)
	}
	return out
}

// ERotations returns, for each S-box i, the rotate-right amount s such that
// (R >>> s) & 0x3F equals the 6 E-expansion bits feeding that S-box.  This
// is the identity that lets software compute E with a rotate instead of a
// bit-gather: box i consumes DES bits 4i-4 .. 4i+1 of R (1-based circular).
func ERotations() [8]uint {
	var out [8]uint
	for i := 0; i < 8; i++ {
		j0 := 4 * i // first DES bit of the group, 0 ≡ bit 32
		out[i] = uint((27 - j0 + 32) % 32)
	}
	return out
}
