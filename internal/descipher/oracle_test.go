package descipher

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

// The bit-level reference: the FIPS 46-3 structure written out as table
// bit gathers, one output bit per step.  It is the oracle the fused host
// kernel and the hardware-model hooks are checked against.

// initialPermutation (IP).
var initialPermutation = [64]byte{
	58, 50, 42, 34, 26, 18, 10, 2,
	60, 52, 44, 36, 28, 20, 12, 4,
	62, 54, 46, 38, 30, 22, 14, 6,
	64, 56, 48, 40, 32, 24, 16, 8,
	57, 49, 41, 33, 25, 17, 9, 1,
	59, 51, 43, 35, 27, 19, 11, 3,
	61, 53, 45, 37, 29, 21, 13, 5,
	63, 55, 47, 39, 31, 23, 15, 7,
}

// finalPermutation (IP⁻¹).
var finalPermutation = [64]byte{
	40, 8, 48, 16, 56, 24, 64, 32,
	39, 7, 47, 15, 55, 23, 63, 31,
	38, 6, 46, 14, 54, 22, 62, 30,
	37, 5, 45, 13, 53, 21, 61, 29,
	36, 4, 44, 12, 52, 20, 60, 28,
	35, 3, 43, 11, 51, 19, 59, 27,
	34, 2, 42, 10, 50, 18, 58, 26,
	33, 1, 41, 9, 49, 17, 57, 25,
}

// expansion (E): 32 → 48 bits.
var expansion = [48]byte{
	32, 1, 2, 3, 4, 5,
	4, 5, 6, 7, 8, 9,
	8, 9, 10, 11, 12, 13,
	12, 13, 14, 15, 16, 17,
	16, 17, 18, 19, 20, 21,
	20, 21, 22, 23, 24, 25,
	24, 25, 26, 27, 28, 29,
	28, 29, 30, 31, 32, 1,
}

// oracleFeistel is the DES round function step by step: expand the
// 32-bit half, mix the 48-bit subkey, substitute through the eight
// S-boxes, and permute.
func oracleFeistel(r uint32, subkey uint64) uint32 {
	x := permute(uint64(r), 32, expansion[:]) ^ subkey
	var out uint32
	for box := 0; box < 8; box++ {
		six := byte(x >> uint(42-6*box) & 0x3F)
		row := (six&0x20)>>4 | six&1
		col := six >> 1 & 0xF
		out = out<<4 | uint32(sBoxes[box][row][col])
	}
	return uint32(permute(uint64(out), 32, pPermutation[:]))
}

// oracleCrypt runs one bit-level DES pass over the given subkeys.
func oracleCrypt(block uint64, subkeys [16]uint64, decrypt bool) uint64 {
	x := permute(block, 64, initialPermutation[:])
	l, r := uint32(x>>32), uint32(x)
	for round := 0; round < 16; round++ {
		k := subkeys[round]
		if decrypt {
			k = subkeys[15-round]
		}
		l, r = r, l^oracleFeistel(r, k)
	}
	return permute(uint64(r)<<32|uint64(l), 64, finalPermutation[:])
}

// TestHooksMatchOracle checks the fused round, IP and FP — the functions
// the xt32 TIE semantics call — against the bit-level oracle on random
// inputs and on every single-bit input.
func TestHooksMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	check := func(x uint64, k uint64) {
		t.Helper()
		if got, want := IP(x), permute(x, 64, initialPermutation[:]); got != want {
			t.Fatalf("IP(%#x) = %#x, oracle %#x", x, got, want)
		}
		if got, want := FP(x), permute(x, 64, finalPermutation[:]); got != want {
			t.Fatalf("FP(%#x) = %#x, oracle %#x", x, got, want)
		}
		r := uint32(x)
		if got, want := Feistel(r, k), oracleFeistel(r, k); got != want {
			t.Fatalf("Feistel(%#x, %#x) = %#x, oracle %#x", r, k, got, want)
		}
	}
	for i := 0; i < 64; i++ {
		check(1<<i, 1<<(i%48))
	}
	for i := 0; i < 20000; i++ {
		check(rng.Uint64(), rng.Uint64()&(1<<48-1))
	}
}

// TestERotations checks the rotation identity the fused round and the
// base xt32 kernel compute E with.
func TestERotations(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	rots := ERotations()
	for i := 0; i < 1000; i++ {
		r := rng.Uint32()
		e := permute(uint64(r), 32, expansion[:])
		for box, s := range rots {
			if got, want := bits.RotateLeft32(r, -int(s))&0x3f, uint32(e>>uint(42-6*box)&0x3f); got != want {
				t.Fatalf("box %d: (R>>>%d)&0x3f = %#x, E gives %#x", box, s, got, want)
			}
		}
	}
}

// TestCipherMatchesOracle runs whole DES passes through both the fused
// kernel and the bit-level oracle with the same key schedule.
func TestCipherMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	key := make([]byte, 8)
	for i := 0; i < 200; i++ {
		rng.Read(key)
		c, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		x := rng.Uint64()
		var blk, out [8]byte
		binary.BigEndian.PutUint64(blk[:], x)
		c.Encrypt(out[:], blk[:])
		if got, want := binary.BigEndian.Uint64(out[:]), oracleCrypt(x, c.Subkeys(), false); got != want {
			t.Fatalf("key %x: encrypt %#x = %#x, oracle %#x", key, x, got, want)
		}
		c.Decrypt(out[:], blk[:])
		if got, want := binary.BigEndian.Uint64(out[:]), oracleCrypt(x, c.Subkeys(), true); got != want {
			t.Fatalf("key %x: decrypt %#x = %#x, oracle %#x", key, x, got, want)
		}
	}
}
