package descipher

import (
	"testing"

	"wisp/internal/blockmode"
)

var benchKey = []byte("0123456789abcdefFEDCBA98")

// BenchmarkTripleDESCBC encrypts and decrypts one 1 KB record in CBC out
// of place through blockmode, as the record layer does.  cmd/benchprims
// times the same work beside crypto/des.
func BenchmarkTripleDESCBC(b *testing.B) {
	c, err := NewTripleCipher(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	pt := make([]byte, 1024)
	ct := make([]byte, len(pt))
	iv := make([]byte, BlockSize)
	b.SetBytes(int64(len(pt)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := blockmode.CBCEncrypt(c, iv, ct, pt); err != nil {
			b.Fatal(err)
		}
		if err := blockmode.CBCDecrypt(c, iv, pt, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewTripleCipher is key expansion for one 3DES key, paid twice
// per SSL handshake (one session per direction).
func BenchmarkNewTripleCipher(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewTripleCipher(benchKey); err != nil {
			b.Fatal(err)
		}
	}
}
