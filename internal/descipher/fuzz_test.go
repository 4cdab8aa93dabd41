package descipher

import (
	"bytes"
	"crypto/cipher"
	"crypto/des"
	"testing"

	"wisp/internal/blockmode"
)

// FuzzTripleDESCBC is the differential target for the 3DES host kernel:
// multi-block CBC through blockmode (the record layer's path) against
// crypto/des, with two- and three-key keys, encrypting out of place and
// in place, decrypting out of place through blockmode and in place
// through crypto/cipher's CBC driving this package's cipher.
func FuzzTripleDESCBC(f *testing.F) {
	f.Add([]byte("0123456789abcdefFEDCBA98"), []byte("iv-bytes"), []byte("eight by"))
	f.Add([]byte("0123456789abcdef"), []byte{}, bytes.Repeat([]byte{0xa5}, 1024))

	f.Fuzz(func(t *testing.T, key, iv, msg []byte) {
		switch {
		case len(key) >= 24:
			key = key[:24]
		case len(key) >= 16:
			key = key[:16]
		default:
			t.Skip("3DES needs a 16- or 24-byte key")
		}
		iv = append(iv, make([]byte, BlockSize)...)[:BlockSize]
		msg = msg[:len(msg)/BlockSize*BlockSize]

		ours, err := NewTripleCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := des.NewTripleDESCipher(append(append([]byte{}, key...), key[:24-len(key)]...))
		if err != nil {
			t.Fatal(err)
		}

		want := make([]byte, len(msg))
		cipher.NewCBCEncrypter(ref, iv).CryptBlocks(want, msg)
		got := make([]byte, len(msg))
		if err := blockmode.CBCEncrypt(ours, iv, got, msg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %x: CBC encrypt differs from crypto/des", key)
		}
		inPlace := append([]byte{}, msg...)
		if err := blockmode.CBCEncrypt(ours, iv, inPlace, inPlace); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(inPlace, want) {
			t.Fatalf("key %x: in-place CBC encrypt differs from crypto/des", key)
		}

		back := make([]byte, len(msg))
		if err := blockmode.CBCDecrypt(ours, iv, back, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, msg) {
			t.Fatalf("key %x: CBC decrypt does not invert crypto/des", key)
		}
		cipher.NewCBCDecrypter(ours, iv).CryptBlocks(inPlace, inPlace)
		if !bytes.Equal(inPlace, msg) {
			t.Fatalf("key %x: in-place CBC decrypt does not invert crypto/des", key)
		}
	})
}
