package hashes

import (
	"bytes"
	"crypto/hmac"
	stdmd5 "crypto/md5"
	stdsha1 "crypto/sha1"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMD5Vectors(t *testing.T) {
	// RFC 1321 appendix A.5 test suite.
	cases := map[string]string{
		"":                           "d41d8cd98f00b204e9800998ecf8427e",
		"a":                          "0cc175b9c0f1b6a831c399e269772661",
		"abc":                        "900150983cd24fb0d6963f7d28e17f72",
		"message digest":             "f96b697d7cb7938d525a2f31aaf161d0",
		"abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
		"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789":                   "d174ab98d277d9f5a5611c2c9f419d9f",
		"12345678901234567890123456789012345678901234567890123456789012345678901234567890": "57edf4a22be3c955ac49da2e2107b67a",
	}
	for in, want := range cases {
		got := MD5Sum([]byte(in))
		if hex.EncodeToString(got[:]) != want {
			t.Errorf("MD5(%q) = %x, want %s", in, got, want)
		}
	}
}

func TestSHA1Vectors(t *testing.T) {
	cases := map[string]string{
		"":    "da39a3ee5e6b4b0d3255bfef95601890afd80709",
		"abc": "a9993e364706816aba3e25717850c26c9cd0d89d",
		"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq": "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
		"The quick brown fox jumps over the lazy dog":              "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
	}
	for in, want := range cases {
		got := SHA1Sum([]byte(in))
		if hex.EncodeToString(got[:]) != want {
			t.Errorf("SHA1(%q) = %x, want %s", in, got, want)
		}
	}
}

func TestAgainstStdlibRandom(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(300)
		msg := make([]byte, n)
		r.Read(msg)
		gotMD5 := MD5Sum(msg)
		wantMD5 := stdmd5.Sum(msg)
		if gotMD5 != wantMD5 {
			t.Fatalf("MD5 mismatch at len %d", n)
		}
		gotSHA := SHA1Sum(msg)
		wantSHA := stdsha1.Sum(msg)
		if gotSHA != wantSHA {
			t.Fatalf("SHA1 mismatch at len %d", n)
		}
	}
}

func TestIncrementalWriteEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	f := func() bool {
		n := r.Intn(500)
		msg := make([]byte, n)
		r.Read(msg)
		// Write in random-sized chunks and compare with one-shot.
		m := NewMD5()
		s := NewSHA1()
		for rest := msg; len(rest) > 0; {
			k := 1 + r.Intn(len(rest))
			m.Write(rest[:k])
			s.Write(rest[:k])
			rest = rest[k:]
		}
		oneMD5 := MD5Sum(msg)
		oneSHA := SHA1Sum(msg)
		return bytes.Equal(m.Sum(nil), oneMD5[:]) && bytes.Equal(s.Sum(nil), oneSHA[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSumIsNonDestructive(t *testing.T) {
	m := NewMD5()
	m.Write([]byte("hello "))
	first := m.Sum(nil)
	second := m.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Error("repeated Sum differs")
	}
	m.Write([]byte("world"))
	full := m.Sum(nil)
	one := MD5Sum([]byte("hello world"))
	if !bytes.Equal(full, one[:]) {
		t.Error("Write after Sum broken")
	}
}

func TestReset(t *testing.T) {
	s := NewSHA1()
	s.Write([]byte("garbage"))
	s.Reset()
	s.Write([]byte("abc"))
	want := SHA1Sum([]byte("abc"))
	if !bytes.Equal(s.Sum(nil), want[:]) {
		t.Error("Reset did not restore initial state")
	}
}

func TestHMACVectors(t *testing.T) {
	// RFC 2202 test cases.
	key := bytes.Repeat([]byte{0x0b}, 16)
	got := HMACMD5(key, []byte("Hi There"))
	if hex.EncodeToString(got) != "9294727a3638bb1c13f48ef8158bfc9d" {
		t.Errorf("HMAC-MD5 case 1 = %x", got)
	}
	got = HMACMD5([]byte("Jefe"), []byte("what do ya want for nothing?"))
	if hex.EncodeToString(got) != "750c783e6ab0b503eaa86e310a5db738" {
		t.Errorf("HMAC-MD5 case 2 = %x", got)
	}
	key20 := bytes.Repeat([]byte{0x0b}, 20)
	got = HMACSHA1(key20, []byte("Hi There"))
	if hex.EncodeToString(got) != "b617318655057264e28bc0b6fb378c8ef146be00" {
		t.Errorf("HMAC-SHA1 case 1 = %x", got)
	}
}

func TestHMACAgainstStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for trial := 0; trial < 50; trial++ {
		key := make([]byte, r.Intn(100))
		msg := make([]byte, r.Intn(200))
		r.Read(key)
		r.Read(msg)
		refMD5 := hmac.New(stdmd5.New, key)
		refMD5.Write(msg)
		if got := HMACMD5(key, msg); !bytes.Equal(got, refMD5.Sum(nil)) {
			t.Fatalf("HMAC-MD5 mismatch keyLen=%d msgLen=%d", len(key), len(msg))
		}
		refSHA := hmac.New(stdsha1.New, key)
		refSHA.Write(msg)
		if got := HMACSHA1(key, msg); !bytes.Equal(got, refSHA.Sum(nil)) {
			t.Fatalf("HMAC-SHA1 mismatch keyLen=%d msgLen=%d", len(key), len(msg))
		}
	}
}

func TestHMACResetAndIncremental(t *testing.T) {
	key := []byte("secret key")
	h := NewHMAC(func() Hash { return NewSHA1() }, key)
	h.Write([]byte("part one "))
	h.Write([]byte("part two"))
	got := h.Sum(nil)
	want := HMACSHA1(key, []byte("part one part two"))
	if !bytes.Equal(got, want) {
		t.Error("incremental HMAC differs from one-shot")
	}
	h.Reset()
	h.Write([]byte("another message"))
	got = h.Sum(nil)
	want = HMACSHA1(key, []byte("another message"))
	if !bytes.Equal(got, want) {
		t.Error("HMAC Reset broken")
	}
	if h.Size() != SHA1Size || h.BlockSize() != SHA1BlockSize {
		t.Error("HMAC size/blocksize wrong")
	}
}

func TestHMACLongKey(t *testing.T) {
	// Keys longer than the block size are hashed first (RFC 2202 case 6).
	key := bytes.Repeat([]byte{0xaa}, 80)
	got := HMACSHA1(key, []byte("Test Using Larger Than Block-Size Key - Hash Key First"))
	if hex.EncodeToString(got) != "aa4ae5e15272d00e95705637ce8a3b55ed402112" {
		t.Errorf("HMAC-SHA1 long key = %x", got)
	}
}

// TestPaddingBoundaries checks every message length across the one- and
// two-block padding boundaries (55, 56, 63, 64, ... bytes) against the
// standard library, since finalization writes its padding in one piece.
func TestPaddingBoundaries(t *testing.T) {
	msg := make([]byte, 200)
	rand.New(rand.NewSource(63)).Read(msg)
	for n := 0; n <= len(msg); n++ {
		if MD5Sum(msg[:n]) != stdmd5.Sum(msg[:n]) {
			t.Fatalf("MD5 mismatch at len %d", n)
		}
		if SHA1Sum(msg[:n]) != stdsha1.Sum(msg[:n]) {
			t.Fatalf("SHA1 mismatch at len %d", n)
		}
	}
}

// TestDigestsDoNotAllocate holds the record path's digests and keyed MAC
// to zero allocations per message.
func TestDigestsDoNotAllocate(t *testing.T) {
	msg := make([]byte, 1024)
	mac := NewHMAC(func() Hash { return NewMD5() }, []byte("record mac key"))
	out := make([]byte, 0, MD5Size)
	allocs := testing.AllocsPerRun(50, func() {
		MD5Sum(msg)
		SHA1Sum(msg)
		mac.Reset()
		mac.Write(msg)
		out = mac.Sum(out[:0])
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per MD5 + SHA-1 + HMAC-MD5, want 0", allocs)
	}
}
