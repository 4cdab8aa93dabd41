// Command benchprims is the host-primitive speed gate.  It times the
// record path's from-scratch kernels — 3DES-CBC, MD5, SHA-1 and HMAC-MD5
// — beside their crypto/* twins in the same process on the same 1 KB
// records, and exits nonzero when a kernel's median speed relative to
// its twin falls below that primitive's floor.
//
// Relative speed is twin time / kernel time, so 1.0 is parity and 0.5
// means the kernel takes twice as long.  Each trial times the kernel and
// the twin back to back, alternating which goes first, so host-speed
// drift during the run lands on both sides alike; the gate reads the
// median of the per-trial ratios and prints the quartiles beside it.
// Before timing, every kernel's output is checked against its twin.
// The floors were set at 31 trials; the count is fixed so the gate is
// always read against the statistic it was calibrated on.
package main

import (
	"bytes"
	"crypto/cipher"
	"crypto/des"
	"crypto/hmac"
	"crypto/md5"
	"crypto/sha1"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"wisp/internal/blockmode"
	"wisp/internal/descipher"
	"wisp/internal/hashes"
)

// recordSize is the SSL record layer's unit of work.
const recordSize = 1024

// trials is the number of interleaved kernel/twin trials per primitive.
const trials = 31

// sink keeps the timed digests live so the compiler cannot drop them.
var sink byte

// prim is one kernel and its standard-library twin.  Both run over every
// record once per call.
type prim struct {
	name   string
	floor  float64 // minimum median relative speed
	kb     int     // record bytes per timed call, in KB
	kernel func(recs [][]byte)
	twin   func(recs [][]byte)
	// check returns an error when the kernel's output differs from the
	// twin's on recs.
	check func(recs [][]byte) error
}

func main() {
	fmt.Println(hostFingerprint())
	failed := false
	for _, p := range prims() {
		recs := records(p.kb)
		if err := p.check(recs); err != nil {
			fmt.Printf("%-9s FAIL  output check: %v\n", p.name, err)
			failed = true
			continue
		}
		ratios := measure(p, recs)
		q1, med, q3 := quartiles(ratios)
		verdict := "ok"
		if med < p.floor {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("%-9s %-4s  speed vs crypto/* median %.3f (IQR %.3f-%.3f, %d trials), floor %.2f\n",
			p.name, verdict, med, q1, q3, len(ratios), p.floor)
	}
	if failed {
		os.Exit(1)
	}
}

// measure runs the interleaved trials and returns the per-trial ratios
// twin time / kernel time.  One untimed call of each side warms caches
// and tables first.
func measure(p prim, recs [][]byte) []float64 {
	p.kernel(recs)
	p.twin(recs)
	ratios := make([]float64, trials)
	for i := range ratios {
		var k, t time.Duration
		if i%2 == 0 {
			k, t = timed(p.kernel, recs), timed(p.twin, recs)
		} else {
			t, k = timed(p.twin, recs), timed(p.kernel, recs)
		}
		ratios[i] = float64(t) / float64(k)
	}
	return ratios
}

func timed(fn func([][]byte), recs [][]byte) time.Duration {
	start := time.Now()
	fn(recs)
	return time.Since(start)
}

// quartiles returns the lower quartile, median and upper quartile of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(f float64) float64 {
		pos := f * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// records returns kb pseudo-random 1 KB records (fixed seed).
func records(kb int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	recs := make([][]byte, kb)
	for i := range recs {
		recs[i] = make([]byte, recordSize)
		rng.Read(recs[i])
	}
	return recs
}

func prims() []prim {
	key := []byte("0123456789abcdefFEDCBA98")
	iv := key[:descipher.BlockSize]
	ours, err := descipher.NewTripleCipher(key)
	if err != nil {
		panic(err)
	}
	std, err := des.NewTripleDESCipher(key)
	if err != nil {
		panic(err)
	}
	ct := make([]byte, recordSize)
	pt := make([]byte, recordSize)
	// CBC encrypts each record and decrypts the result, out of place as
	// the record layer does.
	cbc := func(recs [][]byte) {
		for _, r := range recs {
			_ = blockmode.CBCEncrypt(ours, iv, ct, r) // records are whole blocks
			_ = blockmode.CBCDecrypt(ours, iv, pt, ct)
		}
	}
	stdCBC := func(recs [][]byte) {
		for _, r := range recs {
			cipher.NewCBCEncrypter(std, iv).CryptBlocks(ct, r)
			cipher.NewCBCDecrypter(std, iv).CryptBlocks(pt, ct)
		}
	}

	macKey := key[:16]
	ourMAC := hashes.NewHMAC(func() hashes.Hash { return hashes.NewMD5() }, macKey)
	stdMAC := hmac.New(md5.New, macKey)
	mac := make([]byte, 0, md5.Size)
	hmacOf := func(h interface {
		Reset()
		Write([]byte) (int, error)
		Sum([]byte) []byte
	}, r []byte) []byte {
		h.Reset()
		h.Write(r)
		mac = h.Sum(mac[:0])
		return mac
	}

	return []prim{
		{
			name: "3des-cbc", floor: 0.60, kb: 64,
			kernel: cbc, twin: stdCBC,
			check: func(recs [][]byte) error {
				want := make([]byte, recordSize)
				for _, r := range recs {
					cipher.NewCBCEncrypter(std, iv).CryptBlocks(want, r)
					cbc([][]byte{r})
					if !bytes.Equal(ct, want) || !bytes.Equal(pt, r) {
						return fmt.Errorf("CBC round trip differs from crypto/des")
					}
				}
				return nil
			},
		},
		{
			name: "md5", floor: 0.45, kb: 2048,
			kernel: func(recs [][]byte) {
				for _, r := range recs {
					sink ^= hashes.MD5Sum(r)[0]
				}
			},
			twin: func(recs [][]byte) {
				for _, r := range recs {
					sink ^= md5.Sum(r)[0]
				}
			},
			check: func(recs [][]byte) error {
				for _, r := range recs {
					if hashes.MD5Sum(r) != md5.Sum(r) {
						return fmt.Errorf("digest differs from crypto/md5")
					}
				}
				return nil
			},
		},
		{
			name: "sha1", floor: 0.36, kb: 2048,
			kernel: func(recs [][]byte) {
				for _, r := range recs {
					sink ^= hashes.SHA1Sum(r)[0]
				}
			},
			twin: func(recs [][]byte) {
				for _, r := range recs {
					sink ^= sha1.Sum(r)[0]
				}
			},
			check: func(recs [][]byte) error {
				for _, r := range recs {
					if hashes.SHA1Sum(r) != sha1.Sum(r) {
						return fmt.Errorf("digest differs from crypto/sha1")
					}
				}
				return nil
			},
		},
		{
			name: "hmac-md5", floor: 0.42, kb: 2048,
			kernel: func(recs [][]byte) {
				for _, r := range recs {
					hmacOf(ourMAC, r)
				}
			},
			twin: func(recs [][]byte) {
				for _, r := range recs {
					hmacOf(stdMAC, r)
				}
			},
			check: func(recs [][]byte) error {
				for _, r := range recs {
					got := append([]byte(nil), hmacOf(ourMAC, r)...)
					if !bytes.Equal(got, hmacOf(stdMAC, r)) {
						return fmt.Errorf("MAC differs from crypto/hmac")
					}
				}
				return nil
			},
		},
	}
}

// hostFingerprint names what the ratios were measured on.
func hostFingerprint() string {
	cpu := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("host: %s, %d CPUs, GOMAXPROCS %d, %s %s/%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
