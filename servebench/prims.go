package main

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/des"
	"crypto/hmac"
	"crypto/md5"
	crand "crypto/rand"
	"crypto/rsa"
	"crypto/sha1"
	"fmt"
	"hash"
	"math/big"
	"math/rand"
	"sort"
	"time"

	"wisp/internal/aescipher"
	"wisp/internal/blockmode"
	"wisp/internal/descipher"
	"wisp/internal/hashes"
	"wisp/internal/mpz"
	"wisp/internal/rsakey"
	"wisp/internal/ssl"
)

const (
	// primBytes is how much of the workload's payload stream each
	// symmetric primitive is timed over, per repetition.
	primBytes = 64 << 10
	// primReps repetitions; the median repetition is reported.
	primReps = 5
	// rsaOps is how many private-key operations each RSA figure is the
	// median of.
	rsaOps = 16
	// recordSize is wispd's default SSL record size.
	recordSize = 1024
)

type primResult struct {
	metrics  metricList
	mismatch error
}

// measurePrims times each primitive the serving path uses on this
// workload's own payloads, beside its standard-library twin on the same
// bytes in the same process.  The twins also check the outputs.
func measurePrims(in *inputs, key *rsakey.PrivateKey, std *rsa.PrivateKey) (*primResult, error) {
	res := &primResult{}
	mismatch := func(err error) {
		if res.mismatch == nil {
			res.mismatch = err
		}
	}
	var payloads [][]byte
	total := 0
	for _, it := range in.open {
		if total >= primBytes {
			break
		}
		payloads = append(payloads, it.req.Payload)
		total += len(it.req.Payload)
	}
	kb := float64(total) / 1024
	m := &res.metrics

	// perKB times fn over every payload, primReps times, in µs per KB.
	perKB := func(fn func(p []byte)) float64 {
		return medianOf(primReps, func() {
			for _, p := range payloads {
				fn(p)
			}
		}) / kb
	}
	pair := func(name string, repo, std func(p []byte)) {
		r, s := perKB(repo), perKB(std)
		m.add(name+"_us_per_kb", "us/KB", r)
		m.add(name+"_x_stdlib", "ratio", ratio(r, s))
	}

	keys := rand.New(rand.NewSource(7))
	desKey, aesKey, iv := make([]byte, 24), make([]byte, 16), make([]byte, 16)
	keys.Read(desKey)
	keys.Read(aesKey)
	keys.Read(iv)

	// CBC round trips: the repo's cipher must produce the standard
	// library's ciphertext, then decrypt it back.
	cbc := func(name string, blk blockmode.Block, std cipher.Block, bs int) {
		iv := iv[:bs]
		for _, p := range payloads {
			padded := blockmode.Pad(p, bs)
			ct := make([]byte, len(padded))
			if err := blockmode.CBCEncrypt(blk, iv, ct, padded); err != nil {
				mismatch(fmt.Errorf("%s: %w", name, err))
				return
			}
			want := make([]byte, len(padded))
			cipher.NewCBCEncrypter(std, iv).CryptBlocks(want, padded)
			if !bytes.Equal(ct, want) {
				mismatch(fmt.Errorf("%s: CBC ciphertext differs from the standard library's", name))
				return
			}
		}
		pair(name, func(p []byte) {
			padded := blockmode.Pad(p, bs)
			ct := make([]byte, len(padded))
			_ = blockmode.CBCEncrypt(blk, iv, ct, padded) // lengths are block-aligned by Pad
			_ = blockmode.CBCDecrypt(blk, iv, ct, ct)
		}, func(p []byte) {
			padded := blockmode.Pad(p, bs)
			ct := make([]byte, len(padded))
			cipher.NewCBCEncrypter(std, iv).CryptBlocks(ct, padded)
			cipher.NewCBCDecrypter(std, iv).CryptBlocks(ct, ct)
		})
	}
	des3, err := descipher.NewTripleCipher(desKey)
	if err != nil {
		return nil, err
	}
	stdDES, err := des.NewTripleDESCipher(desKey)
	if err != nil {
		return nil, err
	}
	cbc("descipher.cbc", des3, stdDES, descipher.BlockSize)
	aesC, err := aescipher.NewCipher(aesKey)
	if err != nil {
		return nil, err
	}
	stdAES, err := aes.NewCipher(aesKey)
	if err != nil {
		return nil, err
	}
	cbc("aescipher.cbc", aesC, stdAES, aescipher.BlockSize)

	for _, p := range payloads {
		if hashes.MD5Sum(p) != md5.Sum(p) {
			mismatch(fmt.Errorf("hashes.MD5Sum differs from crypto/md5 on %d bytes", len(p)))
		}
		if hashes.SHA1Sum(p) != sha1.Sum(p) {
			mismatch(fmt.Errorf("hashes.SHA1Sum differs from crypto/sha1 on %d bytes", len(p)))
		}
		if !hmac.Equal(hashes.HMACMD5(in.hmacKey, p), stdHMAC(md5.New, in.hmacKey, p)) {
			mismatch(fmt.Errorf("hashes.HMACMD5 differs from crypto/hmac on %d bytes", len(p)))
		}
		if !hmac.Equal(hashes.HMACSHA1(in.hmacKey, p), stdHMAC(sha1.New, in.hmacKey, p)) {
			mismatch(fmt.Errorf("hashes.HMACSHA1 differs from crypto/hmac on %d bytes", len(p)))
		}
	}
	pair("hashes.md5", func(p []byte) { hashes.MD5Sum(p) }, func(p []byte) { md5.Sum(p) })
	pair("hashes.sha1", func(p []byte) { hashes.SHA1Sum(p) }, func(p []byte) { sha1.Sum(p) })
	pair("hashes.hmac_md5", func(p []byte) { hashes.HMACMD5(in.hmacKey, p) },
		func(p []byte) { stdHMAC(md5.New, in.hmacKey, p) })
	pair("hashes.hmac_sha1", func(p []byte) { hashes.HMACSHA1(in.hmacKey, p) },
		func(p []byte) { stdHMAC(sha1.New, in.hmacKey, p) })

	// The record layer and RSA run on the daemon's gateway key.
	rng := rand.New(rand.NewSource(11))
	sc := ssl.NewSessionCache(4096, 10*time.Minute)
	var cs *ssl.ClientSession
	var hsErr error
	hs := medianEach(rsaOps, func() {
		cli, srv, next, err := ssl.HandshakePair(rng, key, sc)
		if err != nil {
			hsErr = err
			return
		}
		cli.Close()
		srv.Close()
		cs = next
	})
	if hsErr != nil {
		return nil, fmt.Errorf("ssl.HandshakePair: %w", hsErr)
	}
	m.add("ssl.handshake_us", "us", hs)
	var resumed int
	rs := medianEach(rsaOps, func() {
		cli, srv, next, err := ssl.ResumePair(rng, key, sc, cs)
		if err != nil {
			hsErr = err
			return
		}
		if cli.Resumed {
			resumed++
		}
		cli.Close()
		srv.Close()
		cs = next
	})
	if hsErr != nil {
		return nil, fmt.Errorf("ssl.ResumePair: %w", hsErr)
	}
	if resumed != rsaOps {
		mismatch(fmt.Errorf("ssl.ResumePair resumed %d of %d offered sessions", resumed, rsaOps))
	}
	m.add("ssl.resume_us", "us", rs)

	cli, srv, _, err := ssl.HandshakePair(rng, key, nil)
	if err != nil {
		return nil, fmt.Errorf("ssl.HandshakePair: %w", err)
	}
	defer cli.Close()
	defer srv.Close()
	var recErr error
	m.add("ssl.record_us_per_kb", "us/KB", perKB(func(p []byte) {
		for off := 0; off < len(p); off += recordSize {
			chunk := p[off:min(off+recordSize, len(p))]
			rec, err := cli.Seal(chunk)
			if err == nil {
				var got []byte
				if got, err = srv.Open(rec); err == nil && !bytes.Equal(got, chunk) {
					err = fmt.Errorf("record round trip corrupted %d bytes", len(chunk))
				}
			}
			if err != nil && recErr == nil {
				recErr = err
			}
		}
	}))
	if recErr != nil {
		mismatch(fmt.Errorf("ssl record layer: %w", recErr))
	}

	// RSA: ciphertexts wrapped by the repo, unwrapped by the repo scalar,
	// batched four-wide, and by crypto/rsa with the same key.
	eng := rsakey.DefaultEngine(mpz.NewCtx(nil), 0, 0)
	cts := make([][]byte, rsaOps)
	msgs := make([][]byte, rsaOps)
	for i := range cts {
		sum := md5.Sum(payloads[i%len(payloads)])
		msgs[i] = sum[:]
		if cts[i], err = eng.PadEncrypt(rng, &key.PublicKey, msgs[i]); err != nil {
			return nil, err
		}
	}
	var rsaErr error
	i := 0
	dec := medianEach(rsaOps, func() {
		got, err := eng.PadDecrypt(key, cts[i])
		if err == nil && !bytes.Equal(got, msgs[i]) {
			err = fmt.Errorf("rsakey.PadDecrypt recovered the wrong message")
		}
		if err != nil && rsaErr == nil {
			rsaErr = err
		}
		i = (i + 1) % rsaOps
	})
	stdDec := medianEach(rsaOps, func() {
		got, err := rsa.DecryptPKCS1v15(crand.Reader, std, cts[i])
		if err == nil && !bytes.Equal(got, msgs[i]) {
			err = fmt.Errorf("crypto/rsa recovered a different message from the repo's ciphertext")
		}
		if err != nil && rsaErr == nil {
			rsaErr = err
		}
		i = (i + 1) % rsaOps
	})
	batch := medianEach(rsaOps/4, func() {
		got, err := eng.PadDecryptBatch(key, cts[i:i+4])
		for j := 0; err == nil && j < 4; j++ {
			if !bytes.Equal(got[j], msgs[i+j]) {
				err = fmt.Errorf("rsakey.PadDecryptBatch recovered the wrong message in lane %d", j)
			}
		}
		if err != nil && rsaErr == nil {
			rsaErr = err
		}
		i = (i + 4) % rsaOps
	}) / 4
	if rsaErr != nil {
		mismatch(rsaErr)
	}
	m.add("rsakey.decrypt_us", "us", dec)
	m.add("rsakey.batch4_us_per_lane", "us", batch)
	m.add("rsakey.decrypt_x_stdlib", "ratio", ratio(dec, stdDec))
	return res, nil
}

func stdHMAC(h func() hash.Hash, key, p []byte) []byte {
	mac := hmac.New(h, key)
	mac.Write(p)
	return mac.Sum(nil)
}

// stdKey converts a repo RSA key to crypto/rsa's representation.
func stdKey(k *rsakey.PrivateKey) *rsa.PrivateKey {
	b := func(x *mpz.Int) *big.Int { return new(big.Int).SetBytes(x.Bytes()) }
	priv := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: b(k.N), E: int(k.E.Int64())},
		D:         b(k.D),
		Primes:    []*big.Int{b(k.P), b(k.Q)},
	}
	priv.Precompute()
	return priv
}

// medianOf runs fn reps times (after one untimed warm call) and returns
// the median duration in µs.
func medianOf(reps int, fn func()) float64 {
	fn()
	return medianEach(reps, fn)
}

// medianEach times reps calls of fn and returns the median in µs.
func medianEach(reps int, fn func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = float64(time.Since(start)) / 1e3
	}
	sort.Float64s(ds)
	return median(ds)
}
