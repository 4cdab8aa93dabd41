package main

import (
	"bytes"
	"crypto/md5"
	"crypto/rsa"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wisp/internal/mpz"
	"wisp/internal/rsakey"
	"wisp/internal/serve"
)

// serialSender answers one request at a time after a fixed service
// time, like a single busy worker.
type serialSender struct {
	mu      sync.Mutex
	service time.Duration
}

func (s *serialSender) send(it *item) (*serve.Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(s.service)
	return &serve.Response{Status: serve.StatusOK, Op: it.req.Op, Digest: it.want.digest[:], Result: it.want.result}, nil
}

func (s *serialSender) close() {}

func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	var in inputs
	r := rand.New(rand.NewSource(1))
	items := make([]*item, 6)
	for i := range items {
		it := in.build(shape{op: serve.OpMD5, size: 16}, r)
		it.due = time.Duration(i) * 2 * time.Millisecond
		items[i] = it
	}
	// Every request is due long before the one ahead of it finishes, so
	// each waits behind the stall of its predecessors.  Timing from the
	// send would hide that wait; timing from the due time shows it.
	s := &serialSender{service: 20 * time.Millisecond}
	var tl tally
	outs := openLoop(s, items, &tl)
	if tl.attempted.Load() != 6 || tl.failed.Load() != 0 || tl.mismatch != nil {
		t.Fatalf("attempted %d failed %d mismatch %v", tl.attempted.Load(), tl.failed.Load(), tl.mismatch)
	}
	var last time.Duration
	for i, o := range outs {
		if !o.ok {
			t.Fatalf("request %d not OK", i)
		}
		if o.lat != o.lag+o.rtt {
			t.Fatalf("request %d: latency %v != lag %v + round trip %v", i, o.lat, o.lag, o.rtt)
		}
		if o.lag < 0 || o.lag > 15*time.Millisecond {
			t.Fatalf("request %d: generator lag %v, want small and non-negative", i, o.lag)
		}
		last = max(last, o.lat)
	}
	// The last of six 20 ms services in a row finishes ≥120 ms after the
	// first was due, and it was due 10 ms in: ≥110 ms from its due time.
	if last < 110*time.Millisecond {
		t.Fatalf("slowest due-time latency %v, want ≥110ms (queueing behind the stall)", last)
	}
}

func TestClosedLoopCountsOnlyAnswersInTheWindow(t *testing.T) {
	var in inputs
	it := in.build(shape{op: serve.OpMD5, size: 16}, rand.New(rand.NewSource(1)))
	s := &serialSender{service: 10 * time.Millisecond}
	var tl tally
	var next atomic.Int64
	start := time.Now()
	counts := closedLoop(s, []*item{it}, &next, 3, &tl,
		[]time.Time{start, start.Add(50 * time.Millisecond), start.Add(100 * time.Millisecond)})
	// One serial worker at 10 ms per answer: about five per 50 ms
	// window, and the requests in flight at the end finish uncounted.
	var ok int64
	for i, n := range counts {
		if n < 2 || n > 6 {
			t.Fatalf("window %d counted %d answers of 10ms services in 50ms", i, n)
		}
		ok += n
	}
	if tl.attempted.Load() <= ok {
		t.Fatalf("attempted %d, counted %d: in-flight requests at the end must not count", tl.attempted.Load(), ok)
	}
}

func TestRSAAnswersAreUnwrappedWithTheStandardLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("generates an RSA-1024 key")
	}
	key, err := rsakey.GenerateKey(rand.New(rand.NewSource(1)), 1024)
	if err != nil {
		t.Fatal(err)
	}
	std := stdKey(key)
	var in inputs
	r := rand.New(rand.NewSource(2))
	it := in.build(shape{op: serve.OpRSADecrypt, size: 64}, r)
	eng := rsakey.DefaultEngine(mpz.NewCtx(nil), 0, 0)
	good, err := eng.PadEncrypt(r, &key.PublicKey, it.want.digest[:])
	if err != nil {
		t.Fatal(err)
	}
	other := md5.Sum([]byte("another payload"))
	wrongMsg, err := eng.PadEncrypt(r, &key.PublicKey, other[:])
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 1

	ok := func(ct []byte) *tally {
		var tl tally
		tl.classify(it, &serve.Response{Status: serve.StatusOK, Digest: it.want.digest[:], Result: ct}, nil)
		tl.verifyRSA(std)
		return &tl
	}
	if tl := ok(good); tl.mismatch != nil {
		t.Fatalf("a correct rsa-decrypt answer was refused: %v", tl.mismatch)
	}
	// The math/big unwrap agrees with crypto/rsa on the repo's ciphertexts.
	for i := 0; i < 8; i++ {
		ct, err := eng.PadEncrypt(r, &key.PublicKey, it.want.digest[:i+9])
		if err != nil {
			t.Fatal(err)
		}
		want, err := rsa.DecryptPKCS1v15(nil, std, ct)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := unwrapPKCS1(std, ct); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("unwrapPKCS1 = %x, %v; crypto/rsa says %x", got, err, want)
		}
	}
	for name, ct := range map[string][]byte{
		"wrong message":          wrongMsg,
		"corrupted ciphertext":   flipped,
		"digest as ciphertext":   it.want.digest[:],
		"identity (no wrapping)": append(make([]byte, 128-md5.Size), it.want.digest[:]...),
	} {
		if tl := ok(ct); tl.mismatch == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
