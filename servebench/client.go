package main

import (
	"bytes"
	"crypto/hmac"
	"crypto/rsa"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wisp/internal/serve"
	"wisp/internal/wire"
)

// sender submits one request to the system under test and returns the
// parsed answer; the error covers transport failures only.
type sender interface {
	send(it *item) (*serve.Response, error)
	close()
}

// wireSender spreads requests round-robin over a few multiplexed wire
// connections to wispd.
type wireSender struct {
	trs []*wire.Transport
	n   atomic.Uint64
}

func dialWire(addr string, conns int) (*wireSender, error) {
	s := &wireSender{}
	for i := 0; i < conns; i++ {
		tr, err := wire.Dial(addr)
		if err != nil {
			s.close()
			return nil, err
		}
		tr.SetTimeout(60 * time.Second)
		s.trs = append(s.trs, tr)
	}
	return s, nil
}

func (s *wireSender) send(it *item) (*serve.Response, error) {
	tr := s.trs[s.n.Add(1)%uint64(len(s.trs))]
	return tr.RoundTrip(&it.req)
}

func (s *wireSender) close() {
	for _, tr := range s.trs {
		tr.Close()
	}
}

// check compares an OK response with the standard-library answer.  A
// non-nil error is an output mismatch: the run is incorrect.
func check(it *item, resp *serve.Response) error {
	if !bytes.Equal(resp.Digest, it.want.digest[:]) {
		return fmt.Errorf("%s %dB: digest %x, crypto/md5 says %x", it.req.Op, len(it.req.Payload), resp.Digest, it.want.digest)
	}
	if it.want.result != nil && !hmac.Equal(resp.Result, it.want.result) {
		return fmt.Errorf("%s %dB: result %x, standard library says %x", it.req.Op, len(it.req.Payload), resp.Result, it.want.result)
	}
	switch it.req.Op {
	case serve.OpSSL, serve.OpHandshake:
		if len(resp.Result) == 0 {
			return fmt.Errorf("%s %dB: no session ID in the response", it.req.Op, len(it.req.Payload))
		}
		if it.req.Op == serve.OpSSL && resp.Records == 0 {
			return fmt.Errorf("ssl %dB: no records pumped", len(it.req.Payload))
		}
	case serve.OpRSADecrypt:
		if len(resp.Result) == 0 {
			return fmt.Errorf("rsa-decrypt: no ciphertext in the response")
		}
	}
	return nil
}

// checkRSA unwraps an rsa-decrypt answer with the daemon's key: it must
// recover the MD5 of the request's payload.  The server checks its own
// round trip with the repo's engine, so only an outside decryption shows
// a wrong or self-consistent short cut.
func checkRSA(key *rsa.PrivateKey, it *item, ct []byte) error {
	got, err := unwrapPKCS1(key, ct)
	if err != nil {
		return fmt.Errorf("rsa-decrypt %dB: %w", len(it.req.Payload), err)
	}
	if !bytes.Equal(got, it.want.digest[:]) {
		return fmt.Errorf("rsa-decrypt %dB: the answer unwraps to %x, crypto/md5 says %x", len(it.req.Payload), got, it.want.digest)
	}
	return nil
}

// unwrapPKCS1 is PKCS#1 v1.5 decryption in math/big: ct^d mod n by CRT,
// then the type-2 padding 00 02 PS 00 M with at least eight non-zero PS
// bytes.  It gives crypto/rsa's answer at under half of crypto/rsa's
// cost, which matters with tens of thousands of answers per run.
func unwrapPKCS1(key *rsa.PrivateKey, ct []byte) ([]byte, error) {
	k := (key.N.BitLen() + 7) / 8
	c := new(big.Int).SetBytes(ct)
	if len(ct) != k || c.Cmp(key.N) >= 0 {
		return nil, fmt.Errorf("%d-byte answer is no %d-byte ciphertext", len(ct), k)
	}
	p, q, pre := key.Primes[0], key.Primes[1], &key.Precomputed
	m := new(big.Int).Exp(c, pre.Dp, p)
	m2 := new(big.Int).Exp(c, pre.Dq, q)
	m.Sub(m, m2).Mul(m, pre.Qinv).Mod(m, p).Mul(m, q).Add(m, m2)
	em := m.FillBytes(make([]byte, k))
	zero := bytes.IndexByte(em[2:], 0) + 2
	if em[0] != 0 || em[1] != 2 || zero < 10 {
		return nil, fmt.Errorf("the answer does not unwrap to PKCS#1 v1.5 padding")
	}
	return em[zero+1:], nil
}

// outcome is one timed request.
type outcome struct {
	ok               bool
	lat, lag, rtt    time.Duration // due→done, due→sent, sent→done
	queueUS, service int64
}

// tally counts a phase's requests and keeps the first mismatch.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	mismatch          error
	rsa               []rsaAnswer // awaiting verifyRSA
}

// rsaAnswer is an rsa-decrypt answer kept for checkRSA.
type rsaAnswer struct {
	it *item
	ct []byte
}

// mismatched keeps err if it is the phase's first mismatch.
func (t *tally) mismatched(err error) {
	t.mu.Lock()
	if t.mismatch == nil {
		t.mismatch = err
	}
	t.mu.Unlock()
}

// classify checks one answer, counting a failure (transport error or
// non-OK status) or recording a mismatch.
func (t *tally) classify(it *item, resp *serve.Response, err error) bool {
	t.attempted.Add(1)
	if err != nil || resp.Status != serve.StatusOK {
		t.failed.Add(1)
		return false
	}
	if cerr := check(it, resp); cerr != nil {
		t.mismatched(cerr)
		return false
	}
	if it.req.Op == serve.OpRSADecrypt {
		t.mu.Lock()
		t.rsa = append(t.rsa, rsaAnswer{it, bytes.Clone(resp.Result)})
		t.mu.Unlock()
	}
	return true
}

// verifyRSA checks every kept rsa-decrypt answer with checkRSA, on all
// CPUs, and forgets them.  Phases call it once they are over, so the
// checks' CPU stays out of the timed windows.
func (t *tally) verifyRSA(key *rsa.PrivateKey) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(t.rsa)); i = next.Add(1) - 1 {
				if err := checkRSA(key, t.rsa[i].it, t.rsa[i].ct); err != nil {
					t.mismatched(err)
				}
			}
		}()
	}
	wg.Wait()
	t.rsa = nil
}

// maxOutstanding bounds the open-loop generator's in-flight goroutines;
// at half capacity the backlog stays far below it.
const maxOutstanding = 4096

// openLoop sends items on their schedule, each from its own goroutine,
// and times every request from when it was due.  A stalled system
// therefore charges its stall to every request that came due meanwhile.
// The first item is due at once; the rest keep their spacing.
func openLoop(s sender, items []*item, t *tally) []outcome {
	out := make([]outcome, len(items))
	if len(items) == 0 {
		return out
	}
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now().Add(-items[0].due)
	for i, it := range items {
		due := start.Add(it.due)
		preciseSleep(time.Until(due))
		sem <- struct{}{}
		wg.Add(1)
		go func(o *outcome, it *item, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			sent := time.Now()
			resp, err := s.send(it)
			done := time.Now()
			o.lat, o.lag, o.rtt = done.Sub(due), sent.Sub(due), done.Sub(sent)
			if o.ok = t.classify(it, resp, err); o.ok {
				o.queueUS, o.service = resp.QueueUS, resp.ServiceUS
			}
		}(&out[i], it, due)
	}
	wg.Wait()
	return out
}

// closedLoop keeps conc requests outstanding, cycling through items
// from *next on, until the last of bounds.  It returns how many OK
// answers arrived in each window [bounds[i], bounds[i+1]); requests
// still in flight at the end finish and are checked, not counted.
func closedLoop(s sender, items []*item, next *atomic.Int64, conc int, t *tally, bounds []time.Time) []int64 {
	counts := make([]atomic.Int64, len(bounds)-1)
	end := bounds[len(bounds)-1]
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				it := items[(next.Add(1)-1)%int64(len(items))]
				resp, err := s.send(it)
				done := time.Now()
				if !t.classify(it, resp, err) {
					continue
				}
				for i := range counts {
					if !done.Before(bounds[i]) && done.Before(bounds[i+1]) {
						counts[i].Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	out := make([]int64, len(counts))
	for i := range counts {
		out[i] = counts[i].Load()
	}
	return out
}

// runAll sends every item once, conc at a time (the untimed warm-up).
func runAll(s sender, items []*item, conc int, t *tally) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(items)); i = next.Add(1) - 1 {
				resp, err := s.send(items[i])
				t.classify(items[i], resp, err)
			}
		}()
	}
	wg.Wait()
}
