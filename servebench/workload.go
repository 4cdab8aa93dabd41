package main

import (
	"crypto/hmac"
	"crypto/md5"
	"crypto/sha1"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"wisp/internal/serve"
)

// workload is one named traffic mix.  Every rate is absolute (requests
// per second), sized at about half of the closed-loop capacity measured
// on a 2-CPU host, and recorded in BENCHMARK.json's "why" line.
type workload struct {
	name string
	// rate is the open-loop offered load; burst > 1 makes arrivals come
	// in back-to-back groups whose starts are Poisson at rate/burst.
	rate  float64
	burst int
	// openShare is the fraction of --seconds spent in the open-loop
	// phase; the rest is the saturation phase.
	openShare float64
	// satConc is the number of outstanding requests in saturation.
	satConc int
	// warmup requests run untimed before the open-loop phase.
	warmup int
	// replay is how many open-loop requests the traced run replays in
	// process.
	replay int
	// deck lists request shapes in their exact mix proportions.  Inputs
	// are dealt from freshly shuffled copies of the deck, so any run of
	// len(deck) consecutive requests holds the whole mix: the mix in a
	// phase does not drift with the seed, only the order does.
	deck []shape
}

// shape is a request before its payload bytes are drawn.
type shape struct {
	op   serve.Op
	size int
}

var workloads = []*workload{
	{
		name: "fig8-ssl", rate: 24, burst: 1, openShare: 0.8, satConc: 8,
		warmup: 16, replay: 48,
		deck: []shape{
			{op: serve.OpSSL, size: 1 << 10}, {op: serve.OpSSL, size: 4 << 10},
			{op: serve.OpSSL, size: 16 << 10}, {op: serve.OpSSL, size: 32 << 10},
		},
	},
	{
		name: "rsa-burst", rate: 400, burst: 8, openShare: 0.5, satConc: 16,
		warmup: 200, replay: 200,
		deck: []shape{{op: serve.OpHandshake, size: 64}, {op: serve.OpRSADecrypt, size: 64}},
	},
}

// deal returns n shapes from shuffled copies of deck.
func deal(r *rand.Rand, deck []shape, n int) []shape {
	out := make([]shape, 0, n+len(deck))
	for len(out) < n {
		start := len(out)
		out = append(out, deck...)
		hand := out[start:]
		r.Shuffle(len(hand), func(i, j int) { hand[i], hand[j] = hand[j], hand[i] })
	}
	return out[:n]
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// item is one generated request with everything needed to send it and
// to check its answer against the standard library.
type item struct {
	due  time.Duration // offset from the open-loop phase start
	req  serve.Request
	want expect
}

// expect is the standard-library answer for one request.
type expect struct {
	digest [md5.Size]byte
	result []byte // exact Result, when the op defines one
}

// inputs is everything one run sends, derived from the seed alone.
type inputs struct {
	warmup, open, sat []*item
	hmacKey, aesKey   []byte
}

// satItems is the length of the saturation request cycle.
const satItems = 2048

// generate builds the run's inputs.  The same (workload, seed, seconds)
// always yields byte-identical requests and the same arrival schedule.
func generate(w *workload, seed int64, seconds float64) (*inputs, error) {
	nOpen := int(math.Ceil(w.rate * w.openShare * seconds))
	if need := samplesFor(0.99); nOpen < need {
		return nil, fmt.Errorf("%s: %d open-loop requests in %.0fs cannot support p99 (need %d); raise --seconds",
			w.name, nOpen, seconds, need)
	}
	keys := rand.New(rand.NewSource(seed ^ 0x6b657973))
	in := &inputs{hmacKey: make([]byte, 16), aesKey: make([]byte, 16)}
	keys.Read(in.hmacKey)
	keys.Read(in.aesKey)

	mk := func(stream int64, n int) []*item {
		r := rand.New(rand.NewSource(seed*1000003 + stream))
		out := make([]*item, n)
		for i, s := range deal(r, w.deck, n) {
			out[i] = in.build(s, r)
		}
		return out
	}
	in.warmup, in.open, in.sat = mk(1, w.warmup), mk(2, nOpen), mk(3, satItems)
	for i, d := range schedule(seed, w.rate, w.burst, nOpen) {
		in.open[i].due = d
	}
	return in, nil
}

// build draws one request's payload and precomputes its expected answer
// with crypto/md5, crypto/sha1 and crypto/hmac — never with the repo's
// own hashes, so a broken kernel cannot vouch for itself.
func (in *inputs) build(s shape, r *rand.Rand) *item {
	it := &item{req: serve.Request{Op: s.op, Payload: make([]byte, s.size)}}
	r.Read(it.req.Payload)
	p := it.req.Payload
	it.want.digest = md5.Sum(p)
	switch s.op {
	case serve.OpMD5:
		it.want.result = it.want.digest[:]
	case serve.OpSHA1:
		sum := sha1.Sum(p)
		it.want.result = sum[:]
	case serve.OpHMACMD5, serve.OpHMACSHA1:
		it.req.Key = in.hmacKey
		h := hmac.New(md5.New, in.hmacKey)
		if s.op == serve.OpHMACSHA1 {
			h = hmac.New(sha1.New, in.hmacKey)
		}
		h.Write(p)
		it.want.result = h.Sum(nil)
	case serve.OpAES:
		it.req.Key = in.aesKey
	}
	return it
}

// schedule returns n due times.  Groups of burst requests share one due
// time (they are sent back to back); the gaps between group starts are
// exponential at rate/burst, so arrivals are Poisson with long-run rate
// rate.  The gaps are stratified: they are the exponential quantiles at
// (j+½)/G for the G groups, in seed-shuffled order.  Every seed thus
// sees the same gap distribution, exactly, and seeds differ only in how
// the gaps fall — which removes the run-to-run spread that comes from
// drawing unusually many short gaps, without making arrivals regular.
func schedule(seed int64, rate float64, burst, n int) []time.Duration {
	if burst < 1 {
		burst = 1
	}
	groups := (n + burst - 1) / burst
	groupRate := rate / float64(burst)
	gaps := make([]float64, groups)
	for j := range gaps {
		gaps[j] = -math.Log(1-(float64(j)+0.5)/float64(groups)) / groupRate
	}
	r := rand.New(rand.NewSource(seed*7919 + 17))
	r.Shuffle(len(gaps), func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		if i%burst == 0 && i > 0 {
			t += gaps[i/burst-1]
		}
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}
