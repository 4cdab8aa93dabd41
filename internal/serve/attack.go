package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"wisp/internal/hashes"
)

// AttackProfile names one adversarial client behavior the load generator
// can mix into a legit replay.  Attack clients are *additional* to the
// configured legit clients and draw from their own RNG streams, so the
// legit half of a mixed run is byte-for-byte the same workload as an
// attack-free run on the same seed — exactly what the fairness regression
// comparison needs.
type AttackProfile string

const (
	// AttackFlood hammers full SSL transactions (one RSA private-key op
	// each, no resumption) from several concurrent streams per attacker —
	// raw expensive work aimed at saturating the shards.
	AttackFlood AttackProfile = "flood"
	// AttackThrash issues high-rate cheap full handshakes: every one
	// inserts a fresh session into the shared LRU session cache, evicting
	// legit clients' resumable sessions.
	AttackThrash AttackProfile = "thrash"
	// AttackOversize alternates maximum-size legal payloads with
	// over-limit payloads that the hardened decode must reject before
	// allocating.
	AttackOversize AttackProfile = "oversize"
	// AttackSlowloris opens raw connections and dribbles the request body
	// byte-by-byte, holding connections open; the server's read timeout is
	// the defense.
	AttackSlowloris AttackProfile = "slowloris"
)

// AllAttackProfiles lists every adversarial profile.
var AllAttackProfiles = []AttackProfile{AttackFlood, AttackThrash, AttackOversize, AttackSlowloris}

// ParseAttackProfiles parses a comma-separated profile list.
func ParseAttackProfiles(s string) ([]AttackProfile, error) {
	var out []AttackProfile
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		if part == "" {
			continue
		}
		p := AttackProfile(part)
		valid := false
		for _, known := range AllAttackProfiles {
			if p == known {
				valid = true
				break
			}
		}
		if !valid {
			return nil, fmt.Errorf("unknown attack profile %q (want flood, thrash, oversize or slowloris)", part)
		}
		out = append(out, p)
	}
	return out, nil
}

// attackerCount derives how many attack clients a config spawns: enough
// that attackers make up ~AttackRatio of all clients (attackers are
// additional to the legit Clients), and at least one per requested
// profile so an "all four profiles" run exercises all four.
func (c LoadConfig) attackerCount() int {
	if len(c.Attack) == 0 || c.AttackRatio <= 0 {
		return 0
	}
	if c.AttackRatio >= 1 {
		return len(c.Attack)
	}
	n := int(float64(c.Clients)*c.AttackRatio/(1-c.AttackRatio) + 0.5)
	if n < len(c.Attack) {
		n = len(c.Attack)
	}
	return n
}

// runAttacker drives one adversarial client until done closes (the legit
// replay has finished) and records its outcomes into r.  Attack latencies
// land in "<op>+attack" op classes so the plain op rows of a mixed run
// stay legit-only — that is what lets the fairness gate compare legit p99
// across attack-free and mixed runs.
func runAttacker(c LoadConfig, profile AttackProfile, idx int, tr *httpTransport, r *clientResult, done <-chan struct{}) {
	r.attack = true
	r.perSize = make(map[int][]int64)
	r.perOp = make(map[Op][]int64)
	id := fmt.Sprintf("%s-%d", profile, idx)
	rng := rand.New(rand.NewSource(c.Seed*31 + 1009 + int64(idx)))

	// Each profile precomputes its ammunition once — payload, expected
	// digest, and for the oversize bodies the full JSON frame.  A real
	// attacker does not regenerate a megabyte of random bytes per shot,
	// and neither should the harness: on a shared host, per-request
	// payload generation charges the attacker's CPU bill to the very
	// latency measurement the fairness gate is taking.
	switch profile {
	case AttackFlood:
		payload, want := attackPayload(rng, 4096)
		attackLoop(c, done, c.AttackRTTUS, func(k int) { attackRequest(r, tr, id, OpSSL, payload, want) })
	case AttackThrash:
		// Cheap per op — the damage (and the token-bucket spend) is the
		// sheer churn rate: every full handshake evicts someone's session.
		payload, want := attackPayload(rng, 64)
		attackLoop(c, done, c.AttackRTTUS, func(k int) { attackRequest(r, tr, id, OpHandshake, payload, want) })
	case AttackOversize:
		// Maximum-size legal payload: priced at full per-byte cost by
		// envelope admission.  Over the limit: rejected from the encoded
		// token length before any payload buffer is allocated.  Paced 5x —
		// megabyte uploads are bandwidth-bound, not latency-bound.
		legal, legalWant := oversizeBody(rng, id, OpAES, 256<<10)
		over, _ := oversizeBody(rng, id, OpMD5, MaxPayload+1)
		attackLoop(c, done, 5*c.AttackRTTUS, func(k int) {
			if k%2 == 0 {
				rawAttackRequest(r, tr, OpAES, 256<<10, legal, legalWant)
			} else {
				rawAttackRequest(r, tr, OpMD5, MaxPayload+1, over, nil)
			}
		})
	case AttackSlowloris:
		attackLoop(c, done, 0, func(k int) { slowlorisRequest(c, r, rng, id) })
	}
}

// attackPayload draws one reusable attack payload and its expected digest.
func attackPayload(rng *rand.Rand, size int) ([]byte, []byte) {
	payload := make([]byte, size)
	rng.Read(payload)
	want := hashes.MD5Sum(payload)
	return payload, want[:]
}

// oversizeBody pre-marshals one oversize request frame.  want is nil for
// bodies the server is expected to reject.
func oversizeBody(rng *rand.Rand, id string, op Op, size int) ([]byte, []byte) {
	payload, want := attackPayload(rng, size)
	body, err := json.Marshal(&Request{Op: op, Payload: payload, ClientID: id})
	if err != nil {
		panic(err) // marshalling []byte cannot fail
	}
	return body, want
}

// attackLoop fans an attacker's request stream across AttackConcurrency
// goroutines, each firing until done closes, pacing paceUS µs between
// shots (the modeled round-trip to a remote attacker).  Attackers are
// botnet-style concurrent streams, not polite closed loops — concurrency
// under one ClientID is what pushes a single identity past its
// token-bucket rate.
func attackLoop(c LoadConfig, done <-chan struct{}, paceUS int64, issue func(k int)) {
	var wg sync.WaitGroup
	for s := 0; s < c.AttackConcurrency; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				issue(s<<20 | k)
				if paceUS > 0 {
					select {
					case <-done:
						return
					case <-time.After(time.Duration(paceUS) * time.Microsecond):
					}
				}
			}
		}(s)
	}
	wg.Wait()
}

// attackRequest issues one adversarial request with a shared precomputed
// payload and records the outcome.  The shared result is locked: one
// attacker runs several concurrent streams into the same clientResult.
func attackRequest(r *clientResult, tr *httpTransport, id string, op Op, payload, want []byte) {
	req := &Request{Op: op, Payload: payload, ClientID: id}
	t0 := time.Now()
	resp, err := tr.RoundTrip(req)
	lat := time.Since(t0).Microseconds()
	recordAttackOutcome(r, op, len(payload), want, resp, err, lat)
}

// rawAttackRequest fires one pre-marshalled frame and records the outcome.
func rawAttackRequest(r *clientResult, tr *httpTransport, op Op, size int, body, want []byte) {
	t0 := time.Now()
	resp, err := tr.postBytes(body)
	lat := time.Since(t0).Microseconds()
	recordAttackOutcome(r, op, size, want, resp, err, lat)
}

// recordAttackOutcome folds one attack response into the shared result.
// want nil skips the digest check (the request was built to be rejected).
func recordAttackOutcome(r *clientResult, op Op, size int, want []byte, resp *Response, err error, lat int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		// Transport failures (connection reset mid-oversized-upload, read
		// timeout) are expected casualties of attacking a defended server.
		r.errs++
		return
	}
	switch resp.Status {
	case StatusOK:
		r.ok++
		r.bytes += int64(size)
		r.latencies = append(r.latencies, lat)
		r.perOp[op+"+attack"] = append(r.perOp[op+"+attack"], lat)
		if want != nil && !bytes.Equal(resp.Digest, want) {
			r.mismatches++
		}
		r.baseCycles += resp.EstBaseCycles
		r.optCycles += resp.EstOptCycles
	case StatusShed:
		r.shed++
		if resp.ShedReason == "throttle" {
			r.throttled++
		}
	case StatusExpired:
		r.expired++
	default:
		r.errs++
	}
}

// slowlorisRequest hand-writes one HTTP request over a raw connection,
// dribbling the body in small timed chunks.  A server with a read timeout
// disconnects the dribble (counted as an error here); without one the
// request eventually completes and its latency lands in the attack class.
func slowlorisRequest(c LoadConfig, r *clientResult, rng *rand.Rand, id string) {
	addr := c.Addr
	if i := strings.Index(addr, "://"); i >= 0 {
		addr = addr[i+3:]
	}
	addr = strings.TrimRight(addr, "/")

	r.mu.Lock()
	payload := make([]byte, 32)
	rng.Read(payload)
	r.mu.Unlock()
	body, err := json.Marshal(&Request{Op: OpMD5, Payload: payload, ClientID: id})
	if err != nil {
		r.mu.Lock()
		r.errs++
		r.mu.Unlock()
		return
	}

	fail := func() {
		r.mu.Lock()
		r.errs++
		r.mu.Unlock()
	}
	t0 := time.Now()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		fail()
		return
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	header := fmt.Sprintf("POST /v1/offload HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", addr, len(body))
	if _, err := conn.Write([]byte(header)); err != nil {
		fail()
		return
	}
	// Dribble the body: ~20 chunks paced across SlowlorisMS total.
	pace := time.Duration(c.SlowlorisMS) * time.Millisecond / 20
	step := (len(body) + 19) / 20
	for off := 0; off < len(body); off += step {
		end := off + step
		if end > len(body) {
			end = len(body)
		}
		if _, err := conn.Write(body[off:end]); err != nil {
			fail()
			return
		}
		time.Sleep(pace)
	}
	buf := make([]byte, 4096)
	var resp []byte
	for {
		n, err := conn.Read(buf)
		resp = append(resp, buf[:n]...)
		if err != nil {
			break
		}
	}
	lat := time.Since(t0).Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !bytes.Contains(resp, []byte(" 200 ")) {
		r.errs++
		return
	}
	r.ok++
	r.latencies = append(r.latencies, lat)
	r.perOp[OpMD5+"+attack"] = append(r.perOp[OpMD5+"+attack"], lat)
}
