package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy tunes client-side robustness for a Client.  The zero value
// disables both retries and hedging (single-attempt Do).
type RetryPolicy struct {
	// MaxAttempts is the total number of submissions per request,
	// including the first; values ≤ 1 disable retries.  Only shed
	// responses are retried: expired and error responses are final.
	MaxAttempts int
	// Backoff is the sleep before the first retry; each further retry
	// doubles it (exponential backoff).  Default 1 ms when retries are
	// enabled.
	Backoff time.Duration
	// MaxBackoff caps the doubled backoff.  0 means no cap.
	MaxBackoff time.Duration
	// Jitter randomizes each backoff by ±Jitter fraction (e.g. 0.2 =
	// ±20%), decorrelating retry storms across clients.
	Jitter float64
	// HedgeAfter enables hedged requests for deadline-bearing ops: if
	// the primary submission has not answered within this duration, a
	// duplicate (flagged Hedge) is launched and the first OK response
	// wins.  0 disables hedging.  Ops are self-verifying round trips, so
	// duplicates are safe.
	HedgeAfter time.Duration
}

// Transport performs request/response exchanges against a serving daemon.
// HTTP+JSON (NewClient) is the default; internal/wire provides the
// binary-protocol implementation, and a cluster router
// (internal/gwroute) fans a Transport out over many nodes.  The retry,
// backoff and hedging machinery above the transport is shared: a Client
// behaves identically over either protocol.
type Transport interface {
	// RoundTrip submits one request and blocks for its response.  A non-nil
	// Response covers every parsed reply including shed/expired/error
	// statuses; the error covers transport and decode failures only.
	RoundTrip(req *Request) (*Response, error)
	// Stats fetches the server's stats snapshot.
	Stats() (*Stats, error)
	// Healthy reports whether the server answers its health check.
	Healthy() bool
	// Close releases the transport's connections.
	Close() error
}

// Client talks to a wispd gateway — over HTTP+JSON by default, or over any
// Transport (the binary wire protocol, a routing tier) via NewClientWith.
// With a RetryPolicy set it retries shed responses with exponential
// backoff + jitter and hedges slow deadline-bearing requests;
// Retries/Hedges expose how often.
type Client struct {
	tr     Transport
	policy RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand

	retries atomic.Uint64
	hedges  atomic.Uint64
}

// NewClient builds an HTTP+JSON client for addr ("host:port" or a full
// http:// URL).
func NewClient(addr string) *Client { return NewClientWith(newHTTPTransport(addr)) }

// NewClientWith builds a client on an explicit transport (e.g. a
// wire.Transport); the retry/hedge machinery is unchanged.
func NewClientWith(tr Transport) *Client {
	return &Client{tr: tr, rng: rand.New(rand.NewSource(1))}
}

// SetRetryPolicy installs p; seed makes the backoff jitter deterministic.
func (c *Client) SetRetryPolicy(p RetryPolicy, seed int64) {
	c.policy = p
	c.mu.Lock()
	c.rng = rand.New(rand.NewSource(seed))
	c.mu.Unlock()
}

// Retries reports how many re-submissions this client has issued.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// Hedges reports how many hedged duplicates this client has launched.
func (c *Client) Hedges() uint64 { return c.hedges.Load() }

// Do submits one offload request, applying the client's RetryPolicy:
// shed responses are retried with exponential backoff + jitter up to
// MaxAttempts, and deadline-bearing requests are hedged after HedgeAfter.
// A non-nil Response is returned for every successfully parsed reply,
// including shed/expired/error statuses; the error covers transport and
// decoding failures only.
func (c *Client) Do(req *Request) (*Response, error) {
	p := c.policy
	if p.MaxAttempts <= 1 && p.HedgeAfter <= 0 {
		return c.tr.RoundTrip(req)
	}
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	start := time.Now()
	for attempt := 0; ; attempt++ {
		r := *req
		r.Attempt = attempt
		resp, err := c.doHedged(&r)
		if err != nil {
			return nil, err
		}
		if resp.Status != StatusShed || attempt >= attempts-1 {
			return resp, nil
		}
		// A request with its own deadline is pointless to retry once the
		// budget is spent; report the shed instead.
		if req.DeadlineUS > 0 && time.Since(start) > time.Duration(req.DeadlineUS)*time.Microsecond {
			return resp, nil
		}
		c.retries.Add(1)
		time.Sleep(c.backoff(attempt))
	}
}

// backoff computes the sleep before retrying attempt (0-based): Backoff
// doubled per retry, capped at MaxBackoff, randomized by ±Jitter.
func (c *Client) backoff(attempt int) time.Duration {
	p := c.policy
	d := p.Backoff
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 0; i < attempt; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 {
		c.mu.Lock()
		f := 1 + p.Jitter*(2*c.rng.Float64()-1)
		c.mu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	return d
}

// doHedged runs one attempt, launching a hedged duplicate if the primary
// has not answered within HedgeAfter.  The first OK response wins; if
// neither is OK the primary-ordered first result is returned.
func (c *Client) doHedged(req *Request) (*Response, error) {
	if c.policy.HedgeAfter <= 0 || req.DeadlineUS <= 0 {
		return c.tr.RoundTrip(req)
	}
	type result struct {
		resp *Response
		err  error
	}
	ch := make(chan result, 2)
	go func() {
		resp, err := c.tr.RoundTrip(req)
		ch <- result{resp, err}
	}()
	timer := time.NewTimer(c.policy.HedgeAfter)
	defer timer.Stop()
	launched := 1
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-timer.C:
		c.hedges.Add(1)
		h := *req
		h.Hedge = true
		if h.ID != "" {
			h.ID += "~h"
		}
		go func() {
			resp, err := c.tr.RoundTrip(&h)
			ch <- result{resp, err}
		}()
		launched = 2
	}
	var first result
	for i := 0; i < launched; i++ {
		r := <-ch
		if r.err == nil && r.resp.Status == StatusOK {
			return r.resp, nil
		}
		if i == 0 {
			first = r
		}
	}
	return first.resp, first.err
}

// Stats fetches the gateway's stats snapshot.
func (c *Client) Stats() (*Stats, error) { return c.tr.Stats() }

// Healthy reports whether the gateway answers its health check.
func (c *Client) Healthy() bool { return c.tr.Healthy() }

// httpTransport is the HTTP+JSON Transport: POST /v1/offload, GET /stats
// and GET /healthz.
type httpTransport struct {
	base string
	http *http.Client
}

func newHTTPTransport(addr string) *httpTransport {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &httpTransport{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: 5 * time.Minute},
	}
}

// framePool recycles the request-marshalling buffers across posts; load
// generators issue tens of thousands of framed requests per run and the
// encode buffer is the dominant client-side allocation.
var framePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// RoundTrip JSON-encodes req and posts it.
func (t *httpTransport) RoundTrip(req *Request) (*Response, error) {
	buf := framePool.Get().(*bytes.Buffer)
	buf.Reset()
	defer framePool.Put(buf)
	if err := json.NewEncoder(buf).Encode(req); err != nil {
		return nil, err
	}
	return t.postBytes(buf.Bytes())
}

// postBytes submits an already-framed request body.  Attackers in the
// load generator pre-marshal their ammunition once and fire it repeatedly
// through this path — re-encoding a megabyte payload per shot would spend
// the generator's CPU on the attacker's half of the work.
func (t *httpTransport) postBytes(body []byte) (*Response, error) {
	httpResp, err := t.http.Post(t.base+"/v1/offload", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	var resp Response
	if err := json.NewDecoder(io.LimitReader(httpResp.Body, MaxPayload*2)).Decode(&resp); err != nil {
		return nil, fmt.Errorf("serve: decoding response (http %d): %w", httpResp.StatusCode, err)
	}
	return &resp, nil
}

// Stats fetches /stats.
func (t *httpTransport) Stats() (*Stats, error) {
	httpResp, err := t.http.Get(t.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	var s Stats
	if err := json.NewDecoder(httpResp.Body).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Healthy reports whether /healthz answers 200.
func (t *httpTransport) Healthy() bool {
	resp, err := t.http.Get(t.base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Close is a no-op: connections live in net/http's shared default pool.
func (t *httpTransport) Close() error { return nil }
