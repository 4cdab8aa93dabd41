// Package serve is wispd's concurrent security-offload gateway: it
// accepts SSL-transaction and raw-primitive requests, dispatches them
// across a shard-per-worker pool of simulated platform instances, batches
// compatible record-layer operations per shard, applies admission control
// (bounded queues with load-shedding and deadline-aware rejection), and
// exports per-request latency histograms, per-primitive throughput
// counters and queue-depth/shed-rate gauges.
//
// The package turns the repository from "reproduce the paper's tables"
// into "serve the workload the tables describe": every offloaded
// operation runs on the repo's own crypto stack (internal/ssl,
// internal/rsakey, internal/descipher, internal/aescipher,
// internal/hashes), and every SSL-shaped response carries the analytic
// model's cycle estimate so a load generator can compare achieved
// throughput against the Figure 8 prediction.
package serve

import "fmt"

// Op names one offloadable operation.
type Op string

// The offloadable operations.  Ciphers and RSA run as round trips
// (encrypt then decrypt, or wrap then unwrap) so the gateway self-checks
// every response before returning the payload digest.
const (
	// OpSSL is a full SSL transaction: RSA key-transport handshake plus a
	// record-layer pump of the payload (the Figure 8 workload unit).
	OpSSL Op = "ssl"
	// OpHandshake is the handshake alone (one private-key op per request).
	OpHandshake Op = "handshake"
	// OpRecord is a record-layer seal+open round trip on the shard's
	// long-lived session pair.  Record ops are batchable: a shard drains
	// compatible queued records and serves them in one batch.
	OpRecord Op = "record"
	// OpRSADecrypt wraps the payload digest under the shard's public key
	// and unwraps it with the private key (one private-key op).
	OpRSADecrypt Op = "rsa-decrypt"
	// OpRSAEncrypt is the public-key operation alone.
	OpRSAEncrypt Op = "rsa-encrypt"
	// OpAES is an AES-128-CBC encrypt+decrypt round trip.
	OpAES Op = "aes"
	// Op3DES is a 3DES-CBC encrypt+decrypt round trip.
	Op3DES Op = "3des"
	// OpMD5 / OpSHA1 digest the payload.
	OpMD5  Op = "md5"
	OpSHA1 Op = "sha1"
	// OpHMACMD5 / OpHMACSHA1 authenticate the payload with the request key
	// (or the shard's session MAC key when none is given).
	OpHMACMD5  Op = "hmac-md5"
	OpHMACSHA1 Op = "hmac-sha1"
)

// AllOps lists every operation the gateway serves.
var AllOps = []Op{
	OpSSL, OpHandshake, OpRecord,
	OpRSADecrypt, OpRSAEncrypt,
	OpAES, Op3DES,
	OpMD5, OpSHA1, OpHMACMD5, OpHMACSHA1,
}

// ValidOp reports whether op is servable.
func ValidOp(op Op) bool {
	for _, o := range AllOps {
		if o == op {
			return true
		}
	}
	return false
}

// MaxPayload bounds one request's payload (admission control rejects
// larger bodies before they reach a shard).
const MaxPayload = 1 << 20

// MaxClientID bounds the client identity string; longer IDs are rejected
// at decode time before any payload buffer is allocated.
const MaxClientID = 64

// ValidationError is the typed rejection for malformed requests.  The
// hardened decode path returns it *before* allocating payload buffers, so
// oversized or garbage inputs cost the gateway nothing but the parse.
type ValidationError struct {
	Field  string // offending request field ("payload", "client_id", ...)
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("serve: invalid %s: %s", e.Field, e.Reason)
}

func invalidf(field, format string, args ...any) *ValidationError {
	return &ValidationError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Request is one offload request.  Payload is base64 on the wire (Go's
// encoding/json handles []byte that way).
type Request struct {
	ID string `json:"id,omitempty"`
	Op Op     `json:"op"`
	// Payload is the data to protect, digest or pump through a session.
	Payload []byte `json:"payload,omitempty"`
	// Key optionally overrides the shard's symmetric/HMAC key material.
	Key []byte `json:"key,omitempty"`
	// RecordSize chunks OpSSL payloads into records (default 1024).
	RecordSize int `json:"record_size,omitempty"`
	// DeadlineUS is a relative latency budget in microseconds.  Zero means
	// no deadline.  Requests whose budget is already spent when a shard
	// dequeues them — or that every shard's backlog estimate says cannot
	// be met — are rejected without doing the crypto work.
	DeadlineUS int64 `json:"deadline_us,omitempty"`
	// Resume asks OpSSL/OpHandshake to reuse the shard's cached session
	// via an abbreviated handshake (no RSA premaster exchange).  On a
	// session-cache miss — expired entry, evicted, or the gateway runs
	// without a cache — the request transparently falls back to a full
	// handshake; Response.Resumed reports which path actually ran.
	Resume bool `json:"resume,omitempty"`
	// Attempt is the client-side retry ordinal (0 = first submission).
	// The gateway counts Attempt > 0 arrivals in the retry telemetry.
	Attempt int `json:"attempt,omitempty"`
	// Hedge marks a hedged duplicate of a still-outstanding request; the
	// gateway serves it normally and counts it in the hedge telemetry.
	Hedge bool `json:"hedge,omitempty"`
	// ClientID names the submitting principal for QoS isolation: the
	// gateway meters each client's estimated-cost spend against a token
	// bucket and fair-queues across clients under saturation, so one
	// abusive identity cannot move everyone else's p99.  Empty means the
	// anonymous client "-".  Limited to MaxClientID bytes.
	ClientID string `json:"client_id,omitempty"`

	// preEst carries the admission estimate of a request already charged
	// at the envelope stage via Gateway.Preadmit; Submit skips the token
	// bucket for it and uses this value for fair-queue accounting.  Never
	// on the wire.
	preEst int64
}

// SetPreadmitted stamps the request with a Preadmit estimate: the client's
// token bucket was already charged est µs at the envelope stage, so Submit
// must not charge it again.  Front ends (the HTTP handler, the binary wire
// listener) call this between Preadmit and Submit.
func (r *Request) SetPreadmitted(est int64) { r.preEst = est }

// clientKey maps a request to its QoS accounting identity.
func (r *Request) clientKey() string {
	if r.ClientID == "" {
		return "-"
	}
	return r.ClientID
}

// Status classifies a response.
type Status string

// Response statuses.
const (
	StatusOK      Status = "ok"      // served; Digest covers the recovered payload
	StatusShed    Status = "shed"    // rejected by admission control (queue full, draining, or unmeetable deadline)
	StatusExpired Status = "expired" // deadline passed while queued
	StatusError   Status = "error"   // the operation itself failed
)

// Response is the gateway's answer to one Request.
type Response struct {
	ID     string `json:"id,omitempty"`
	Op     Op     `json:"op"`
	Status Status `json:"status"`
	Error  string `json:"error,omitempty"`

	// Digest is MD5 over the recovered payload: after the round trip
	// through cipher/record/handshake machinery, this must equal the MD5
	// the client computes locally — the end-to-end corruption check.
	//
	// Ownership: the shard fills Digest and Result by appending into
	// whatever capacity the Response already carries, so a caller that
	// recycles Response objects must treat both slices as overwritten by
	// the next call that reuses the object.
	Digest []byte `json:"digest,omitempty"`
	// Result is op-specific output (hash or HMAC value, RSA ciphertext).
	Result []byte `json:"result,omitempty"`

	// Records is the number of record-layer units pumped (OpSSL/OpRecord).
	Records int `json:"records,omitempty"`
	// Shard identifies the worker that served (or shed) the request.
	Shard int `json:"shard"`
	// Batch is the size of the same-op group this request was served in.
	Batch int `json:"batch,omitempty"`
	// Stolen reports that an idle shard took this request from the queue
	// it was admitted to (Shard is the shard that actually served it).
	Stolen bool `json:"stolen,omitempty"`
	// Resumed reports that the transaction ran an abbreviated handshake
	// (session-cache hit): no RSA operation was performed.
	Resumed bool `json:"resumed,omitempty"`
	// ShedReason classifies a StatusShed response ("queue-full",
	// "deadline", "draining" or "throttle"), so clients can tell a
	// capacity shed from a per-client rate-limit rejection.
	ShedReason string `json:"shed_reason,omitempty"`

	// QueueUS and ServiceUS split the gateway-side latency.
	QueueUS   int64 `json:"queue_us"`
	ServiceUS int64 `json:"service_us"`

	// EstBaseCycles/EstOptCycles are the analytic model's per-transaction
	// cycle estimates (baseline and optimized platform) for SSL-shaped
	// ops, letting clients compare achieved throughput to Figure 8.
	EstBaseCycles float64 `json:"est_base_cycles,omitempty"`
	EstOptCycles  float64 `json:"est_opt_cycles,omitempty"`

	// LoadUS is the answering node's total backlog-cost estimate (µs),
	// piggybacked on binary wire responses so a routing tier can feed its
	// per-node cost EWMAs without separate health probes.  Hop-local: the
	// wire layer stamps it at encode time and it never appears in JSON.
	LoadUS int64 `json:"-"`
}

// Validate applies admission-side request checks.  Every rejection is a
// *ValidationError so callers (and the hardened decode path, which applies
// the same size bounds before allocating) can classify it.
func (r *Request) Validate() error {
	if !ValidOp(r.Op) {
		return invalidf("op", "unknown op %q", r.Op)
	}
	if len(r.Payload) > MaxPayload {
		return invalidf("payload", "%d bytes exceeds limit %d", len(r.Payload), MaxPayload)
	}
	if len(r.ClientID) > MaxClientID {
		return invalidf("client_id", "%d bytes exceeds limit %d", len(r.ClientID), MaxClientID)
	}
	if r.RecordSize < 0 {
		return invalidf("record_size", "negative record size %d", r.RecordSize)
	}
	if r.DeadlineUS < 0 {
		return invalidf("deadline_us", "negative deadline %d", r.DeadlineUS)
	}
	if r.Attempt < 0 {
		return invalidf("attempt", "negative attempt %d", r.Attempt)
	}
	if r.Resume && r.Op != OpSSL && r.Op != OpHandshake {
		return invalidf("resume", "op %q has no handshake to resume", r.Op)
	}
	return nil
}
