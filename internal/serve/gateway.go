package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wisp/internal/aescipher"
	"wisp/internal/cache"
	"wisp/internal/mpz"
	"wisp/internal/pool"
	"wisp/internal/rsakey"
	"wisp/internal/ssl"
)

// Config tunes the gateway.  The zero value selects serving defaults.
type Config struct {
	// Shards is the number of worker shards (simulated platform
	// instances).  ≤0 selects GOMAXPROCS via pool.Workers.
	Shards int
	// QueueDepth bounds each shard's queue; a full queue sheds load.
	// Default 64.
	QueueDepth int
	// BatchMax caps how many queued requests one shard drains per cycle
	// (compatible record-layer ops in the drain are served as one batch).
	// Default 16.
	BatchMax int
	// BatchWidth caps how many drained RSA private-key ops fuse into one
	// batched-engine call (the lockstep multi-operand Montgomery path;
	// every gateway decrypt targets the shared gateway key, so drained
	// same-op groups share a modulus by construction).  0 selects the
	// default 4; 1 disables fusion and serves RSA ops scalar — the A/B
	// switch serve-bench flips.
	BatchWidth int
	// BatchGatherUS is the micro-batching window: when > 0 and a drained
	// rsa-decrypt group is narrower than BatchWidth, the shard waits up
	// to this many microseconds for more decrypts to arrive before
	// serving the group (non-decrypt arrivals dequeued while gathering
	// are served immediately after).  It trades bounded queueing latency
	// for fusion opportunities when request interarrival is close to the
	// service time; 0 (the default) disables the wait, fusing only ops
	// that were already queued together.
	BatchGatherUS int64
	// RSABits sizes the gateway handshake key.  Default 512: the
	// functional miniature SSL is a workload simulator, and small keys
	// keep handshake service times in the hundreds of microseconds.
	RSABits int
	// Seed makes shard key material, nonces and dispatch sampling
	// deterministic.  Default 1.
	Seed int64
	// SessionCap bounds the SSL session cache (master secrets resumable
	// by abbreviated handshakes).  0 selects the default 4096; negative
	// disables resumption entirely (every handshake is full).
	SessionCap int
	// SessionTTL expires cached sessions.  0 selects the default 10m.
	SessionTTL time.Duration

	// PaceHz enables model-paced serving: after finishing an op whose
	// response carries an optimized-platform cycle estimate, the shard
	// stretches the service time to EstOptCycles/PaceHz by sleeping the
	// remainder.  Each shard then serves exactly as fast as one simulated
	// platform instance at that clock (188e6 = the paper's 188 MHz), which
	// makes cluster-scaling experiments honest on a host with fewer cores
	// than daemons: N paced nodes deliver ~N× one paced node because the
	// bottleneck is the modeled silicon, not the shared host CPU.  Ops the
	// analytic model does not price (digests, HMAC, AES round trips) are
	// unpaced.  0 (the default) disables pacing.
	PaceHz float64

	// ClientRateUS enables per-client QoS isolation: each client may spend
	// this many microseconds of *estimated* op cost per second (the same
	// per-op service EWMAs dispatch prices backlogs with).  Arrivals beyond
	// the budget are shed with reason "throttle".  0 disables QoS entirely
	// (the default — the serving path is then identical to pre-QoS builds).
	ClientRateUS int64
	// ClientBurstUS is the token-bucket capacity; a fresh client may burst
	// this much estimated cost before the rate applies.  Default 2×rate.
	ClientBurstUS int64
	// FairLimitUS caps the gateway's outstanding dispatched cost before
	// deficit-round-robin fair queueing engages: below the limit requests
	// dispatch immediately, above it they park in per-client DRR flows.
	// Default 250ms of estimated work per shard.
	FairLimitUS int64
	// DRRQuantumUS is the per-round service credit each waiting client's
	// flow earns.  Default 10000 (10ms of estimated work).
	DRRQuantumUS int64
	// HeavyHitterK sizes the space-saving top-k sketch exported via
	// /stats.  Default 16.
	HeavyHitterK int
	// MaxClients bounds exact per-client accounting; further distinct IDs
	// share one overflow row (and one token bucket, so an ID-spray attack
	// rate-limits itself).  Default 4096.
	MaxClients int
	// MaxCostUS caps the estimated cost a single request may carry;
	// dearer requests are shed with reason "throttle" no matter how full
	// the client's bucket is.  This is the service-granularity bound: fair
	// queueing shares capacity *between* requests, so one request big
	// enough to monopolize a worker for whole seconds defeats it from the
	// inside.  0 (the default) disables the cap.
	MaxCostUS int64
}

// DefaultBaseCosts and DefaultOptCosts are the baseline and optimized
// platform cost models measured by Platform.SSLCosts at the default
// configuration (RSA-1024, seed 1) — baked in so the gateway can price
// transactions without re-running kernel characterization.  A root-package
// test pins them to a fresh Platform.SSLCosts run.
var (
	DefaultBaseCosts = ssl.Costs{
		RSADecrypt:        9.7402912e7,
		RSAPublic:         1.102682e6,
		HandshakeMisc:     5.84417472e7,
		CipherPerByte:     1663.375,
		MACPerByte:        16.1390625,
		RecordMiscPerByte: 293.8609375,
	}
	DefaultOptCosts = ssl.Costs{
		RSADecrypt:        1.2021460609756096e6,
		RSAPublic:         142605.36585365853,
		HandshakeMisc:     5.84417472e7,
		CipherPerByte:     37.875,
		MACPerByte:        16.1390625,
		RecordMiscPerByte: 293.8609375,
	}
)

const (
	// PlatformClockHz is the paper's 188 MHz target clock, used to convert
	// analytic cycle estimates into simulated-platform time.
	PlatformClockHz = 188e6
	// defaultRecordSize chunks OpSSL payloads into records when the
	// request names no record size.
	defaultRecordSize = 1024
	// precomputeKeys bounds each shard's RSA precompute cache (reducer
	// constants and CRT exponentiators per key fingerprint).
	precomputeKeys = 64
)

func (c Config) withDefaults() Config {
	c.Shards = pool.Workers(c.Shards, 0)
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	if c.BatchWidth == 0 {
		c.BatchWidth = 4
	}
	if c.BatchWidth < 1 {
		c.BatchWidth = 1
	}
	if c.RSABits == 0 {
		c.RSABits = 512
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SessionCap == 0 {
		c.SessionCap = 4096
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 10 * time.Minute
	}
	if c.ClientRateUS > 0 {
		if c.ClientBurstUS <= 0 {
			c.ClientBurstUS = 2 * c.ClientRateUS
		}
		if c.FairLimitUS <= 0 {
			c.FairLimitUS = int64(c.Shards) * 250_000
		}
		if c.DRRQuantumUS <= 0 {
			c.DRRQuantumUS = 10_000
		}
		if c.HeavyHitterK <= 0 {
			c.HeavyHitterK = 16
		}
		if c.MaxClients <= 0 {
			c.MaxClients = 4096
		}
	}
	return c
}

// task is one queued request with its response rendezvous.
type task struct {
	req      *Request
	enqueued time.Time
	deadline time.Time // zero = none
	estUS    int64     // admission's cost estimate, charged to owner until served
	owner    *shard    // shard whose backlog currently accounts this task
	stolen   bool      // true once an idle shard has taken it from owner's queue
	resp     chan *Response
}

// Gateway dispatches offload requests across worker shards.
type Gateway struct {
	cfg      Config
	key      *rsakey.PrivateKey
	shards   []*shard
	metrics  *Metrics
	sessions *ssl.SessionCache // shared session store; nil when resumption is disabled
	qos      *qos              // per-client isolation; nil when ClientRateUS == 0

	rngMu    sync.Mutex
	rng      *rand.Rand    // power-of-two-choices sampling
	workHint chan struct{} // pings idle shards that queued work exists somewhere

	draining   atomic.Bool
	drainMu    sync.RWMutex   // orders inflight registrations before Drain's Wait
	inflight   sync.WaitGroup // Submit calls in progress
	workers    sync.WaitGroup
	drainStart chan struct{} // closed when Drain begins: aborts gather waits
	drained    chan struct{}
	drainOne   sync.Once

	// batchWidth/batchGatherUS are the live values of the two batch knobs.
	// Seeded from Config and never touched again unless a governor calls
	// the setters, so a governor-less gateway behaves exactly as if the
	// flags were still read directly.
	batchWidth    atomic.Int64
	batchGatherUS atomic.Int64

	// replView snapshots the replication layer's counters for Stats; nil
	// when no replication is wired (SetSessionReplication never called).
	replView func() *ReplicationView
	// govView snapshots the adaptive governor's decision counters for
	// Stats; nil when no governor is attached.
	govView func() *GovernorView

	// beforeRun, when set, is called on the serving shard's goroutine
	// just before a scalar task runs.  Tests use it to hold a shard busy
	// for as long as they need, independent of host speed; it must be
	// set before the requests it should see are submitted.
	beforeRun func(*Request)
}

// NewGateway builds and starts a gateway: one RSA key, `Shards` worker
// shards each with its own RNG stream, established record session pair
// and symmetric key schedule.
func NewGateway(cfg Config) (*Gateway, error) {
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	key, err := rsakey.GenerateKey(rng, c.RSABits)
	if err != nil {
		return nil, fmt.Errorf("serve: generating %d-bit gateway key: %w", c.RSABits, err)
	}
	g := &Gateway{
		cfg:        c,
		key:        key,
		metrics:    NewMetrics(c.Shards),
		workHint:   make(chan struct{}, c.Shards*c.QueueDepth),
		drainStart: make(chan struct{}),
		drained:    make(chan struct{}),
	}
	g.batchWidth.Store(int64(c.BatchWidth))
	g.batchGatherUS.Store(c.BatchGatherUS)
	if c.SessionCap > 0 {
		g.sessions = ssl.NewSessionCache(c.SessionCap, c.SessionTTL)
	}
	if c.ClientRateUS > 0 {
		g.qos = newQoS(c)
	}
	g.shards = make([]*shard, c.Shards)
	for i := range g.shards {
		s, err := newShard(i, g, rng.Int63())
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		g.shards[i] = s
	}
	// The dispatch sampler continues the seeded stream, so shard key
	// material and admission choices derive from the one -seed.
	g.rng = rand.New(rand.NewSource(rng.Int63()))
	for _, s := range g.shards {
		g.workers.Add(1)
		go s.loop()
	}
	return g, nil
}

// SetSessionReplication wires the session-secret replication layer into
// the gateway's session cache: onStore observes every full-handshake
// store (the push feed — must not block), fetch consults ring peers on a
// local resume miss (the pull path), and stats (optional) feeds the
// replication counters into Stats.  Install before serving begins; the
// hooks are not synchronized.  Returns false (and installs nothing)
// when resumption is disabled.
func (g *Gateway) SetSessionReplication(onStore func(id, master []byte), fetch func(id []byte) ([]byte, bool), stats func() *ReplicationView) bool {
	if g.sessions == nil {
		return false
	}
	g.sessions.SetReplication(onStore, fetch)
	g.replView = stats
	return true
}

// ReplicaStore installs a session secret pushed by a ring peer — the
// wire listener routes Replicate frames here (wire.ReplicaHandler).
// A plain insert that never re-triggers the push hook, so replication
// cannot echo around the ring.
func (g *Gateway) ReplicaStore(id, master []byte) {
	if g.sessions != nil {
		g.sessions.PutReplica(id, master)
	}
}

// ReplicaLookup answers a peer's Fetch frame from the local session
// store only — peers must not recurse into each other's pull paths.
func (g *Gateway) ReplicaLookup(id []byte) ([]byte, bool) {
	if g.sessions == nil {
		return nil, false
	}
	return g.sessions.LookupLocal(id)
}

// Stats snapshots every counter, gauge and histogram, including the
// dispatch policy's live queue-cost and per-op pricing gauges.
func (g *Gateway) Stats() Stats {
	s := g.metrics.Snapshot(g.cfg.QueueDepth)
	s.QueueCostUS = make([]int64, len(g.shards))
	for i, sh := range g.shards {
		s.QueueCostUS[i] = sh.cost.Load()
	}
	s.OpCostUS = make(map[string]float64, len(AllOps))
	for _, op := range AllOps {
		var sum float64
		for _, sh := range g.shards {
			sum += sh.opCost(op)
		}
		s.OpCostUS[string(op)] = sum / float64(len(g.shards))
	}
	if g.sessions != nil {
		s.SessionCache = cacheView(g.sessions.Stats())
	}
	if g.replView != nil {
		s.Replication = g.replView()
	}
	if g.govView != nil {
		s.Governor = g.govView()
	}
	s.BatchWidth = g.BatchWidth()
	s.BatchGatherUS = g.BatchGatherUS()
	if g.qos != nil {
		s.QoS = g.qos.view()
	}
	var pre cache.Stats
	for _, sh := range g.shards {
		es := sh.env.engine.Stats()
		pre.Hits += es.Hits
		pre.Misses += es.Misses
		pre.Puts += es.Puts
		pre.Evictions += es.Evictions
		pre.Expired += es.Expired
		pre.Len += es.Len
		pre.Capacity += es.Capacity
	}
	s.Precompute = cacheView(pre)
	s.AESSchedule = cacheView(aescipher.ScheduleCacheStats())
	s.Runtime = ReadRuntimeStats()
	return s
}

// Config returns the resolved configuration.
func (g *Gateway) Config() Config { return g.cfg }

// BatchWidth returns the live RSA batch width (lanes per fused engine
// call; 1 = scalar serving).
func (g *Gateway) BatchWidth() int { return int(g.batchWidth.Load()) }

// SetBatchWidth changes the live RSA batch width.  Values below 1 clamp
// to 1 (scalar).  Takes effect on the next drained batch; in-progress
// chunks finish at their old width.
func (g *Gateway) SetBatchWidth(w int) {
	if w < 1 {
		w = 1
	}
	g.batchWidth.Store(int64(w))
}

// BatchGatherUS returns the live micro-batching gather window in µs.
func (g *Gateway) BatchGatherUS() int64 { return g.batchGatherUS.Load() }

// SetBatchGatherUS changes the live gather window (0 disables the wait).
func (g *Gateway) SetBatchGatherUS(us int64) {
	if us < 0 {
		us = 0
	}
	g.batchGatherUS.Store(us)
}

// SetGovernorView wires an adaptive governor's counter snapshot into
// Stats (mirrors SetSessionReplication's view hook).
func (g *Gateway) SetGovernorView(view func() *GovernorView) { g.govView = view }

// BacklogUS is the gateway's total estimated backlog (µs of priced work
// queued or in service across every shard) — the compact load figure the
// binary wire listener piggybacks on responses for routing tiers.
func (g *Gateway) BacklogUS() int64 {
	var total int64
	for _, sh := range g.shards {
		total += sh.cost.Load()
	}
	return total
}

// StatsJSON renders the stats snapshot as JSON (the wire-protocol stats
// frame payload and the HTTP /stats document).
func (g *Gateway) StatsJSON() ([]byte, error) {
	return json.Marshal(g.Stats())
}

// StatsText renders the stats snapshot as the wispd_* text dump.
func (g *Gateway) StatsText() string { return g.Stats().Text() }

// NoteRejectedDecode forwards a front-end decode rejection into the
// metrics core, so the HTTP and binary wire listeners count hardened-decode
// refusals in the same series.
func (g *Gateway) NoteRejectedDecode() { g.metrics.NoteRejectedDecode() }

// Draining reports whether the gateway has begun shutting down.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// Submit runs one request through admission control and, if admitted, a
// shard, blocking until the response is ready.  It never blocks on a full
// queue: admission control sheds instead, so a load spike degrades into
// fast rejections rather than unbounded latency.
func (g *Gateway) Submit(req *Request) *Response {
	if g.enter() {
		defer g.inflight.Done()
	}

	now := time.Now()
	om := g.metrics.op(req.Op)
	om.requests.Add(1)
	if req.Attempt > 0 {
		om.retries.Add(1)
	}
	if req.Hedge {
		om.hedges.Add(1)
	}

	if err := req.Validate(); err != nil {
		if req.preEst > 0 && g.qos != nil {
			g.qos.cancel(req.clientKey())
		}
		om.errors.Add(1)
		return &Response{ID: req.ID, Op: req.Op, Status: StatusError, Error: err.Error(), Shard: -1}
	}
	if g.draining.Load() {
		if req.preEst > 0 && g.qos != nil {
			g.qos.cancel(req.clientKey())
		}
		om.shed.Add(1)
		g.metrics.shedDraining.Add(1)
		return &Response{ID: req.ID, Op: req.Op, Status: StatusShed, ShedReason: "draining", Error: "gateway draining", Shard: -1}
	}

	if g.qos == nil {
		return g.dispatch(req, om, now)
	}
	// QoS isolation: charge the client's token bucket with the admission
	// cost estimate, then pass the fair-queue gate.  Throttle sheds are
	// policy, not capacity — they never count toward shed_while_idle.
	// Requests preadmitted at the envelope (see Preadmit) carry their
	// charge already and skip straight to the fair queue.
	cid := req.clientKey()
	est := req.preEst
	if est == 0 {
		est = g.estReqCost(req.Op, len(req.Payload))
		if !g.qos.admit(cid, est) {
			om.shed.Add(1)
			g.metrics.shedThrottle.Add(1)
			return &Response{ID: req.ID, Op: req.Op, Status: StatusShed, ShedReason: "throttle",
				Error: fmt.Sprintf("client %q over rate limit", cid), Shard: -1}
		}
	}
	g.qos.acquire(cid, est)
	resp := g.dispatch(req, om, now)
	g.qos.finish(cid, est, resp.Status)
	return resp
}

// enter registers an in-flight Submit unless the gateway is draining.
// Holding drainMu's read side makes every registration happen before
// Drain's inflight.Wait or not at all, as sync.WaitGroup requires of an
// Add from zero; a Submit that is not registered is shed by the draining
// check.  Only Drain takes the write side, so Submits never contend.
func (g *Gateway) enter() bool {
	g.drainMu.RLock()
	defer g.drainMu.RUnlock()
	if g.draining.Load() {
		return false
	}
	g.inflight.Add(1)
	return true
}

// Preadmit prices one request from its envelope alone — op, client key
// and payload size are all knowable before the payload is decoded — and
// charges the client's token bucket.  A nil response means proceed: the
// caller materializes the payload, stamps the request with
// SetPreadmitted(est) and Submits it.  A non-nil response is the throttle
// shed to answer with; the refused payload is never materialized, so a
// client the bucket has already cut off cannot make the gateway pay the
// base64-and-allocate cost of work it will not do.  Unknown ops and the
// QoS-off/draining paths pass through unpriced (est 0) — Submit rejects
// or sheds those with the same answers it always gave.
func (g *Gateway) Preadmit(op Op, clientKey string, payloadBytes int) (int64, *Response) {
	if g.qos == nil || !ValidOp(op) || g.draining.Load() {
		return 0, nil
	}
	est := g.estReqCost(op, payloadBytes)
	if g.qos.admit(clientKey, est) {
		return est, nil
	}
	om := g.metrics.op(op)
	om.requests.Add(1)
	om.shed.Add(1)
	g.metrics.shedThrottle.Add(1)
	return est, &Response{Op: op, Status: StatusShed, ShedReason: "throttle",
		Error: fmt.Sprintf("client %q over rate limit", clientKey), Shard: -1}
}

// CancelPreadmit backs out a successful Preadmit whose request never made
// it to Submit (the payload failed to materialize).  The tokens stay
// spent; only the in-flight accounting is closed out.
func (g *Gateway) CancelPreadmit(clientKey string) {
	if g.qos != nil {
		g.qos.cancel(clientKey)
	}
}

// estReqCost is the gateway-wide admission estimate for one request, the
// QoS layer's cost currency.  Fixed-cost ops (asymmetric key work
// dominates) are priced by the shards' per-op service EWMAs.  Bulk ops
// are priced per byte: a 256 KiB payload is charged ~64x a 4 KiB one
// instead of sharing its op class's mean — without this, an attacker
// streaming maximum-size payloads is admitted at the class's
// small-payload price until the EWMAs catch up, and by then the backlog
// damage is done.
func (g *Gateway) estReqCost(op Op, payloadBytes int) int64 {
	var sum float64
	perByte := opBytePrior(op) > 0
	for _, sh := range g.shards {
		if perByte {
			sum += sh.opByteCost(op)
		} else {
			sum += sh.opCost(op)
		}
	}
	mean := sum / float64(len(g.shards))
	if perByte {
		if payloadBytes < 1 {
			payloadBytes = 1
		}
		mean *= float64(payloadBytes)
	}
	est := int64(mean + 0.5)
	if est < 1 {
		est = 1
	}
	return est
}

// dispatch runs one validated, QoS-admitted request through shard
// selection, deadline-aware admission and a shard queue, blocking until
// the response is ready.
func (g *Gateway) dispatch(req *Request, om *opMetrics, now time.Time) *Response {
	sh, redirected := g.pick(req.Op)

	t := &task{req: req, enqueued: now, resp: make(chan *Response, 1)}
	if req.DeadlineUS > 0 {
		t.deadline = now.Add(time.Duration(req.DeadlineUS) * time.Microsecond)
		// Deadline-aware rejection: the estimated wait is the chosen
		// shard's whole backlog cost — queued tasks priced by per-op
		// EWMAs plus the task currently in service — so a pending
		// handshake and a pending record op are priced differently and
		// the in-service op is no longer undercounted.  Before shedding,
		// fall back to the globally cheapest shard: a request is never
		// rejected on deadline while capacity exists elsewhere.
		wait := sh.cost.Load()
		if wait > req.DeadlineUS {
			if alt := g.cheapest(); alt != sh && alt.cost.Load() <= req.DeadlineUS {
				sh, redirected = alt, true
				wait = alt.cost.Load()
			}
		}
		if wait > req.DeadlineUS {
			om.shed.Add(1)
			g.metrics.shedDeadline.Add(1)
			g.noteShedWhileIdle()
			return &Response{ID: req.ID, Op: req.Op, Status: StatusShed, ShedReason: "deadline", Shard: sh.id,
				Error: fmt.Sprintf("backlog %dµs exceeds deadline %dµs", wait, req.DeadlineUS)}
		}
	}

	if !g.enqueue(sh, t) {
		// Chosen queue full: place the task on the cheapest shard with
		// space before giving up.
		alt := g.enqueueAnywhere(t, sh)
		if alt == nil {
			om.shed.Add(1)
			g.metrics.shedQueueFull.Add(1)
			g.noteShedWhileIdle()
			return &Response{ID: req.ID, Op: req.Op, Status: StatusShed, ShedReason: "queue-full", Error: "queue full", Shard: sh.id}
		}
		sh, redirected = alt, true
	}
	if redirected {
		om.redirects.Add(1)
	}

	resp := <-t.resp
	switch resp.Status {
	case StatusOK:
		om.ok.Add(1)
		if resp.Resumed {
			om.resumed.Add(1)
		}
		om.bytes.Add(uint64(len(req.Payload)))
		total := float64(resp.QueueUS + resp.ServiceUS)
		om.latency.Observe(total)
		om.service.Observe(float64(resp.ServiceUS))
	case StatusExpired:
		om.expired.Add(1)
		g.metrics.expired.Add(1)
	case StatusError:
		om.errors.Add(1)
	}
	return resp
}

// pick chooses the admission shard.  It samples two distinct shards
// and takes the one with the cheaper estimated backlog
// (power-of-two-choices); the bool reports whether the choice differs
// from the first-sampled candidate (a redirect).  With one shard it is
// the identity, so `-seed` runs at workers=1 stay fully deterministic.
func (g *Gateway) pick(op Op) (*shard, bool) {
	n := len(g.shards)
	if n == 1 {
		return g.shards[0], false
	}
	g.rngMu.Lock()
	i := g.rng.Intn(n)
	j := g.rng.Intn(n - 1)
	g.rngMu.Unlock()
	if j >= i {
		j++
	}
	a, b := g.shards[i], g.shards[j]
	ca, cb := a.cost.Load(), b.cost.Load()
	if cb < ca || (cb == ca && b.id < a.id) {
		return b, true
	}
	return a, false
}

// cheapest scans every shard for the lowest estimated backlog cost.
func (g *Gateway) cheapest() *shard {
	best := g.shards[0]
	bc := best.cost.Load()
	for _, sh := range g.shards[1:] {
		if c := sh.cost.Load(); c < bc {
			best, bc = sh, c
		}
	}
	return best
}

// enqueue prices t for sh (per-op EWMA), charges sh's backlog and
// attempts a non-blocking enqueue, rolling the charge back on a full
// queue.  A successful enqueue pings idle shards so queued work can be
// stolen promptly.
func (g *Gateway) enqueue(sh *shard, t *task) bool {
	est := int64(sh.opCost(t.req.Op) + 0.5)
	if est < 1 {
		est = 1
	}
	t.estUS, t.owner = est, sh
	sh.cost.Add(est)
	g.metrics.queueDepth[sh.id].Add(1)
	select {
	case sh.queue <- t:
		g.hintWork()
		return true
	default:
		sh.cost.Add(-est)
		g.metrics.queueDepth[sh.id].Add(-1)
		return false
	}
}

// enqueueAnywhere retries a full-queue admission on the remaining shards
// in ascending backlog-cost order, returning the shard that accepted or
// nil if every queue is full.
func (g *Gateway) enqueueAnywhere(t *task, tried *shard) *shard {
	order := make([]*shard, 0, len(g.shards)-1)
	for _, sh := range g.shards {
		if sh != tried {
			order = append(order, sh)
		}
	}
	for len(order) > 0 {
		best := 0
		for i := 1; i < len(order); i++ {
			if order[i].cost.Load() < order[best].cost.Load() {
				best = i
			}
		}
		sh := order[best]
		if g.enqueue(sh, t) {
			return sh
		}
		order = append(order[:best], order[best+1:]...)
	}
	return nil
}

// hintWork wakes at most one idle shard to look for stealable work.
func (g *Gateway) hintWork() {
	if len(g.shards) == 1 {
		return
	}
	select {
	case g.workHint <- struct{}{}:
	default:
	}
}

// noteShedWhileIdle counts sheds issued while some shard had an empty
// backlog — the head-of-line signature cost-aware dispatch exists to
// eliminate.  It should stay zero.
func (g *Gateway) noteShedWhileIdle() {
	for _, sh := range g.shards {
		if sh.cost.Load() == 0 {
			g.metrics.shedWhileIdle.Add(1)
			return
		}
	}
}

// Drain stops admission and waits for every queued request to finish.
// After Drain returns, worker shards have exited; further Submit calls
// are shed with "gateway draining".  Safe to call more than once.
func (g *Gateway) Drain(ctx context.Context) error {
	g.drainMu.Lock()
	g.draining.Store(true)
	g.drainMu.Unlock()
	g.drainOne.Do(func() {
		// Wake any shard parked in a gather window: no more arrivals can
		// come, so waiting out the window would only delay shutdown.
		close(g.drainStart)
		go func() {
			// Every admitted task's Submit call is still parked on its
			// response channel, so waiting for in-flight Submits to return
			// is exactly waiting for the queues to empty.
			g.inflight.Wait()
			for _, s := range g.shards {
				close(s.stop)
			}
			g.workers.Wait()
			close(g.drained)
		}()
	})
	select {
	case <-g.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// estTransaction prices one SSL transaction of n payload bytes under both
// cost models.
func (g *Gateway) estTransaction(n int) (base, opt float64) {
	return DefaultBaseCosts.Transaction(n).Total(), DefaultOptCosts.Transaction(n).Total()
}

// estRecord prices n record-layer bytes (no handshake) under both models.
func (g *Gateway) estRecord(n int) (base, opt float64) {
	f := func(c *ssl.Costs) float64 {
		return (c.CipherPerByte + c.MACPerByte + c.RecordMiscPerByte) * float64(n)
	}
	return f(&DefaultBaseCosts), f(&DefaultOptCosts)
}

// estHandshake prices the handshake alone under both models.
func (g *Gateway) estHandshake() (base, opt float64) {
	f := func(c *ssl.Costs) float64 { return c.RSADecrypt + c.RSAPublic + c.HandshakeMisc }
	return f(&DefaultBaseCosts), f(&DefaultOptCosts)
}

// estTransactionResumed prices one resumed SSL transaction (abbreviated
// handshake: no RSA work, scaled misc) under both cost models.
func (g *Gateway) estTransactionResumed(n int) (base, opt float64) {
	return DefaultBaseCosts.ResumedTransaction(n).Total(), DefaultOptCosts.ResumedTransaction(n).Total()
}

// estHandshakeResumed prices the abbreviated handshake alone.
func (g *Gateway) estHandshakeResumed() (base, opt float64) {
	f := func(c *ssl.Costs) float64 { return ssl.ResumedHandshakeMiscScale * c.HandshakeMisc }
	return f(&DefaultBaseCosts), f(&DefaultOptCosts)
}

// opPrior is the per-op service-time prior (µs) before a shard has
// observed that op: heavy private-key work is priced ~an order of
// magnitude above record-layer and digest ops, so the very first
// dispatch decisions already separate the two classes.
func opPrior(op Op) float64 {
	switch op {
	case OpSSL, OpHandshake:
		return 2000
	case OpRSADecrypt:
		return 1000
	default:
		return 100
	}
}

// opBytePrior is the per-byte service-time prior (µs/byte) for ops whose
// cost scales with payload size — the record layer, symmetric ciphers
// and digests.  Zero marks fixed-cost ops (the asymmetric key work
// dominates regardless of payload), which stay priced by opPrior and the
// per-op EWMA.  1µs/byte is deliberately pessimistic for the digests:
// unknown bulk work is over-charged at admission and the per-byte EWMA
// corrects downward within a few observations, which is the safe
// direction — under-charging is what lets a payload-size attack through.
func opBytePrior(op Op) float64 {
	switch op {
	case OpSSL, OpHandshake, OpRSADecrypt, OpRSAEncrypt:
		return 0
	default:
		return 1.0
	}
}

// shard is one worker: a bounded queue, a private platform instance
// (RNG stream, RSA contexts, long-lived record session pair, symmetric
// schedules), per-op service-time EWMAs and a live backlog-cost estimate
// for cost-aware dispatch and deadline-aware admission.
type shard struct {
	id    int
	g     *Gateway
	queue chan *task
	stop  chan struct{}

	rng *rand.Rand
	ctx *mpz.Ctx
	env *shardEnv

	// cost is the estimated µs of work this shard is committed to:
	// every queued task's admission estimate plus the task currently in
	// service.  Charged at enqueue, released when the task completes, so
	// admission's wait estimate includes in-service work.
	cost atomic.Int64
	// opEWMA holds one service-time EWMA per op (float64 bits, µs), so a
	// pending handshake and a pending record op are priced differently.
	opEWMA map[Op]*atomic.Uint64
	// opByteEWMA holds a per-byte service-time EWMA (float64 bits,
	// µs/byte) for bulk ops only, so QoS admission can price a request by
	// its actual payload size instead of its op class's size mix.
	opByteEWMA map[Op]*atomic.Uint64
}

func newShard(id int, g *Gateway, seed int64) (*shard, error) {
	s := &shard{
		id:         id,
		g:          g,
		queue:      make(chan *task, g.cfg.QueueDepth),
		stop:       make(chan struct{}),
		rng:        rand.New(rand.NewSource(seed)),
		ctx:        mpz.NewCtx(nil),
		opEWMA:     make(map[Op]*atomic.Uint64, len(AllOps)),
		opByteEWMA: make(map[Op]*atomic.Uint64, len(AllOps)),
	}
	for _, op := range AllOps {
		v := new(atomic.Uint64)
		v.Store(math.Float64bits(opPrior(op)))
		s.opEWMA[op] = v
		if p := opBytePrior(op); p > 0 {
			b := new(atomic.Uint64)
			b.Store(math.Float64bits(p))
			s.opByteEWMA[op] = b
		}
	}
	env, err := newShardEnv(s)
	if err != nil {
		return nil, err
	}
	s.env = env
	return s, nil
}

// opCost returns this shard's service-time estimate (µs) for op.
func (s *shard) opCost(op Op) float64 {
	if v, ok := s.opEWMA[op]; ok {
		return math.Float64frombits(v.Load())
	}
	return opPrior(op)
}

// opByteCost returns this shard's per-byte service-time estimate
// (µs/byte) for a bulk op.
func (s *shard) opByteCost(op Op) float64 {
	if v, ok := s.opByteEWMA[op]; ok {
		return math.Float64frombits(v.Load())
	}
	return opBytePrior(op)
}

// observeService folds one measured service time into the op's EWMA —
// and, for bulk ops, into the per-byte EWMA that QoS admission prices
// payload sizes with.  Only the shard's own worker goroutine writes, so
// plain stores are safe.
func (s *shard) observeService(op Op, us float64, payloadBytes int) {
	const alpha = 0.2
	if v, ok := s.opEWMA[op]; ok {
		cur := math.Float64frombits(v.Load())
		v.Store(math.Float64bits(cur + alpha*(us-cur)))
	}
	if v, ok := s.opByteEWMA[op]; ok && payloadBytes > 0 {
		perByte := us / float64(payloadBytes)
		cur := math.Float64frombits(v.Load())
		v.Store(math.Float64bits(cur + alpha*(perByte-cur)))
	}
}

// loop is the shard worker: block for one task, drain up to BatchMax-1
// more without blocking, then serve the batch grouped by op.  While its
// own queue is empty it answers work hints by stealing queued tasks from
// the most-loaded neighbor, so an admitted request is never stuck behind
// an expensive op while capacity exists.  On stop it finishes whatever
// is still queued (graceful drain) before exiting.
func (s *shard) loop() {
	defer s.g.workers.Done()
	for {
		select {
		case t := <-s.queue:
			s.serveOwn(t)
		case <-s.g.workHint:
			if !s.serveOwnNonblock() {
				s.stealOne()
			}
		case <-s.stop:
			for {
				select {
				case t := <-s.queue:
					s.serveOwn(t)
				default:
					return
				}
			}
		}
	}
}

// serveOwn drains a batch starting at first from the shard's own queue
// and serves it.
func (s *shard) serveOwn(first *task) {
	batch := s.collect(first)
	s.g.metrics.queueDepth[s.id].Add(-int64(len(batch)))
	s.serveBatch(batch)
}

// serveOwnNonblock serves one pending batch from the shard's own queue
// if any, reporting whether it did.
func (s *shard) serveOwnNonblock() bool {
	select {
	case t := <-s.queue:
		s.serveOwn(t)
		return true
	default:
		return false
	}
}

// stealOne takes one queued task from the most-loaded other shard and
// serves it here, transferring the backlog charge so admission estimates
// stay consistent.
func (s *shard) stealOne() {
	var victim *shard
	var worst int64
	for _, v := range s.g.shards {
		if v == s || s.g.metrics.queueDepth[v.id].Load() == 0 {
			continue
		}
		if c := v.cost.Load(); victim == nil || c > worst {
			victim, worst = v, c
		}
	}
	if victim == nil {
		return
	}
	select {
	case t := <-victim.queue:
		s.g.metrics.queueDepth[victim.id].Add(-1)
		victim.cost.Add(-t.estUS)
		s.cost.Add(t.estUS)
		t.owner = s
		t.stolen = true
		s.g.metrics.op(t.req.Op).steals.Add(1)
		s.serveBatch([]*task{t})
	default:
	}
}

func (s *shard) collect(first *task) []*task {
	batch := []*task{first}
	for len(batch) < s.g.cfg.BatchMax {
		select {
		case t := <-s.queue:
			batch = append(batch, t)
		default:
			return batch
		}
	}
	return batch
}

// serveBatch groups a drained batch by op (preserving arrival order
// within each group) and serves each group; compatible record-layer ops
// thus share one pass over the shard's session machinery.
func (s *shard) serveBatch(batch []*task) {
	width, gather := s.g.BatchWidth(), s.g.BatchGatherUS()
	var order []Op
	groups := make(map[Op][]*task)
	for _, t := range batch {
		if _, ok := groups[t.req.Op]; !ok {
			order = append(order, t.req.Op)
		}
		groups[t.req.Op] = append(groups[t.req.Op], t)
	}
	for _, op := range order {
		group := groups[op]
		s.g.metrics.batch.Observe(float64(len(group)))
		if op == OpRSADecrypt && width > 1 &&
			(len(group) >= 2 || gather > 0) {
			// ≥2 queued decrypts against the shared gateway key — or a
			// gather window that may find more: upgrade the same-op group
			// to the lockstep batched engine (batch.go).
			s.serveRSABatch(group)
			continue
		}
		if op == OpRSADecrypt {
			s.g.metrics.rsaScalar.Add(uint64(len(group)))
		}
		for _, t := range group {
			s.serveOne(t, len(group))
		}
	}
}

// serveOne executes one task (deadline check, op dispatch, reply) and
// releases its backlog charge.
func (s *shard) serveOne(t *task, batchSize int) {
	start := time.Now()
	queueUS := start.Sub(t.enqueued).Microseconds()
	resp := &Response{ID: t.req.ID, Op: t.req.Op, Shard: s.id, Batch: batchSize, QueueUS: queueUS, Stolen: t.stolen}

	if !t.deadline.IsZero() && start.After(t.deadline) {
		resp.Status = StatusExpired
		resp.Error = fmt.Sprintf("deadline exceeded after %dµs in queue", queueUS)
		t.owner.cost.Add(-t.estUS)
		t.resp <- resp
		return
	}

	if s.g.beforeRun != nil {
		s.g.beforeRun(t.req)
	}
	if err := s.run(t.req, resp); err != nil {
		resp.Status = StatusError
		resp.Error = err.Error()
	} else {
		resp.Status = StatusOK
	}
	// Model pacing: stretch the service time to what the optimized
	// simulated platform would need.  The sleep happens before the
	// ServiceUS measurement and the EWMA observation, so backlog costs,
	// deadline admission and QoS pricing all see the paced service time —
	// the shard genuinely behaves like one 188 MHz platform instance.
	if hz := s.g.cfg.PaceHz; hz > 0 && resp.EstOptCycles > 0 {
		target := time.Duration(resp.EstOptCycles / hz * 1e9)
		if elapsed := time.Since(start); elapsed < target {
			time.Sleep(target - elapsed)
		}
	}
	resp.ServiceUS = time.Since(start).Microseconds()
	s.observeService(t.req.Op, float64(resp.ServiceUS), len(t.req.Payload))
	t.owner.cost.Add(-t.estUS)
	t.resp <- resp
}
