package gwroute

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wisp/internal/serve"
)

// Config tunes a Router.  Backends and Dial are required; everything else
// has a default.
type Config struct {
	// Backends lists the wispd wire addresses ("host:port") to route over.
	Backends []string
	// Replicas is the ring's virtual-node count per backend.  Default 64.
	Replicas int
	// MaxInflight bounds concurrently-routed requests per backend; a node
	// at the bound is passed over like an ejected one.  Default 128.
	MaxInflight int64
	// FailThreshold ejects a backend after this many consecutive transport
	// failures.  Default 2.
	FailThreshold int
	// EjectFor is the quarantine after ejection; when it lapses the node is
	// half-open (the next pick probes it; a failure re-ejects immediately,
	// because the consecutive-failure count only resets on success).
	// Default 2s.
	EjectFor time.Duration
	// NodeRetries caps how many *additional* backends one request may try
	// after a transport failure (each retry excludes every node already
	// tried).  Default len(Backends)-1: a request visits each node at most
	// once.
	NodeRetries int
	// Seed makes power-of-two-choices sampling deterministic.  Default 1.
	Seed int64
	// Dial opens the transport to one backend (cmd/wispgw passes wire.Dial;
	// tests inject fakes).  Required.
	Dial func(addr string) (serve.Transport, error)

	// CostAlpha is the per-node backlog EWMA smoothing factor fed by the
	// loadUS figure piggybacked on wire responses.  Default 0.3.
	CostAlpha float64

	// CoRouteRSA concentrates non-resume rsa-decrypt traffic for the same
	// key material (Request.Key, or the gateway default key when unset)
	// onto one ring-chosen backend, so that backend's precompute cache and
	// batch engine see every decrypt under that key instead of a 1/Nth
	// slice.  Bounded: the preferred backend is used only while available
	// and not over the CoRouteFactor cost ceiling; otherwise the request
	// spills to normal p2c.  Default off.
	CoRouteRSA bool
	// CoRouteFactor is the co-routing load ceiling: spill to p2c when the
	// preferred backend's estimated cost exceeds factor × the cheapest
	// alternative plus one service-time penalty.  Default 2.0.
	CoRouteFactor float64

	// Now overrides the clock for ejection/quarantine bookkeeping (tests
	// inject a fake to pin eject → quarantine → half-open transitions
	// deterministically).  Default time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 128
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.EjectFor <= 0 {
		c.EjectFor = 2 * time.Second
	}
	if c.NodeRetries == 0 {
		c.NodeRetries = len(c.Backends) - 1
	}
	if c.NodeRetries < 0 {
		c.NodeRetries = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CostAlpha <= 0 || c.CostAlpha > 1 {
		c.CostAlpha = 0.3
	}
	if c.CoRouteFactor <= 0 {
		c.CoRouteFactor = 2.0
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// inflightPenaltyUS is the floor for the per-outstanding-request cost
// penalty p2c adds to a node's backlog EWMA.  The penalty matters because
// the EWMA is stale between responses: during a burst, every arrival
// would otherwise herd onto the momentarily-cheapest node (its EWMA
// cannot rise until a response comes back), serializing the cluster to
// one node's throughput.  Once a node has observed round trips, the
// penalty scales to its round-trip EWMA — "joining this node costs one
// more service time" — which spreads a burst across nodes even while
// every backlog EWMA is stale.
const inflightPenaltyUS = 1000

// node is one backend's routing state.
type node struct {
	addr string

	trMu sync.Mutex // guards tr (nil until the first successful dial)
	tr   serve.Transport

	inflight atomic.Int64
	costBits atomic.Uint64 // EWMA of piggybacked loadUS, float64 bits
	rttBits  atomic.Uint64 // EWMA of observed round-trip µs, float64 bits
	fails    atomic.Int64  // consecutive transport failures
	ejected  atomic.Int64  // unix-nano quarantine deadline, 0 = live

	// Routing counters (exported via Stats).
	picks     atomic.Uint64 // times this node served a routed request
	affinity  atomic.Uint64 // resume requests served as the ring owner
	redirects atomic.Uint64 // resume requests served while NOT the owner
	ejections atomic.Uint64 // times the failure threshold tripped
	failures  atomic.Uint64 // transport failures, total
	okResp    atomic.Uint64
	shedResp  atomic.Uint64
	errResp   atomic.Uint64
	rtt       serve.Histogram // gateway-observed round trip, µs
}

// newNode builds a backend's routing state.  The EWMAs start at the NaN
// "unseeded" sentinel so a first observation of 0 µs (an idle backend) is
// distinguishable from no observation at all.
func newNode(addr string) *node {
	n := &node{addr: addr}
	n.costBits.Store(math.Float64bits(math.NaN()))
	n.rttBits.Store(math.Float64bits(math.NaN()))
	return n
}

// cost is the node's current backlog estimate in µs; an unseeded EWMA
// reads as 0 (no backlog observed yet).
func (n *node) cost() float64 {
	c := math.Float64frombits(n.costBits.Load())
	if math.IsNaN(c) {
		return 0
	}
	return c
}

// observeLoad folds one piggybacked load figure into the EWMA.
func (n *node) observeLoad(loadUS int64, alpha float64) {
	ewmaAdd(&n.costBits, float64(loadUS), alpha)
}

// observeRTT folds one gateway-observed round trip into the EWMA that
// scales the in-flight penalty.
func (n *node) observeRTT(us float64, alpha float64) {
	ewmaAdd(&n.rttBits, us, alpha)
}

// penaltyUS is the estimated cost of parking one more request on this
// node: its round-trip EWMA, floored at inflightPenaltyUS until round
// trips have been observed.
func (n *node) penaltyUS() float64 {
	if rtt := math.Float64frombits(n.rttBits.Load()); rtt > inflightPenaltyUS {
		return rtt
	}
	return inflightPenaltyUS
}

// ewmaAdd folds v into a lock-free float64-bits EWMA.  NaN is the
// explicit "unseeded" sentinel: only the very first observation replaces
// it wholesale.  (Testing `cur == 0` here was a bug — an idle backend
// legitimately reporting loadUS=0 kept getting re-seeded, so one spike
// jumped the estimate straight to the spike value instead of blending.)
func ewmaAdd(bits *atomic.Uint64, v, alpha float64) {
	for {
		old := bits.Load()
		cur := math.Float64frombits(old)
		next := cur + alpha*(v-cur)
		if math.IsNaN(cur) {
			next = v // first observation seeds the EWMA
		}
		if bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// transport returns the node's live transport, dialing (once) if the
// boot-time dial failed.  wire.Transport redials internally after
// connection loss, so this path only runs for never-connected nodes.
func (n *node) transport(dial func(string) (serve.Transport, error)) (serve.Transport, error) {
	n.trMu.Lock()
	defer n.trMu.Unlock()
	if n.tr != nil {
		return n.tr, nil
	}
	tr, err := dial(n.addr)
	if err != nil {
		return nil, err
	}
	n.tr = tr
	return tr, nil
}

// closeTransport closes the node's transport if one was ever dialed.
func (n *node) closeTransport() error {
	n.trMu.Lock()
	defer n.trMu.Unlock()
	if n.tr == nil {
		return nil
	}
	return n.tr.Close()
}

// available reports whether the node may be picked now: under the
// in-flight bound and not quarantined (an expired quarantine is half-open
// and counts as available).
func (n *node) available(now int64, maxInflight int64) bool {
	if n.inflight.Load() >= maxInflight {
		return false
	}
	dl := n.ejected.Load()
	return dl == 0 || now >= dl
}

// Router routes requests over a set of wispd backends.  It implements
// serve.Handler, so cmd/wispgw fronts it with the same wire.Server and
// serve.Server that front a single gateway.
type Router struct {
	cfg   Config
	nodes []*node
	ring  *Ring
	start time.Time

	rngMu sync.Mutex
	rng   *rand.Rand

	draining       atomic.Bool
	rejectedDecode atomic.Uint64
	exhausted      atomic.Uint64 // requests shed after every retry failed
	shedDraining   atomic.Uint64
	// resumeFailover counts Resume requests routed past an unavailable
	// ring owner to a successor — the cluster-level signal that session
	// replication (not affinity) is carrying resumption.
	resumeFailover atomic.Uint64
	// coRouted/coRouteSpill split rsa-decrypt picks under CoRouteRSA:
	// served by the key's preferred backend vs spilled to p2c because the
	// preferred backend was unavailable or over the cost ceiling.
	coRouted     atomic.Uint64
	coRouteSpill atomic.Uint64
}

// NewRouter dials every backend and builds the routing state.  A backend
// that fails to dial is still registered (marked failed and quarantined);
// routing starts as long as at least one dial succeeded, so a cluster
// boots even if one node is slow to come up.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gwroute: no backends")
	}
	if len(cfg.Backends) > 64 {
		return nil, fmt.Errorf("gwroute: %d backends exceeds the 64-node limit", len(cfg.Backends))
	}
	if cfg.Dial == nil {
		return nil, fmt.Errorf("gwroute: Config.Dial is required")
	}
	ring, err := NewRing(cfg.Backends, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:   cfg,
		ring:  ring,
		start: cfg.Now(),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	live := 0
	for _, addr := range cfg.Backends {
		n := newNode(addr)
		tr, err := cfg.Dial(addr)
		if err == nil {
			n.tr = tr
			live++
		} else {
			n.fails.Store(int64(cfg.FailThreshold))
			n.ejected.Store(cfg.Now().Add(cfg.EjectFor).UnixNano())
			n.ejections.Add(1)
		}
		r.nodes = append(r.nodes, n)
	}
	if live == 0 {
		return nil, fmt.Errorf("gwroute: no backend reachable (tried %d)", len(cfg.Backends))
	}
	return r, nil
}

// Drain marks the router draining: new requests shed with reason
// "draining" exactly like a draining gateway, so clients and health
// checks see the same shutdown protocol cluster-wide.  In-flight requests
// finish on their backends; the front end's own shutdown waits for them,
// so Drain returns at once.
func (r *Router) Drain(context.Context) error {
	r.draining.Store(true)
	return nil
}

// Draining reports whether Drain was called.
func (r *Router) Draining() bool { return r.draining.Load() }

// Close closes every backend transport.
func (r *Router) Close() error {
	var first error
	for _, n := range r.nodes {
		if err := n.closeTransport(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Submit routes one request: ring-affinity for resumption, p2c by backlog
// cost otherwise, retrying on other backends after transport failures.
// Responses (including backend sheds) return as-is; only transport
// exhaustion synthesizes a shed here, with reason "backend-failure" so
// the client retry policy treats a dead-node window like any other
// retryable shed.
func (r *Router) Submit(req *serve.Request) *serve.Response {
	if r.draining.Load() {
		r.shedDraining.Add(1)
		return &serve.Response{ID: req.ID, Op: req.Op, Status: serve.StatusShed,
			ShedReason: "draining", Error: "gateway draining", Shard: -1}
	}
	var visited uint64
	var lastErr error
	for attempt := 0; attempt <= r.cfg.NodeRetries; attempt++ {
		idx, viaRing := r.pick(req, &visited)
		if idx < 0 {
			break
		}
		visited |= 1 << uint(idx)
		n := r.nodes[idx]
		resp, err := r.roundTrip(n, req)
		if err == nil {
			n.picks.Add(1)
			if viaRing {
				if idx == r.ring.Owner(clientKey(req)) {
					n.affinity.Add(1)
				} else {
					n.redirects.Add(1)
				}
			}
			return resp
		}
		lastErr = err
	}
	r.exhausted.Add(1)
	msg := "no backend available"
	if lastErr != nil {
		msg = lastErr.Error()
	}
	return &serve.Response{ID: req.ID, Op: req.Op, Status: serve.StatusShed,
		ShedReason: "backend-failure", Error: msg, Shard: -1}
}

// clientKey is the affinity identity: the ClientID, with the same
// empty-means-anonymous convention the QoS layer uses.
func clientKey(req *serve.Request) string {
	if req.ClientID == "" {
		return "-"
	}
	return req.ClientID
}

// pick chooses the next backend for req, excluding nodes whose bit is set
// in visited.  Resumption traffic walks the ring from its owner (session
// affinity; failover order is the ring order).  Fresh traffic samples two
// distinct candidates and takes the cheaper (backlog EWMA plus an
// in-flight penalty).  If no node is available, any unvisited node is a
// last resort — trying a quarantined backend beats shedding.  Returns -1
// when every node has been visited.
func (r *Router) pick(req *serve.Request, visited *uint64) (idx int, viaRing bool) {
	now := r.cfg.Now().UnixNano()
	if req.Resume {
		choice, owner := -1, -1
		r.ring.Order(clientKey(req), func(node int) bool {
			if owner < 0 {
				owner = node // ring order starts at the key's owner
			}
			if *visited&(1<<uint(node)) != 0 {
				return true
			}
			if r.nodes[node].available(now, r.cfg.MaxInflight) {
				choice = node
				return false
			}
			if choice < 0 {
				choice = node // remember the first unvisited as last resort
			}
			return true
		})
		if choice >= 0 && choice != owner {
			// The owner was quarantined, saturated or already tried: this
			// resume rides a successor, where only a replicated secret can
			// keep the handshake abbreviated.
			r.resumeFailover.Add(1)
		}
		return choice, true
	}

	if r.cfg.CoRouteRSA && req.Op == serve.OpRSADecrypt {
		if choice := r.coRoutePick(req, visited, now); choice >= 0 {
			return choice, false
		}
	}

	// Power of two choices over available nodes.
	var avail [64]int
	cnt := 0
	fallback := -1
	for i, n := range r.nodes {
		if *visited&(1<<uint(i)) != 0 {
			continue
		}
		if n.available(now, r.cfg.MaxInflight) {
			avail[cnt] = i
			cnt++
		} else if fallback < 0 {
			fallback = i
		}
	}
	switch cnt {
	case 0:
		return fallback, false
	case 1:
		return avail[0], false
	}
	r.rngMu.Lock()
	ai := r.rng.Intn(cnt)
	bi := r.rng.Intn(cnt - 1)
	r.rngMu.Unlock()
	if bi >= ai {
		bi++ // skip a: the two samples are always distinct
	}
	a, b := avail[ai], avail[bi]
	costA := r.nodes[a].cost() + float64(r.nodes[a].inflight.Load())*r.nodes[a].penaltyUS()
	costB := r.nodes[b].cost() + float64(r.nodes[b].inflight.Load())*r.nodes[b].penaltyUS()
	if costB < costA {
		return b, false
	}
	return a, false
}

// rsaKeyID is the co-routing identity: the request's key material under
// an op-scoped prefix, so decrypt concentration and session affinity
// hash into independent ring positions even for equal byte strings.
func rsaKeyID(req *serve.Request) string {
	if len(req.Key) == 0 {
		return "rsa|-" // gateway default key: still one preferred backend
	}
	return "rsa|" + string(req.Key)
}

// coRoutePick returns the preferred backend for a decrypt's key, or -1
// to spill the request to p2c.  The preference is bounded two ways: the
// backend must be pickable at all (not visited, not quarantined, under
// the in-flight cap), and its estimated cost must sit under the
// CoRouteFactor ceiling relative to the cheapest alternative — key
// concentration is a cache/batching optimisation, never a reason to let
// one hot key build a queue the rest of the cluster could absorb.
func (r *Router) coRoutePick(req *serve.Request, visited *uint64, now int64) int {
	pref := r.ring.Owner(rsaKeyID(req))
	if pref < 0 {
		return -1
	}
	n := r.nodes[pref]
	if *visited&(1<<uint(pref)) != 0 || !n.available(now, r.cfg.MaxInflight) {
		r.coRouteSpill.Add(1)
		return -1
	}
	prefCost := n.cost() + float64(n.inflight.Load())*n.penaltyUS()
	cheapest := math.Inf(1)
	for i, m := range r.nodes {
		if i == pref || *visited&(1<<uint(i)) != 0 || !m.available(now, r.cfg.MaxInflight) {
			continue
		}
		if c := m.cost() + float64(m.inflight.Load())*m.penaltyUS(); c < cheapest {
			cheapest = c
		}
	}
	if !math.IsInf(cheapest, 1) && prefCost > r.cfg.CoRouteFactor*cheapest+n.penaltyUS() {
		r.coRouteSpill.Add(1)
		return -1
	}
	r.coRouted.Add(1)
	return pref
}

// roundTrip sends req to n, feeding the health and load trackers.
func (r *Router) roundTrip(n *node, req *serve.Request) (*serve.Response, error) {
	tr, err := n.transport(r.cfg.Dial)
	if err != nil {
		r.noteFailure(n)
		return nil, err
	}
	n.inflight.Add(1)
	start := r.cfg.Now()
	resp, err := tr.RoundTrip(req)
	n.inflight.Add(-1)
	if err != nil {
		r.noteFailure(n)
		return nil, err
	}
	rttUS := float64(r.cfg.Now().Sub(start).Microseconds())
	n.rtt.Observe(rttUS)
	n.observeRTT(rttUS, r.cfg.CostAlpha)
	n.fails.Store(0)
	n.ejected.Store(0)
	n.observeLoad(resp.LoadUS, r.cfg.CostAlpha)
	switch resp.Status {
	case serve.StatusOK:
		n.okResp.Add(1)
	case serve.StatusShed:
		n.shedResp.Add(1)
	default:
		n.errResp.Add(1)
	}
	return resp, nil
}

// noteFailure records one transport failure and ejects the node when the
// consecutive-failure threshold trips.
func (r *Router) noteFailure(n *node) {
	n.failures.Add(1)
	if n.fails.Add(1) == int64(r.cfg.FailThreshold) {
		n.ejected.Store(r.cfg.Now().Add(r.cfg.EjectFor).UnixNano())
		n.ejections.Add(1)
	} else if n.fails.Load() > int64(r.cfg.FailThreshold) {
		// Half-open probe failed: re-quarantine without double-counting an
		// ejection for every failure beyond the threshold.
		n.ejected.Store(r.cfg.Now().Add(r.cfg.EjectFor).UnixNano())
	}
}

// --- serve.Handler ---

// Preadmit passes everything through unpriced: per-client QoS runs on the
// backends, which see the request's full envelope again.  A draining
// router refuses at the envelope so refused payloads are discarded, not
// buffered.
func (r *Router) Preadmit(op serve.Op, clientKey string, payloadBytes int) (int64, *serve.Response) {
	if r.draining.Load() {
		r.shedDraining.Add(1)
		return 0, &serve.Response{Op: op, Status: serve.StatusShed,
			ShedReason: "draining", Error: "gateway draining", Shard: -1}
	}
	return 0, nil
}

// CancelPreadmit is a no-op: Preadmit never charges anything.
func (r *Router) CancelPreadmit(clientKey string) {}

// BacklogUS is the cluster's total backlog estimate: the sum of the
// piggybacked load EWMAs of the backends that can actually be picked.
// Quarantined nodes are excluded — a dead backend's last EWMA is frozen
// at whatever it reported before dying, and summing it would inflate the
// figure piggybacked to every client until the node recovered.
func (r *Router) BacklogUS() int64 {
	now := r.cfg.Now().UnixNano()
	var total float64
	for _, n := range r.nodes {
		if dl := n.ejected.Load(); dl != 0 && now < dl {
			continue
		}
		total += n.cost()
	}
	return int64(total)
}

// NoteRejectedDecode counts one malformed request refused at decode by
// the wire or HTTP front end.
func (r *Router) NoteRejectedDecode() { r.rejectedDecode.Add(1) }
