package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wisp/internal/cache"
)

// histBuckets is the number of histogram buckets.  Bucket 0 is the
// explicit sub-microsecond bucket [0,1) — Microseconds() truncation turns
// every sub-µs observation into 0, and folding those into the [1,2)
// bucket used to skew p50 for fast ops.  Bucket i ≥ 1 covers
// [2^(i-1), 2^i) microseconds, so the range spans <1 µs to ~18 min.
const histBuckets = 32

// Histogram is a fixed exponential-bucket latency histogram.  Observations
// are microseconds; quantiles are estimated at the geometric midpoint of
// the owning bucket, which is within 2^(1/2)x of the true value — enough
// for p50/p95/p99 serving dashboards without storing samples.
type Histogram struct {
	mu      sync.Mutex
	buckets [histBuckets]uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

// Observe records one value (microseconds for latency, a raw count for
// batch sizes).  Values below 1 land in the dedicated sub-µs bucket.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	idx := 0
	if v >= 1 {
		idx = 1
		for b := v; b >= 2 && idx < histBuckets-1; b /= 2 {
			idx++
		}
	}
	h.mu.Lock()
	h.buckets[idx]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// HistSnapshot is an immutable view of a Histogram.
type HistSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.count)
	s.P50 = h.quantileLocked(0.50)
	s.P95 = h.quantileLocked(0.95)
	s.P99 = h.quantileLocked(0.99)
	return s
}

func (h *Histogram) quantileLocked(q float64) float64 {
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			var est float64
			if i == 0 {
				// Sub-µs bucket: midpoint of [0,1); the [min,max]
				// clamp below pins an all-zero population to 0 rather
				// than reporting half a microsecond nobody observed.
				est = 0.5
			} else {
				lo := math.Exp2(float64(i - 1))
				est = lo * math.Sqrt2
			}
			// Clamp the estimate to the observed extremes so tiny
			// populations do not report a quantile outside [min, max].
			return math.Min(math.Max(est, h.min), h.max)
		}
	}
	return h.max
}

// opMetrics aggregates one operation's counters and latency.
type opMetrics struct {
	requests atomic.Uint64 // everything submitted, any outcome
	ok       atomic.Uint64
	errors   atomic.Uint64
	shed     atomic.Uint64
	expired  atomic.Uint64
	bytes    atomic.Uint64 // payload bytes of OK responses
	resumed  atomic.Uint64 // OK responses served by an abbreviated handshake

	steals    atomic.Uint64 // tasks of this op taken by an idle shard
	redirects atomic.Uint64 // admitted on a shard other than the first choice
	retries   atomic.Uint64 // arrivals with Attempt > 0 (client re-submits)
	hedges    atomic.Uint64 // arrivals flagged as hedged duplicates

	latency Histogram // queue + service, µs, OK responses only
	service Histogram // service alone, µs
}

// Metrics is the gateway's observability core.
type Metrics struct {
	start time.Time

	mu    sync.Mutex
	perOp map[Op]*opMetrics

	batch    Histogram // same-op group sizes served per drain
	rsaBatch Histogram // lane widths of batched RSA-engine calls

	rsaBatched atomic.Uint64 // RSA decrypts served through the batched engine
	rsaScalar  atomic.Uint64 // RSA decrypts served one lane at a time

	queueDepth []atomic.Int64 // per-shard gauge

	shedQueueFull  atomic.Uint64
	shedDeadline   atomic.Uint64 // admission: backlog estimate exceeds budget
	shedDraining   atomic.Uint64
	shedThrottle   atomic.Uint64 // QoS: client over its token-bucket rate
	shedWhileIdle  atomic.Uint64 // capacity sheds issued while some shard sat idle
	expired        atomic.Uint64 // dequeued past deadline
	rejectedDecode atomic.Uint64 // bodies rejected by the hardened decode
}

// NoteRejectedDecode counts one request body the hardened decode path
// rejected before allocation (oversized payload/ClientID, bad base64).
func (m *Metrics) NoteRejectedDecode() { m.rejectedDecode.Add(1) }

// NewMetrics builds the metrics core for `shards` worker shards.
func NewMetrics(shards int) *Metrics {
	m := &Metrics{
		start:      time.Now(),
		perOp:      make(map[Op]*opMetrics, len(AllOps)),
		queueDepth: make([]atomic.Int64, shards),
	}
	for _, op := range AllOps {
		m.perOp[op] = &opMetrics{}
	}
	return m
}

// op returns the per-op aggregate, creating one for unknown ops so a
// malformed request still shows up in the counters.
func (m *Metrics) op(op Op) *opMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	om, ok := m.perOp[op]
	if !ok {
		om = &opMetrics{}
		m.perOp[op] = om
	}
	return om
}

// OpStats is the exported view of one operation's counters.
type OpStats struct {
	Requests  uint64       `json:"requests"`
	OK        uint64       `json:"ok"`
	Errors    uint64       `json:"errors"`
	Shed      uint64       `json:"shed"`
	Expired   uint64       `json:"expired"`
	Bytes     uint64       `json:"bytes"`
	Resumed   uint64       `json:"resumed,omitempty"`
	Steals    uint64       `json:"steals,omitempty"`
	Redirects uint64       `json:"redirects,omitempty"`
	Retries   uint64       `json:"retries,omitempty"`
	Hedges    uint64       `json:"hedges,omitempty"`
	Latency   HistSnapshot `json:"latency_us"`
	Service   HistSnapshot `json:"service_us"`
}

// Stats is the /stats document.  The gateway-wide Steals/Redirects/
// Retries/Hedges totals are sums of the per-op counters, so the two
// levels are consistent by construction.
type Stats struct {
	UptimeSeconds  float64            `json:"uptime_seconds"`
	Shards         int                `json:"shards"`
	QueueCap       int                `json:"queue_cap"`
	QueueDepth     []int64            `json:"queue_depth"`
	QueueCostUS    []int64            `json:"queue_cost_us,omitempty"`
	OpCostUS       map[string]float64 `json:"op_cost_us,omitempty"`
	Requests       uint64             `json:"requests"`
	OK             uint64             `json:"ok"`
	Errors         uint64             `json:"errors"`
	Shed           uint64             `json:"shed"`
	Expired        uint64             `json:"expired"`
	Resumed        uint64             `json:"resumed"`
	Steals         uint64             `json:"steals"`
	Redirects      uint64             `json:"redirects"`
	Retries        uint64             `json:"retries"`
	Hedges         uint64             `json:"hedges"`
	ShedWhileIdle  uint64             `json:"shed_while_idle"`
	RejectedDecode uint64             `json:"rejected_decode"`
	ShedByReason   map[string]uint64  `json:"shed_by_reason"`
	PerOp          map[string]OpStats `json:"per_op"`
	BatchSize      HistSnapshot       `json:"batch_size"`

	// RSABatchWidth observes the lane count of every batched RSA-engine
	// call; RSAOpsBatched/RSAOpsScalar split decrypts by serving path, so
	// the batched-dispatch upgrade rate is visible directly.
	RSABatchWidth HistSnapshot `json:"rsa_batch_width"`
	RSAOpsBatched uint64       `json:"rsa_ops_batched"`
	RSAOpsScalar  uint64       `json:"rsa_ops_scalar"`

	// BatchWidth/BatchGatherUS are the *live* values of the two batch
	// knobs (they start at the flag values and move only under an
	// adaptive governor).
	BatchWidth    int   `json:"batch_width,omitempty"`
	BatchGatherUS int64 `json:"batch_gather_us,omitempty"`

	// Governor exposes the adaptive governor's decision counters.  Nil
	// when no governor is attached (wispd -govern=false).
	Governor *GovernorView `json:"governor,omitempty"`

	// SessionCache/Precompute/AESSchedule expose the serving caches: the
	// SSL session store (hits = abbreviated handshakes), the per-shard RSA
	// precompute caches summed across shards, and the process-wide AES
	// key-schedule cache.
	SessionCache *CacheStatsView `json:"session_cache,omitempty"`
	Precompute   *CacheStatsView `json:"precompute_cache,omitempty"`
	AESSchedule  *CacheStatsView `json:"aes_schedule_cache,omitempty"`

	// Runtime is the process allocation/GC view (runtime/metrics); load
	// generators diff it across a run to derive allocations per served op.
	Runtime *RuntimeStats `json:"runtime,omitempty"`

	// QoS exposes the per-client isolation layer: token-bucket and fair-
	// queue parameters, per-client admitted/shed/throttle counters (top
	// spenders first) and the space-saving heavy-hitter table.  Nil when
	// QoS is disabled.
	QoS *QoSView `json:"qos,omitempty"`

	// Replication exposes the session-secret replication layer (pushes to
	// ring peers, pulls on resume misses, losses).  Nil when replication
	// is not wired.
	Replication *ReplicationView `json:"replication,omitempty"`
}

// GovernorView is the exported snapshot of the adaptive performance
// governor: how many control ticks ran and what each decision family did
// (defined here rather than in internal/governor so the governor can
// import serve without a cycle — the same layering as ReplicationView).
type GovernorView struct {
	Ticks uint64 `json:"ticks"`
	// WidthWidens/WidthShrinks count batch-width moves; WidthReversals
	// counts the moves that opposed the previous one (a widen after a
	// shrink or a shrink after a widen) — the measured flap count.
	// GatherChanges counts gather-window retargets.
	WidthWidens    uint64 `json:"width_widens"`
	WidthShrinks   uint64 `json:"width_shrinks"`
	WidthReversals uint64 `json:"width_reversals"`
	GatherChanges  uint64 `json:"gather_changes"`
}

// ReplicationView is the exported snapshot of the session-secret
// replication layer.
type ReplicationView struct {
	Peers      int    `json:"peers"`
	Replicated uint64 `json:"replicated"`
	Dropped    uint64 `json:"dropped"`
	Fetched    uint64 `json:"fetched"`
	FetchMiss  uint64 `json:"fetch_miss"`
}

// CacheStatsView is the exported snapshot of one serving cache.
type CacheStatsView struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Expired   uint64  `json:"expired"`
	Len       int     `json:"len"`
	Capacity  int     `json:"capacity"`
	HitRate   float64 `json:"hit_rate"`
}

func cacheView(s cache.Stats) *CacheStatsView {
	return &CacheStatsView{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Evictions: s.Evictions,
		Expired:   s.Expired,
		Len:       s.Len,
		Capacity:  s.Capacity,
		HitRate:   s.HitRate(),
	}
}

// Snapshot captures every counter, gauge and histogram.
func (m *Metrics) Snapshot(queueCap int) Stats {
	s := Stats{
		UptimeSeconds:  time.Since(m.start).Seconds(),
		Shards:         len(m.queueDepth),
		QueueCap:       queueCap,
		QueueDepth:     make([]int64, len(m.queueDepth)),
		ShedWhileIdle:  m.shedWhileIdle.Load(),
		RejectedDecode: m.rejectedDecode.Load(),
		ShedByReason: map[string]uint64{
			"queue-full": m.shedQueueFull.Load(),
			"deadline":   m.shedDeadline.Load(),
			"draining":   m.shedDraining.Load(),
			"throttle":   m.shedThrottle.Load(),
		},
		PerOp:         make(map[string]OpStats),
		BatchSize:     m.batch.Snapshot(),
		RSABatchWidth: m.rsaBatch.Snapshot(),
		RSAOpsBatched: m.rsaBatched.Load(),
		RSAOpsScalar:  m.rsaScalar.Load(),
	}
	for i := range m.queueDepth {
		s.QueueDepth[i] = m.queueDepth[i].Load()
	}
	m.mu.Lock()
	ops := make([]Op, 0, len(m.perOp))
	for op := range m.perOp {
		ops = append(ops, op)
	}
	m.mu.Unlock()
	for _, op := range ops {
		om := m.op(op)
		os := OpStats{
			Requests:  om.requests.Load(),
			OK:        om.ok.Load(),
			Errors:    om.errors.Load(),
			Shed:      om.shed.Load(),
			Expired:   om.expired.Load(),
			Bytes:     om.bytes.Load(),
			Resumed:   om.resumed.Load(),
			Steals:    om.steals.Load(),
			Redirects: om.redirects.Load(),
			Retries:   om.retries.Load(),
			Hedges:    om.hedges.Load(),
			Latency:   om.latency.Snapshot(),
			Service:   om.service.Snapshot(),
		}
		s.Requests += os.Requests
		s.OK += os.OK
		s.Errors += os.Errors
		s.Shed += os.Shed
		s.Expired += os.Expired
		s.Resumed += os.Resumed
		s.Steals += os.Steals
		s.Redirects += os.Redirects
		s.Retries += os.Retries
		s.Hedges += os.Hedges
		s.PerOp[string(op)] = os
	}
	return s
}

// Text renders the snapshot as a flat text dump (one `name value` line per
// series, Prometheus-flavoured) for the -metrics flag and scrapers.
func (s Stats) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wispd_uptime_seconds %.3f\n", s.UptimeSeconds)
	fmt.Fprintf(&b, "wispd_shards %d\n", s.Shards)
	fmt.Fprintf(&b, "wispd_queue_cap %d\n", s.QueueCap)
	for i, d := range s.QueueDepth {
		fmt.Fprintf(&b, "wispd_queue_depth{shard=\"%d\"} %d\n", i, d)
	}
	for i, c := range s.QueueCostUS {
		fmt.Fprintf(&b, "wispd_queue_cost_us{shard=\"%d\"} %d\n", i, c)
	}
	fmt.Fprintf(&b, "wispd_requests_total %d\n", s.Requests)
	fmt.Fprintf(&b, "wispd_ok_total %d\n", s.OK)
	fmt.Fprintf(&b, "wispd_errors_total %d\n", s.Errors)
	fmt.Fprintf(&b, "wispd_shed_total %d\n", s.Shed)
	fmt.Fprintf(&b, "wispd_expired_total %d\n", s.Expired)
	fmt.Fprintf(&b, "wispd_resumed_total %d\n", s.Resumed)
	fmt.Fprintf(&b, "wispd_steals_total %d\n", s.Steals)
	fmt.Fprintf(&b, "wispd_redirects_total %d\n", s.Redirects)
	fmt.Fprintf(&b, "wispd_retries_total %d\n", s.Retries)
	fmt.Fprintf(&b, "wispd_hedged_total %d\n", s.Hedges)
	fmt.Fprintf(&b, "wispd_shed_while_idle_total %d\n", s.ShedWhileIdle)
	fmt.Fprintf(&b, "wispd_rejected_decode_total %d\n", s.RejectedDecode)
	reasons := make([]string, 0, len(s.ShedByReason))
	for r := range s.ShedByReason {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(&b, "wispd_shed_total{reason=%q} %d\n", r, s.ShedByReason[r])
	}
	fmt.Fprintf(&b, "wispd_batch_size_p50 %.1f\n", s.BatchSize.P50)
	fmt.Fprintf(&b, "wispd_batch_size_max %.0f\n", s.BatchSize.Max)
	fmt.Fprintf(&b, "wispd_rsa_batch_width_p50 %.1f\n", s.RSABatchWidth.P50)
	fmt.Fprintf(&b, "wispd_rsa_batch_width_max %.0f\n", s.RSABatchWidth.Max)
	fmt.Fprintf(&b, "wispd_rsa_ops_batched_total %d\n", s.RSAOpsBatched)
	fmt.Fprintf(&b, "wispd_rsa_ops_scalar_total %d\n", s.RSAOpsScalar)
	if s.BatchWidth > 0 {
		fmt.Fprintf(&b, "wispd_batch_width %d\n", s.BatchWidth)
		fmt.Fprintf(&b, "wispd_batch_gather_us %d\n", s.BatchGatherUS)
	}
	if gv := s.Governor; gv != nil {
		fmt.Fprintf(&b, "wispd_governor_ticks_total %d\n", gv.Ticks)
		fmt.Fprintf(&b, "wispd_governor_width_widen_total %d\n", gv.WidthWidens)
		fmt.Fprintf(&b, "wispd_governor_width_shrink_total %d\n", gv.WidthShrinks)
		fmt.Fprintf(&b, "wispd_governor_width_reversals_total %d\n", gv.WidthReversals)
		fmt.Fprintf(&b, "wispd_governor_gather_changes_total %d\n", gv.GatherChanges)
	}
	writeCache := func(name string, v *CacheStatsView) {
		if v == nil {
			return
		}
		fmt.Fprintf(&b, "wispd_cache_hits_total{cache=%q} %d\n", name, v.Hits)
		fmt.Fprintf(&b, "wispd_cache_misses_total{cache=%q} %d\n", name, v.Misses)
		fmt.Fprintf(&b, "wispd_cache_evictions_total{cache=%q} %d\n", name, v.Evictions)
		fmt.Fprintf(&b, "wispd_cache_len{cache=%q} %d\n", name, v.Len)
		fmt.Fprintf(&b, "wispd_cache_hit_rate{cache=%q} %.4f\n", name, v.HitRate)
	}
	writeCache("session", s.SessionCache)
	writeCache("precompute", s.Precompute)
	writeCache("aes_schedule", s.AESSchedule)
	if r := s.Replication; r != nil {
		fmt.Fprintf(&b, "wispd_replication_peers %d\n", r.Peers)
		fmt.Fprintf(&b, "wispd_replication_replicated_total %d\n", r.Replicated)
		fmt.Fprintf(&b, "wispd_replication_dropped_total %d\n", r.Dropped)
		fmt.Fprintf(&b, "wispd_replication_fetched_total %d\n", r.Fetched)
		fmt.Fprintf(&b, "wispd_replication_fetch_miss_total %d\n", r.FetchMiss)
	}
	if q := s.QoS; q != nil {
		fmt.Fprintf(&b, "wispd_qos_client_rate_us %d\n", q.RateUS)
		fmt.Fprintf(&b, "wispd_qos_fair_limit_us %d\n", q.LimitUS)
		fmt.Fprintf(&b, "wispd_qos_outstanding_us %d\n", q.OutstandingUS)
		fmt.Fprintf(&b, "wispd_qos_fair_waiting %d\n", q.FairWaiting)
		fmt.Fprintf(&b, "wispd_qos_throttled_total %d\n", q.Throttled)
		for _, c := range q.Clients {
			fmt.Fprintf(&b, "wispd_qos_client_admitted_total{client=%q} %d\n", c.ID, c.Admitted)
			fmt.Fprintf(&b, "wispd_qos_client_shed_total{client=%q} %d\n", c.ID, c.Shed)
			fmt.Fprintf(&b, "wispd_qos_client_throttled_total{client=%q} %d\n", c.ID, c.Throttled)
			fmt.Fprintf(&b, "wispd_qos_client_cost_us{client=%q} %d\n", c.ID, c.CostUS)
		}
		for _, h := range q.HeavyHitters {
			fmt.Fprintf(&b, "wispd_qos_heavy_hitter_cost_us{client=%q} %d\n", h.ID, h.CostUS)
		}
	}
	if rt := s.Runtime; rt != nil {
		fmt.Fprintf(&b, "wispd_heap_alloc_bytes_total %d\n", rt.HeapAllocBytes)
		fmt.Fprintf(&b, "wispd_heap_alloc_objects_total %d\n", rt.HeapAllocObjects)
		fmt.Fprintf(&b, "wispd_heap_live_bytes %d\n", rt.HeapLiveBytes)
		fmt.Fprintf(&b, "wispd_gc_cycles_total %d\n", rt.GCCycles)
		fmt.Fprintf(&b, "wispd_gc_pause_us{q=\"0.50\"} %.1f\n", rt.GCPauseP50US)
		fmt.Fprintf(&b, "wispd_gc_pause_us{q=\"0.99\"} %.1f\n", rt.GCPauseP99US)
	}
	costOps := make([]string, 0, len(s.OpCostUS))
	for op := range s.OpCostUS {
		costOps = append(costOps, op)
	}
	sort.Strings(costOps)
	for _, op := range costOps {
		fmt.Fprintf(&b, "wispd_op_cost_us{op=%q} %.0f\n", op, s.OpCostUS[op])
	}
	ops := make([]string, 0, len(s.PerOp))
	for op := range s.PerOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		os := s.PerOp[op]
		if os.Requests == 0 {
			continue
		}
		fmt.Fprintf(&b, "wispd_op_requests_total{op=%q} %d\n", op, os.Requests)
		fmt.Fprintf(&b, "wispd_op_ok_total{op=%q} %d\n", op, os.OK)
		fmt.Fprintf(&b, "wispd_op_errors_total{op=%q} %d\n", op, os.Errors)
		fmt.Fprintf(&b, "wispd_op_shed_total{op=%q} %d\n", op, os.Shed)
		fmt.Fprintf(&b, "wispd_op_expired_total{op=%q} %d\n", op, os.Expired)
		fmt.Fprintf(&b, "wispd_op_bytes_total{op=%q} %d\n", op, os.Bytes)
		fmt.Fprintf(&b, "wispd_op_resumed_total{op=%q} %d\n", op, os.Resumed)
		fmt.Fprintf(&b, "wispd_op_steals_total{op=%q} %d\n", op, os.Steals)
		fmt.Fprintf(&b, "wispd_op_redirects_total{op=%q} %d\n", op, os.Redirects)
		fmt.Fprintf(&b, "wispd_op_retries_total{op=%q} %d\n", op, os.Retries)
		fmt.Fprintf(&b, "wispd_op_latency_us{op=%q,q=\"0.50\"} %.0f\n", op, os.Latency.P50)
		fmt.Fprintf(&b, "wispd_op_latency_us{op=%q,q=\"0.95\"} %.0f\n", op, os.Latency.P95)
		fmt.Fprintf(&b, "wispd_op_latency_us{op=%q,q=\"0.99\"} %.0f\n", op, os.Latency.P99)
	}
	return b.String()
}
