package gwroute

import (
	"encoding/json"
	"fmt"
	"strings"

	"wisp/internal/serve"
)

// NodeStats is one backend's routing view: where requests went, how the
// health tracker sees the node, and the gateway-observed wire round trip.
// Field names mirror serve.Stats so dashboards treat a node row like a
// small gateway.
type NodeStats struct {
	Addr     string `json:"addr"`
	Ejected  bool   `json:"ejected"`
	Inflight int64  `json:"inflight"`
	// CostUS is the backlog EWMA fed by the loadUS figure piggybacked on
	// every wire response from this node.
	CostUS float64 `json:"cost_us"`

	Picks uint64 `json:"picks"`
	// AffinityHits counts resumption requests served by this node while it
	// was the ring owner of the session key — the number the cluster gate
	// uses to prove affinity is real.
	AffinityHits uint64 `json:"affinity_hits"`
	// Redirects counts resumption requests this node served while NOT the
	// owner (failover landed them here; the session cache likely missed).
	Redirects uint64 `json:"redirects"`
	Ejections uint64 `json:"ejections"`
	Failures  uint64 `json:"failures"`

	OK     uint64 `json:"ok"`
	Shed   uint64 `json:"shed"`
	Errors uint64 `json:"errors"`

	// RTTUS is the gateway-observed wire round trip (send to parsed
	// response), the cluster-level analogue of serve's per-op latency.
	RTTUS serve.HistSnapshot `json:"rtt_us"`
}

// RouterStats is the routing tier's snapshot, shaped like serve.Stats
// (same top-level counter names) with a per-node table where the gateway
// has a per-shard one.
type RouterStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Backends      int     `json:"backends"`
	// Live is how many backends are currently pickable (not quarantined).
	Live int `json:"live"`

	Requests uint64 `json:"requests"`
	OK       uint64 `json:"ok"`
	Shed     uint64 `json:"shed"`
	Errors   uint64 `json:"errors"`

	// Exhausted counts requests shed with reason "backend-failure" after
	// every retry budget ran out — the only shed the router itself adds.
	Exhausted uint64 `json:"exhausted"`
	// ResumeFailover counts Resume requests routed past an unavailable
	// ring owner to a successor in ring order.
	ResumeFailover uint64 `json:"resume_failover"`
	// ShedDraining counts envelope-level refusals during drain.
	ShedDraining   uint64 `json:"shed_draining"`
	RejectedDecode uint64 `json:"rejected_decode"`

	// CoRouted/CoRouteSpill split rsa-decrypt routing under same-key
	// co-routing: concentrated on the key's preferred backend vs spilled
	// to p2c because the preferred backend was unavailable or over the
	// cost ceiling.  Both zero when CoRouteRSA is off.
	CoRouted     uint64 `json:"corouted"`
	CoRouteSpill uint64 `json:"coroute_spill"`

	// BacklogUS is the cluster backlog estimate: the sum of live (not
	// quarantined) node cost EWMAs, i.e. the figure a second-tier router
	// would see piggybacked.
	BacklogUS int64 `json:"backlog_us"`

	Nodes []NodeStats `json:"nodes"`
}

// Stats snapshots the router.
func (r *Router) Stats() *RouterStats {
	now := r.cfg.Now()
	s := &RouterStats{
		UptimeSeconds:  now.Sub(r.start).Seconds(),
		Backends:       len(r.nodes),
		Exhausted:      r.exhausted.Load(),
		ResumeFailover: r.resumeFailover.Load(),
		ShedDraining:   r.shedDraining.Load(),
		RejectedDecode: r.rejectedDecode.Load(),
		CoRouted:       r.coRouted.Load(),
		CoRouteSpill:   r.coRouteSpill.Load(),
	}
	nowNS := now.UnixNano()
	for _, n := range r.nodes {
		dl := n.ejected.Load()
		ns := NodeStats{
			Addr:         n.addr,
			Ejected:      dl != 0 && nowNS < dl,
			Inflight:     n.inflight.Load(),
			CostUS:       n.cost(),
			Picks:        n.picks.Load(),
			AffinityHits: n.affinity.Load(),
			Redirects:    n.redirects.Load(),
			Ejections:    n.ejections.Load(),
			Failures:     n.failures.Load(),
			OK:           n.okResp.Load(),
			Shed:         n.shedResp.Load(),
			Errors:       n.errResp.Load(),
			RTTUS:        n.rtt.Snapshot(),
		}
		if !ns.Ejected {
			s.Live++
			// Only pickable nodes contribute backlog: a quarantined node's
			// EWMA is frozen at its last pre-death report.
			s.BacklogUS += int64(ns.CostUS)
		}
		s.OK += ns.OK
		s.Shed += ns.Shed
		s.Errors += ns.Errors
		s.Nodes = append(s.Nodes, ns)
	}
	// Requests = everything answered: backend responses of any status plus
	// the sheds the router synthesized itself, so the total matches what a
	// client-side count would see.
	s.Shed += s.Exhausted + s.ShedDraining
	s.Requests = s.OK + s.Shed + s.Errors
	return s
}

// StatsJSON renders the snapshot for wire stats frames and HTTP /stats
// (serve.Handler).
func (r *Router) StatsJSON() ([]byte, error) {
	return json.Marshal(r.Stats())
}

// StatsText renders the snapshot as the wispgw_* text dump.
func (r *Router) StatsText() string { return r.Stats().Text() }

// Text renders the snapshot as a wispgw_* metrics dump, the same
// line-per-counter shape serve.Stats.Text uses with wispd_*.  Aggregate
// lines come first (scripts grep them), then per-node labeled lines.
func (s *RouterStats) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wispgw_uptime_seconds %.3f\n", s.UptimeSeconds)
	fmt.Fprintf(&b, "wispgw_backends %d\n", s.Backends)
	fmt.Fprintf(&b, "wispgw_backends_live %d\n", s.Live)
	fmt.Fprintf(&b, "wispgw_requests_total %d\n", s.Requests)
	fmt.Fprintf(&b, "wispgw_ok_total %d\n", s.OK)
	fmt.Fprintf(&b, "wispgw_shed_total %d\n", s.Shed)
	fmt.Fprintf(&b, "wispgw_errors_total %d\n", s.Errors)
	fmt.Fprintf(&b, "wispgw_exhausted_total %d\n", s.Exhausted)
	fmt.Fprintf(&b, "wispgw_resume_failover_total %d\n", s.ResumeFailover)
	fmt.Fprintf(&b, "wispgw_shed_draining_total %d\n", s.ShedDraining)
	fmt.Fprintf(&b, "wispgw_rejected_decode_total %d\n", s.RejectedDecode)
	fmt.Fprintf(&b, "wispgw_corouted_total %d\n", s.CoRouted)
	fmt.Fprintf(&b, "wispgw_coroute_spill_total %d\n", s.CoRouteSpill)
	fmt.Fprintf(&b, "wispgw_backlog_us %d\n", s.BacklogUS)
	var picks, aff, red, ej uint64
	for _, n := range s.Nodes {
		picks += n.Picks
		aff += n.AffinityHits
		red += n.Redirects
		ej += n.Ejections
	}
	fmt.Fprintf(&b, "wispgw_picks_total %d\n", picks)
	fmt.Fprintf(&b, "wispgw_affinity_hits_total %d\n", aff)
	fmt.Fprintf(&b, "wispgw_redirects_total %d\n", red)
	fmt.Fprintf(&b, "wispgw_ejections_total %d\n", ej)
	for _, n := range s.Nodes {
		ejected := 0
		if n.Ejected {
			ejected = 1
		}
		fmt.Fprintf(&b, "wispgw_node_ejected{node=%q} %d\n", n.Addr, ejected)
		fmt.Fprintf(&b, "wispgw_node_inflight{node=%q} %d\n", n.Addr, n.Inflight)
		fmt.Fprintf(&b, "wispgw_node_cost_us{node=%q} %.1f\n", n.Addr, n.CostUS)
		fmt.Fprintf(&b, "wispgw_picks_total{node=%q} %d\n", n.Addr, n.Picks)
		fmt.Fprintf(&b, "wispgw_affinity_hits_total{node=%q} %d\n", n.Addr, n.AffinityHits)
		fmt.Fprintf(&b, "wispgw_redirects_total{node=%q} %d\n", n.Addr, n.Redirects)
		fmt.Fprintf(&b, "wispgw_ejections_total{node=%q} %d\n", n.Addr, n.Ejections)
		fmt.Fprintf(&b, "wispgw_failures_total{node=%q} %d\n", n.Addr, n.Failures)
		fmt.Fprintf(&b, "wispgw_ok_total{node=%q} %d\n", n.Addr, n.OK)
		fmt.Fprintf(&b, "wispgw_shed_total{node=%q} %d\n", n.Addr, n.Shed)
		fmt.Fprintf(&b, "wispgw_errors_total{node=%q} %d\n", n.Addr, n.Errors)
		fmt.Fprintf(&b, "wispgw_rtt_p50_us{node=%q} %.1f\n", n.Addr, n.RTTUS.P50)
		fmt.Fprintf(&b, "wispgw_rtt_p95_us{node=%q} %.1f\n", n.Addr, n.RTTUS.P95)
		fmt.Fprintf(&b, "wispgw_rtt_p99_us{node=%q} %.1f\n", n.Addr, n.RTTUS.P99)
	}
	return b.String()
}
