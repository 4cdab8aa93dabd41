// Package gwroute is the cluster routing tier behind cmd/wispgw: a
// consistent-hash ring gives resumption traffic session affinity (a
// client's abbreviated handshakes only hit the backend whose session
// cache holds its master secret), power-of-two-choices load balancing
// spreads fresh handshakes by backlog cost, and per-node health tracking
// ejects failing backends and reroutes around them.
//
// The router implements serve.Handler, the surface the single-node
// gateway exposes, so the same wire.Server and serve.Server front both:
// a load generator pointed at wispgw speaks exactly the protocol it
// would speak to one wispd.
package gwroute

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring over backend indices.  Each node
// projects Replicas virtual points onto the 64-bit hash circle; a key is
// owned by the first point clockwise from its hash.  Adding or removing
// one node moves only ~K/N of K keys — the property the ring_test pins —
// so cluster resizes invalidate the minimum amount of session-cache
// affinity.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by hash
	nodes    int
}

type ringPoint struct {
	hash uint64
	node int
}

// NewRing builds a ring of n nodes with the given virtual-replica count
// (≤0 selects 64).  Node identities are the addresses in addrs; placement
// depends only on the address strings, so a restarted gateway (or a
// differently-ordered -backends flag) reproduces the same assignment.
func NewRing(addrs []string, replicas int) (*Ring, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("gwroute: ring needs at least one node")
	}
	if replicas <= 0 {
		replicas = 64
	}
	r := &Ring{replicas: replicas, nodes: len(addrs)}
	r.points = make([]ringPoint, 0, len(addrs)*replicas)
	for i, addr := range addrs {
		h := hashString(addr)
		for v := 0; v < replicas; v++ {
			// Derive each virtual point from the node hash and the replica
			// ordinal; mix64 scatters them over the circle.
			r.points = append(r.points, ringPoint{hash: mix64(h + uint64(v)*0x9e3779b97f4a7c15), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on node index so placement is deterministic even on
		// (astronomically unlikely) hash collisions.
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Nodes is the node count.
func (r *Ring) Nodes() int { return r.nodes }

// Owner returns the node owning key: the node of the first virtual point
// clockwise from the key's hash.
func (r *Ring) Owner(key string) int {
	return r.points[r.successor(key)].node
}

// Order walks distinct nodes in ring order starting at key's owner,
// calling visit for each; visit returning false stops the walk.  This is
// the failover order: the owner first, then the nodes that would own the
// key if earlier ones left the ring.
func (r *Ring) Order(key string, visit func(node int) bool) {
	start := r.successor(key)
	seen := 0
	var visited uint64 // nodes ≤ 64 in practice; fall back to a map above
	var visitedBig map[int]bool
	if r.nodes > 64 {
		visitedBig = make(map[int]bool, r.nodes)
	}
	for i := 0; i < len(r.points) && seen < r.nodes; i++ {
		p := r.points[(start+i)%len(r.points)]
		if visitedBig != nil {
			if visitedBig[p.node] {
				continue
			}
			visitedBig[p.node] = true
		} else {
			if visited&(1<<uint(p.node)) != 0 {
				continue
			}
			visited |= 1 << uint(p.node)
		}
		seen++
		if !visit(p.node) {
			return
		}
	}
}

// successor is the index of the first point with hash ≥ hash(key),
// wrapping to 0.
func (r *Ring) successor(key string) int {
	h := mix64(hashString(key))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// hashString is FNV-1a 64 (inline — no allocation, no hash.Hash
// interface) over the string bytes.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is a splitmix64-style finalizer: FNV alone clusters sequential
// keys, and clustered points make ring ownership lopsided.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
