package gwroute

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"wisp/internal/hashes"
	"wisp/internal/serve"
	"wisp/internal/wire"
)

// The router must fit the same front ends (wire and HTTP) a single
// gateway does.
var _ serve.Handler = (*Router)(nil)

// stubBackend is an in-process serve.Transport with scriptable failure
// and a fixed piggybacked load figure.
type stubBackend struct {
	addr   string
	mu     sync.Mutex
	down   bool
	loadUS int64
	served []string // client keys in arrival order
}

func (s *stubBackend) RoundTrip(req *serve.Request) (*serve.Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, fmt.Errorf("stub %s: connection refused", s.addr)
	}
	s.served = append(s.served, clientKey(req))
	return &serve.Response{
		ID: req.ID, Op: req.Op, Status: serve.StatusOK,
		Resumed: req.Resume, LoadUS: s.loadUS,
	}, nil
}

func (s *stubBackend) Stats() (*serve.Stats, error) { return &serve.Stats{}, nil }
func (s *stubBackend) Healthy() bool                { return true }
func (s *stubBackend) Close() error                 { return nil }

func (s *stubBackend) setDown(down bool) {
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
}

func (s *stubBackend) servedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.served)
}

// stubCluster builds a router over n stub backends.
func stubCluster(t *testing.T, n int, cfg Config) (*Router, []*stubBackend) {
	t.Helper()
	stubs := make([]*stubBackend, n)
	byAddr := make(map[string]*stubBackend, n)
	for i := range stubs {
		stubs[i] = &stubBackend{addr: fmt.Sprintf("10.0.0.%d:9000", i+1)}
		byAddr[stubs[i].addr] = stubs[i]
		cfg.Backends = append(cfg.Backends, stubs[i].addr)
	}
	cfg.Dial = func(addr string) (serve.Transport, error) {
		st, ok := byAddr[addr]
		if !ok {
			return nil, fmt.Errorf("unknown backend %s", addr)
		}
		return st, nil
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, stubs
}

// TestRouterAffinity: every resumption request for a client lands on its
// ring owner while the owner is healthy — the affinity counters account
// for all of them and no redirects happen.
func TestRouterAffinity(t *testing.T) {
	r, stubs := stubCluster(t, 3, Config{})
	ring := r.ring
	const clients, rounds = 30, 4
	for round := 0; round < rounds; round++ {
		for c := 0; c < clients; c++ {
			id := fmt.Sprintf("client-%d", c)
			resp := r.Submit(&serve.Request{
				ID: id, Op: serve.OpHandshake, Resume: true, ClientID: id,
			})
			if resp.Status != serve.StatusOK {
				t.Fatalf("client %s round %d: %s (%s)", id, round, resp.Status, resp.Error)
			}
		}
	}
	// Replay arrivals against the ring: each backend saw only keys it owns.
	for i, st := range stubs {
		st.mu.Lock()
		for _, key := range st.served {
			if ring.Owner(key) != i {
				t.Errorf("node %d served key %q owned by node %d", i, key, ring.Owner(key))
			}
		}
		st.mu.Unlock()
	}
	s := r.Stats()
	var aff, red uint64
	for _, n := range s.Nodes {
		aff += n.AffinityHits
		red += n.Redirects
	}
	if aff != clients*rounds {
		t.Errorf("affinity hits %d, want %d", aff, clients*rounds)
	}
	if red != 0 {
		t.Errorf("redirects %d with all nodes healthy, want 0", red)
	}
	if s.OK != clients*rounds || s.Requests != clients*rounds {
		t.Errorf("ok/requests = %d/%d, want %d", s.OK, s.Requests, clients*rounds)
	}
}

// TestRouterP2CPrefersCheapBacklog: once the per-node cost EWMAs have been
// fed by piggybacked load figures, power-of-two-choices sends most fresh
// traffic to the cheapest node.
func TestRouterP2CPrefersCheapBacklog(t *testing.T) {
	r, stubs := stubCluster(t, 3, Config{Seed: 7})
	stubs[0].loadUS = 500
	stubs[1].loadUS = 80000
	stubs[2].loadUS = 80000
	const total = 600
	for i := 0; i < total; i++ {
		resp := r.Submit(&serve.Request{ID: fmt.Sprintf("r%d", i), Op: serve.OpMD5})
		if resp.Status != serve.StatusOK {
			t.Fatalf("request %d: %s", i, resp.Status)
		}
	}
	cheap := stubs[0].servedCount()
	if exp1, exp2 := stubs[1].servedCount(), stubs[2].servedCount(); cheap <= exp1 || cheap <= exp2 {
		t.Errorf("cheap node served %d, expensive nodes %d/%d — p2c ignored the load EWMA",
			cheap, exp1, exp2)
	}
}

// TestRouterFailoverAndEjection: a dead node's resumption traffic fails
// over along the ring order with zero client-visible errors; the failure
// threshold ejects the node; traffic that lands elsewhere counts as a
// redirect (the session-cache miss the stats make visible).
func TestRouterFailoverAndEjection(t *testing.T) {
	r, stubs := stubCluster(t, 3, Config{FailThreshold: 2, EjectFor: time.Hour})
	ring := r.ring

	// Find client keys owned by node 1, then kill node 1.
	var owned []string
	for c := 0; len(owned) < 10; c++ {
		key := fmt.Sprintf("client-%d", c)
		if ring.Owner(key) == 1 {
			owned = append(owned, key)
		}
	}
	stubs[1].setDown(true)

	for round := 0; round < 3; round++ {
		for _, key := range owned {
			resp := r.Submit(&serve.Request{ID: key, Op: serve.OpHandshake, Resume: true, ClientID: key})
			if resp.Status != serve.StatusOK {
				t.Fatalf("key %s round %d: %s (%s) — failover leaked a dead-node error",
					key, round, resp.Status, resp.Error)
			}
		}
	}

	s := r.Stats()
	n1 := s.Nodes[1]
	if n1.Ejections < 1 {
		t.Errorf("dead node ejections = %d, want >= 1", n1.Ejections)
	}
	if !n1.Ejected {
		t.Error("dead node not marked ejected in stats")
	}
	if n1.OK != 0 {
		t.Errorf("dead node served %d requests", n1.OK)
	}
	// Once ejected, the dead node is not even attempted: total transport
	// failures stay at the threshold instead of growing per request.
	if n1.Failures > uint64(2+len(owned)) {
		t.Errorf("dead node accumulated %d failures after ejection", n1.Failures)
	}
	var red uint64
	for _, n := range s.Nodes {
		red += n.Redirects
	}
	if red == 0 {
		t.Error("no redirects recorded though the ring owner was dead")
	}
	if s.Exhausted != 0 {
		t.Errorf("exhausted = %d with two healthy nodes", s.Exhausted)
	}
}

// TestRouterHalfOpenRecovery: after the quarantine lapses the next pick
// probes the node; a success clears the failure count and the node serves
// again.
func TestRouterHalfOpenRecovery(t *testing.T) {
	r, stubs := stubCluster(t, 2, Config{FailThreshold: 1, EjectFor: 30 * time.Millisecond, Seed: 3})
	stubs[0].setDown(true)
	for i := 0; i < 5; i++ {
		if resp := r.Submit(&serve.Request{Op: serve.OpMD5}); resp.Status != serve.StatusOK {
			t.Fatalf("request %d during outage: %s", i, resp.Status)
		}
	}
	if got := r.Stats().Nodes[0].Ejections; got < 1 {
		t.Fatalf("ejections = %d, want >= 1", got)
	}
	stubs[0].setDown(false)
	time.Sleep(40 * time.Millisecond)
	for i := 0; i < 50 && stubs[0].servedCount() == 0; i++ {
		if resp := r.Submit(&serve.Request{Op: serve.OpMD5}); resp.Status != serve.StatusOK {
			t.Fatalf("request %d after recovery: %s", i, resp.Status)
		}
	}
	if stubs[0].servedCount() == 0 {
		t.Error("recovered node never served again after quarantine lapsed")
	}
	if r.Stats().Nodes[0].Ejected {
		t.Error("recovered node still marked ejected")
	}
}

// TestRouterExhaustedSheds: with every backend dead the router answers a
// shed with reason "backend-failure" — the retryable verdict the client
// RetryPolicy expects — never an error or a hang.
func TestRouterExhaustedSheds(t *testing.T) {
	r, stubs := stubCluster(t, 3, Config{FailThreshold: 100})
	for _, st := range stubs {
		st.setDown(true)
	}
	resp := r.Submit(&serve.Request{ID: "doomed", Op: serve.OpMD5})
	if resp.Status != serve.StatusShed {
		t.Fatalf("status = %s, want shed", resp.Status)
	}
	if resp.ShedReason != "backend-failure" {
		t.Errorf("shed reason = %q, want backend-failure", resp.ShedReason)
	}
	if resp.ID != "doomed" || resp.Shard != -1 {
		t.Errorf("shed response ID=%q shard=%d, want doomed/-1", resp.ID, resp.Shard)
	}
	if got := r.Stats().Exhausted; got != 1 {
		t.Errorf("exhausted = %d, want 1", got)
	}
	// Each backend was tried at most once for the one request.
	for i, n := range r.Stats().Nodes {
		if n.Failures > 1 {
			t.Errorf("node %d tried %d times for one request", i, n.Failures)
		}
	}
}

// TestRouterDrainSheds: a draining router refuses at both entry points —
// Submit and the wire front end's Preadmit — with the same "draining"
// protocol a draining gateway uses.
func TestRouterDrainSheds(t *testing.T) {
	r, _ := stubCluster(t, 2, Config{})
	r.Drain(context.Background())
	if !r.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	resp := r.Submit(&serve.Request{Op: serve.OpMD5})
	if resp.Status != serve.StatusShed || resp.ShedReason != "draining" {
		t.Errorf("Submit during drain: %s/%q, want shed/draining", resp.Status, resp.ShedReason)
	}
	if _, shed := r.Preadmit(serve.OpMD5, "-", 0); shed == nil || shed.ShedReason != "draining" {
		t.Error("Preadmit during drain did not shed")
	}
	if got := r.Stats().ShedDraining; got != 2 {
		t.Errorf("shed_draining = %d, want 2", got)
	}
}

// startWireNode boots a real gateway behind a wire listener, torn down
// with the test.
func startWireNode(t *testing.T, cfg serve.Config) string {
	t.Helper()
	gw, err := serve.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(gw, wire.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		gw.Drain(ctx)
		srv.Close()
	})
	return addr.String()
}

// TestRouterWireClusterResumption is the in-process cluster e2e: three
// real gateways behind wire listeners, routed by ring affinity.  After
// each client's first handshake seeds its owner's session cache, every
// further Resume handshake is served abbreviated — affinity preserves the
// resumption hit rate across a cluster.
func TestRouterWireClusterResumption(t *testing.T) {
	var backends []string
	for i := 0; i < 3; i++ {
		backends = append(backends, startWireNode(t, serve.Config{Shards: 1, Seed: int64(i + 1)}))
	}
	r, err := NewRouter(Config{
		Backends: backends,
		Dial:     func(addr string) (serve.Transport, error) { return wire.Dial(addr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const clients, rounds = 8, 4
	resumed := 0
	for round := 0; round < rounds; round++ {
		for c := 0; c < clients; c++ {
			id := fmt.Sprintf("sess-%d", c)
			resp := r.Submit(&serve.Request{
				ID: id, Op: serve.OpHandshake, Resume: true, ClientID: id,
			})
			if resp.Status != serve.StatusOK {
				t.Fatalf("client %s round %d: %s (%s)", id, round, resp.Status, resp.Error)
			}
			if resp.Resumed {
				resumed++
			}
			if resp.LoadUS < 0 {
				t.Fatalf("negative piggybacked load %d", resp.LoadUS)
			}
		}
	}
	// Only each node's very first handshake can be full; with affinity
	// every later one resumes.  3 nodes serve 8 clients, so at most 8
	// full handshakes (one per client's first arrival at a cold cache is
	// too strict — the cache is per node, not per client — but a client's
	// own later rounds must all resume).
	if want := clients * (rounds - 1); resumed < want {
		t.Errorf("resumed %d/%d handshakes, want >= %d — affinity is not keeping caches warm",
			resumed, clients*rounds, want)
	}
	s := r.Stats()
	var aff uint64
	for _, n := range s.Nodes {
		aff += n.AffinityHits
	}
	if aff != clients*rounds {
		t.Errorf("affinity hits %d, want %d", aff, clients*rounds)
	}
}

// TestRouterWireClusterDigests: mixed digest traffic through the real
// cluster self-verifies payload integrity end to end (the cluster
// analogue of the gateway every-op test).
func TestRouterWireClusterDigests(t *testing.T) {
	var backends []string
	for i := 0; i < 3; i++ {
		backends = append(backends, startWireNode(t, serve.Config{Shards: 1, Seed: int64(i + 10)}))
	}
	r, err := NewRouter(Config{
		Backends: backends,
		Dial:     func(addr string) (serve.Transport, error) { return wire.Dial(addr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := 0; i < 60; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 1+i*7)
		want := hashes.MD5Sum(payload)
		resp := r.Submit(&serve.Request{ID: fmt.Sprintf("d%d", i), Op: serve.OpMD5, Payload: payload})
		if resp.Status != serve.StatusOK {
			t.Fatalf("request %d: %s (%s)", i, resp.Status, resp.Error)
		}
		if !bytes.Equal(resp.Digest, want[:]) {
			t.Fatalf("request %d: digest mismatch through cluster", i)
		}
	}
	if s := r.Stats(); s.OK != 60 {
		t.Errorf("cluster ok = %d, want 60", s.OK)
	}
}

// TestCoRouteConcentratesKey: with same-key co-routing on, every
// non-resume decrypt under one key lands on that key's preferred backend
// — the whole point of concentration: one node's precompute cache and
// batch engine see all of the key's traffic.
func TestCoRouteConcentratesKey(t *testing.T) {
	r, stubs := stubCluster(t, 4, Config{CoRouteRSA: true})
	const keys, perKey = 12, 10
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("rsa-key-%d", k)
		for i := 0; i < perKey; i++ {
			resp := r.Submit(&serve.Request{
				ID: fmt.Sprintf("%s/%d", key, i), Op: serve.OpRSADecrypt,
				Key: []byte(key), ClientID: key, // ClientID mirrors the key so the served log is replayable
			})
			if resp.Status != serve.StatusOK {
				t.Fatalf("key %s op %d: %s (%s)", key, i, resp.Status, resp.Error)
			}
		}
	}
	// Replay arrivals: each backend saw only keys whose co-routing identity
	// it owns on the ring.
	for i, st := range stubs {
		st.mu.Lock()
		for _, key := range st.served {
			if owner := r.ring.Owner("rsa|" + key); owner != i {
				t.Errorf("node %d served decrypts for key %q preferred on node %d", i, key, owner)
			}
		}
		st.mu.Unlock()
	}
	s := r.Stats()
	if s.CoRouted != keys*perKey || s.CoRouteSpill != 0 {
		t.Fatalf("corouted/spill = %d/%d, want %d/0", s.CoRouted, s.CoRouteSpill, keys*perKey)
	}
}

// TestCoRouteSpillsOverCeiling: a hot key's preferred backend reporting a
// huge backlog must not keep attracting that key — once its cost exceeds
// the ceiling relative to the cheapest alternative, decrypts spill to
// p2c and the idle node absorbs them.
func TestCoRouteSpillsOverCeiling(t *testing.T) {
	r, stubs := stubCluster(t, 2, Config{CoRouteRSA: true})
	pref := r.ring.Owner("rsa|hot")
	stubs[pref].mu.Lock()
	stubs[pref].loadUS = 1_000_000 // every response reports a mile-long backlog
	stubs[pref].mu.Unlock()

	const n = 10
	for i := 0; i < n; i++ {
		resp := r.Submit(&serve.Request{
			ID: fmt.Sprintf("hot/%d", i), Op: serve.OpRSADecrypt, Key: []byte("hot"),
		})
		if resp.Status != serve.StatusOK {
			t.Fatalf("op %d: %s (%s)", i, resp.Status, resp.Error)
		}
	}
	// The first decrypt seeds the preferred node's cost EWMA (no backlog
	// known yet); everything after must spill to the idle node.
	if got := stubs[pref].servedCount(); got != 1 {
		t.Fatalf("preferred node served %d decrypts, want 1 (the EWMA seed)", got)
	}
	if got := stubs[1-pref].servedCount(); got != n-1 {
		t.Fatalf("alternative node served %d decrypts, want %d", got, n-1)
	}
	s := r.Stats()
	if s.CoRouted != 1 || s.CoRouteSpill != n-1 {
		t.Fatalf("corouted/spill = %d/%d, want 1/%d", s.CoRouted, s.CoRouteSpill, n-1)
	}
}

// TestCoRouteOffIsInert: with the flag off the counters stay zero —
// decrypt routing is plain p2c, bit-identical to the pre-co-routing tier.
func TestCoRouteOffIsInert(t *testing.T) {
	r, _ := stubCluster(t, 3, Config{})
	for i := 0; i < 30; i++ {
		resp := r.Submit(&serve.Request{
			ID: fmt.Sprintf("off/%d", i), Op: serve.OpRSADecrypt, Key: []byte("k"),
		})
		if resp.Status != serve.StatusOK {
			t.Fatalf("op %d: %s (%s)", i, resp.Status, resp.Error)
		}
	}
	if s := r.Stats(); s.CoRouted != 0 || s.CoRouteSpill != 0 {
		t.Fatalf("co-route counters moved with the flag off: %d/%d", s.CoRouted, s.CoRouteSpill)
	}
}
