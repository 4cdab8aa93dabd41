package serve

import (
	"context"
	"testing"
	"time"
)

// startHardenedServer boots the HTTP front end with a read timeout (the
// slow-loris defense) on a free port.
func startHardenedServer(t *testing.T, cfg Config, readTimeout time.Duration) (*Gateway, string) {
	t.Helper()
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(gw)
	srv.SetReadTimeout(readTimeout)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return gw, addr.String()
}

// TestLoopbackAttackIsolation runs the mixed adversarial workload end to
// end over a real socket: legit closed-loop clients with resumption and
// deadlines, a flood attacker hammering full-handshake SSL from concurrent
// streams under one ClientID, a thrash attacker churning the session
// cache, and a slowloris attacker dribbling bodies against the read
// timeout.  The QoS layer must throttle the flood while legit clients
// keep their digests clean, their sheds bounded and their session hit
// rate above the floor.
func TestLoopbackAttackIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed adversarial run is seconds long")
	}
	// The rate is chosen share-wise so the verdict is independent of host
	// speed (and of the race detector's ~10x slowdown): estimated cost
	// tracks wall service time, so a client's spend rate is its share of
	// serving capacity.  A serial legit client holds one round trip at a
	// time and demands at most a couple hundred ms of estimated work per
	// second even race-inflated; the 16-stream flood attacker demands
	// full-handshake SSL continuously from every stream — megaseconds of
	// estimated work per second, an order of magnitude over any sane
	// budget.  A 300ms/s rate sits far from both: legit clients never
	// touch it, the flood burns its burst in well under a second.  (A
	// thrash attacker's cheap handshakes sit too close to the legit share
	// for a host-independent verdict, so the churn profile rides along
	// for its cache pressure, not for the throttle assertion.)
	// The read timeout must be generous enough that a legit body read
	// delayed by detector-inflated scheduling never trips it, while the
	// slowloris dribble below stretches well past it.
	gw, addr := startHardenedServer(t, Config{
		Shards: 2, Seed: 9,
		ClientRateUS: 300_000, ClientBurstUS: 100_000,
	}, 500*time.Millisecond)

	rep, err := RunLoad(LoadConfig{
		Addr:        addr,
		Clients:     6,
		PerClient:   20,
		Mix:         []int{1 << 10, 4 << 10},
		Ops:         []Op{OpSSL, OpRecord},
		ResumeRatio: 0.7,
		DeadlineUS:  30_000_000,
		Seed:        9,

		Attack:            []AttackProfile{AttackFlood, AttackThrash, AttackSlowloris},
		AttackRatio:       0.25,
		AttackConcurrency: 16,
		AttackRTTUS:       2000, // near-loopback attackers; pacing only bounds the throttle-spin rate
		SlowlorisMS:       1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d digest mismatches under attack", rep.Mismatches)
	}
	if rep.Legit == nil || rep.AttackRep == nil {
		t.Fatal("mixed run missing class reports")
	}
	if rep.AttackRep.Clients != 3 {
		t.Fatalf("attacker count %d, want 3 (flood + thrash + slowloris)", rep.AttackRep.Clients)
	}

	// Legit service must stay near-total: bounded sheds, no expiries.
	lg := rep.Legit
	if lg.Requests == 0 || lg.OK == 0 {
		t.Fatalf("legit class served nothing: %+v", lg)
	}
	if lg.Shed*3 > lg.Requests {
		t.Fatalf("legit sheds unbounded: %d of %d requests", lg.Shed, lg.Requests)
	}
	if lg.Errors != 0 {
		t.Fatalf("legit transport errors: %d", lg.Errors)
	}

	// Legit resumption must survive the thrash churn: throttling bounds
	// how fast the attacker can cycle the session cache.
	if lg.ResumeAsked > 0 && lg.Resumed*2 < lg.ResumeAsked {
		t.Fatalf("legit session hit rate below floor: %d resumed of %d asked", lg.Resumed, lg.ResumeAsked)
	}

	// The attackers must actually have been throttled.
	stats := gw.Stats()
	if stats.QoS == nil {
		t.Fatal("stats missing QoS view")
	}
	if stats.QoS.Throttled == 0 {
		t.Fatal("no requests throttled — attackers ran unmetered")
	}
	if rep.AttackRep.Throttled == 0 {
		t.Fatal("attack class reports zero throttles")
	}
	// Throttle sheds are policy, not capacity: they must never be counted
	// as sheds-while-idle.
	if stats.ShedWhileIdle != 0 {
		t.Fatalf("%d sheds while idle (throttle sheds misclassified?)", stats.ShedWhileIdle)
	}
	// Every legit client should appear in the per-client accounting with
	// clean identities (the fuzz harness checks the invariants directly;
	// here we check the serving path feeds them).
	found := 0
	for _, c := range stats.QoS.Clients {
		if len(c.ID) >= 5 && c.ID[:5] == "legit" {
			found++
		}
	}
	if found != 6 {
		t.Fatalf("per-client table tracks %d legit identities, want 6: %+v", found, stats.QoS.Clients)
	}
}

// TestQoSOffPathUnchanged pins the compatibility contract: with
// ClientRateUS zero the gateway must not construct a QoS layer at all, so
// the pre-QoS serving path (and its /stats schema) is untouched.
func TestQoSOffPathUnchanged(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, Seed: 3})
	if gw.qos != nil {
		t.Fatal("QoS layer constructed without ClientRateUS")
	}
	resp := gw.Submit(&Request{Op: OpMD5, Payload: []byte("x"), ClientID: "anyone"})
	if resp.Status != StatusOK {
		t.Fatalf("submit: %+v", resp)
	}
	if gw.Stats().QoS != nil {
		t.Fatal("stats exports a QoS view with QoS off")
	}
}

// TestThrottleShedReason verifies the wire contract the load generator
// and retrying clients key off: a rate-limited request is shed with
// reason "throttle" and never reaches a shard.
func TestThrottleShedReason(t *testing.T) {
	gw := testGateway(t, Config{
		Shards: 1, Seed: 3,
		ClientRateUS: 1, ClientBurstUS: 1, // everything after the first µs throttles
	})
	var throttled *Response
	for i := 0; i < 50 && throttled == nil; i++ {
		resp := gw.Submit(&Request{Op: OpMD5, Payload: []byte("spam"), ClientID: "abuser"})
		if resp.Status == StatusShed {
			throttled = resp
		}
	}
	if throttled == nil {
		t.Fatal("50 back-to-back requests against a 1µs/s budget never throttled")
	}
	if throttled.ShedReason != "throttle" {
		t.Fatalf("shed reason %q, want throttle", throttled.ShedReason)
	}
	if throttled.Shard != -1 {
		t.Fatalf("throttled request reached shard %d", throttled.Shard)
	}
	if gw.Stats().ShedByReason["throttle"] == 0 {
		t.Fatal("throttle shed not counted in metrics")
	}
}
