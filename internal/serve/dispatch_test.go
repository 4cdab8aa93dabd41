package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond every millisecond, failing the test with what after
// 2 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitBusy polls until some shard has a nonzero backlog cost (a task is
// queued or in service), failing the test after 2 s.
func waitBusy(t *testing.T, gw *Gateway) {
	t.Helper()
	waitFor(t, "no shard ever became busy", func() bool {
		for _, sh := range gw.shards {
			if sh.cost.Load() > 0 {
				return true
			}
		}
		return false
	})
}

// waitQueued polls until at least n tasks sit in shard queues.
func waitQueued(t *testing.T, gw *Gateway, n int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("fewer than %d tasks ever queued", n), func() bool { return queued(gw) >= n })
}

func queued(gw *Gateway) int64 {
	var q int64
	for i := range gw.shards {
		q += gw.metrics.queueDepth[i].Load()
	}
	return q
}

// holdSSL submits an SSL transaction of size bytes and holds the shard
// that serves it until release is called, so work queued behind it waits
// however fast the host runs the transaction.  It returns once the
// transaction is in service.  The hold lets go by itself after 10 s, so a
// test that never releases fails on its own checks instead of hanging,
// and at the latest when the test ends.
func holdSSL(t *testing.T, gw *Gateway, size int) (release func(), done <-chan *Response) {
	t.Helper()
	slow := &Request{Op: OpSSL, Payload: make([]byte, size)}
	entered, gate := make(chan struct{}), make(chan struct{})
	gw.beforeRun = func(req *Request) {
		if req == slow {
			close(entered)
			<-gate
		}
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	time.AfterFunc(10*time.Second, release)

	out := make(chan *Response, 1)
	go func() { out <- gw.Submit(slow) }()
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("held transaction never reached a shard")
	}
	return release, out
}

// TestNoHeadOfLineBlockingWhileIdle is the regression test for the
// round-robin dispatch bug: with an SSL transaction holding one shard,
// deadline-bearing record ops must be routed to the idle shard — zero
// deadline sheds, zero sheds-while-idle, everything OK.
func TestNoHeadOfLineBlockingWhileIdle(t *testing.T) {
	gw := testGateway(t, Config{Shards: 2, Seed: 31})
	release, done := holdSSL(t, gw, 64<<10)

	const n = 12
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = gw.Submit(&Request{
				Op:         OpRecord,
				Payload:    []byte(fmt.Sprintf("record %d", i)),
				DeadlineUS: 2_000_000,
			})
		}(i)
	}
	wg.Wait()
	release()
	for i, resp := range resps {
		if resp.Status != StatusOK {
			t.Errorf("record %d: status %s (%s) — head-of-line blocked", i, resp.Status, resp.Error)
		}
	}
	if r := <-done; r.Status != StatusOK {
		t.Fatalf("slow op: %s (%s)", r.Status, r.Error)
	}
	stats := gw.Stats()
	if stats.ShedByReason["deadline"] != 0 {
		t.Errorf("%d deadline sheds with an idle shard available", stats.ShedByReason["deadline"])
	}
	if stats.ShedWhileIdle != 0 {
		t.Errorf("shed_while_idle = %d, want 0 under cost dispatch", stats.ShedWhileIdle)
	}
	if stats.Expired != 0 {
		t.Errorf("%d expirations with an idle shard available", stats.Expired)
	}
}

// TestWorkStealing forces the legacy round-robin policy so record ops
// land behind a held transaction, and expects the idle shard to steal
// them; the steal counters must agree between the gateway-wide total and
// the per-op breakdown.
func TestWorkStealing(t *testing.T) {
	gw := testGateway(t, Config{Shards: 2, Dispatch: DispatchRR, BatchMax: 1, Seed: 33})
	release, done := holdSSL(t, gw, 128<<10)

	const n = 8
	var wg sync.WaitGroup
	stolen := 0
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := gw.Submit(&Request{Op: OpRecord, Payload: []byte(fmt.Sprintf("steal %d", i))})
			if resp.Status != StatusOK {
				t.Errorf("record %d: %s (%s)", i, resp.Status, resp.Error)
			}
			if resp.Stolen {
				mu.Lock()
				stolen++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	release()
	r := <-done
	if r.Status != StatusOK {
		t.Fatalf("slow op: %s (%s)", r.Status, r.Error)
	}
	if r.Stolen {
		stolen++ // the long op can itself be stolen before its shard dequeues it
	}

	stats := gw.Stats()
	if stats.Steals == 0 {
		t.Error("no steals recorded — idle shard did not take queued work")
	}
	if uint64(stolen) != stats.Steals {
		t.Errorf("responses report %d stolen, stats report %d", stolen, stats.Steals)
	}
	var perOpSteals, perOpRedirects, perOpRetries uint64
	for _, os := range stats.PerOp {
		perOpSteals += os.Steals
		perOpRedirects += os.Redirects
		perOpRetries += os.Retries
	}
	if perOpSteals != stats.Steals || perOpRedirects != stats.Redirects || perOpRetries != stats.Retries {
		t.Errorf("per-op sums (steals %d, redirects %d, retries %d) disagree with totals (%d, %d, %d)",
			perOpSteals, perOpRedirects, perOpRetries, stats.Steals, stats.Redirects, stats.Retries)
	}
}

// TestPerOpCostPricing checks that shards price a pending handshake and
// a pending record op differently: after serving both classes, the SSL
// EWMA must exceed the digest EWMA, and the backlog cost must return to
// zero once the shard is idle.
func TestPerOpCostPricing(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, Seed: 41})
	for i := 0; i < 5; i++ {
		if resp := gw.Submit(&Request{Op: OpMD5, Payload: []byte("cheap")}); resp.Status != StatusOK {
			t.Fatalf("md5: %s", resp.Status)
		}
	}
	if resp := gw.Submit(&Request{Op: OpSSL, Payload: make([]byte, 16<<10)}); resp.Status != StatusOK {
		t.Fatalf("ssl: %s", resp.Status)
	}
	sh := gw.shards[0]
	if ssl, md5 := sh.opCost(OpSSL), sh.opCost(OpMD5); ssl <= md5 {
		t.Errorf("per-op pricing inverted: ssl %.0fµs ≤ md5 %.0fµs", ssl, md5)
	}
	if c := sh.cost.Load(); c != 0 {
		t.Errorf("idle shard backlog cost = %dµs, want 0", c)
	}
	stats := gw.Stats()
	if stats.OpCostUS[string(OpSSL)] <= stats.OpCostUS[string(OpMD5)] {
		t.Errorf("op_cost_us gauge inverted: %+v", stats.OpCostUS)
	}
}

// TestDispatchDeterministicSingleShard runs the same seeded request
// sequence through two single-shard gateways and expects identical
// responses — the `-seed` determinism contract at workers=1.
func TestDispatchDeterministicSingleShard(t *testing.T) {
	run := func() []*Response {
		gw := testGateway(t, Config{Shards: 1, Seed: 47})
		var out []*Response
		for i := 0; i < 6; i++ {
			op := AllOps[i%len(AllOps)]
			out = append(out, gw.Submit(&Request{Op: op, Payload: []byte(fmt.Sprintf("det %d", i)), RecordSize: 8}))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Status != b[i].Status || a[i].Shard != b[i].Shard ||
			string(a[i].Digest) != string(b[i].Digest) || string(a[i].Result) != string(b[i].Result) {
			t.Errorf("response %d diverged between identical seeded runs", i)
		}
	}
}

// TestDispatchConfigValidation rejects unknown policies.
func TestDispatchConfigValidation(t *testing.T) {
	if _, err := NewGateway(Config{Shards: 1, Dispatch: "fastest"}); err == nil {
		t.Error("unknown dispatch policy accepted")
	}
}
