package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wisp/internal/hashes"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Errorf("min/max = %v/%v, want 1/1000", s.Min, s.Max)
	}
	// Exponential buckets are coarse: accept the right bucket, not the
	// exact rank.
	if s.P50 < 256 || s.P50 > 1000 {
		t.Errorf("p50 = %v, want within [256, 1000]", s.P50)
	}
	if s.P99 < 512 || s.P99 > 1000 {
		t.Errorf("p99 = %v, want within [512, 1000]", s.P99)
	}
	if empty := (&Histogram{}).Snapshot(); empty.Count != 0 || empty.P50 != 0 {
		t.Errorf("empty snapshot = %+v", empty)
	}
}

// testGateway builds a small gateway that shuts down with the test.
func testGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := gw.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return gw
}

// TestGatewayServesEveryOp round-trips each primitive through a live
// shard and checks the self-verified digest.
func TestGatewayServesEveryOp(t *testing.T) {
	gw := testGateway(t, Config{Shards: 2, Seed: 7})
	payload := []byte("the quick brown fox jumps over the lazy dog")
	want := hashes.MD5Sum(payload)
	for _, op := range AllOps {
		resp := gw.Submit(&Request{Op: op, Payload: payload, RecordSize: 16})
		if resp.Status != StatusOK {
			t.Fatalf("%s: status %s (%s)", op, resp.Status, resp.Error)
		}
		if !bytes.Equal(resp.Digest, want[:]) {
			t.Errorf("%s: digest mismatch", op)
		}
		if resp.ServiceUS < 0 || resp.QueueUS < 0 {
			t.Errorf("%s: negative timing %+v", op, resp)
		}
		switch op {
		case OpSSL:
			if resp.Records != 3 {
				t.Errorf("ssl: %d records, want 3 (44 bytes / 16)", resp.Records)
			}
			if resp.EstBaseCycles <= resp.EstOptCycles || resp.EstOptCycles <= 0 {
				t.Errorf("ssl: estimates base=%v opt=%v", resp.EstBaseCycles, resp.EstOptCycles)
			}
		case OpMD5:
			if !bytes.Equal(resp.Result, want[:]) {
				t.Errorf("md5: wrong result")
			}
		}
	}
}

func TestGatewayRejectsBadRequests(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1})
	for _, req := range []*Request{
		{Op: "no-such-op"},
		{Op: OpMD5, Payload: make([]byte, MaxPayload+1)},
		{Op: OpMD5, DeadlineUS: -1},
	} {
		if resp := gw.Submit(req); resp.Status != StatusError {
			t.Errorf("%+v: status %s, want error", req.Op, resp.Status)
		}
	}
	if s := gw.Stats(); s.Errors != 3 {
		t.Errorf("stats errors = %d, want 3", s.Errors)
	}
}

// TestLoopbackFigure8Mix is the acceptance loopback: daemon and load
// generator in one process, the paper's 1k/4k/16k/32k mix at 4 concurrent
// clients, zero corrupted payloads, populated latency histograms, shed
// counters present, clean drain.
func TestLoopbackFigure8Mix(t *testing.T) {
	gw, addr := startServer(t, Config{Shards: 2, Seed: 3})
	rep, err := RunLoad(LoadConfig{
		Addr:      addr,
		Clients:   4,
		PerClient: 4,
		Mix:       []int{1 << 10, 4 << 10, 16 << 10, 32 << 10},
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d corrupted payloads", rep.Mismatches)
	}
	if rep.OK != 16 || rep.Transactions != 16 {
		t.Fatalf("ok=%d transactions=%d, want 16/16: %+v", rep.OK, rep.Transactions, rep)
	}
	if rep.Latency.Count != 16 || rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 {
		t.Errorf("bad latency summary %+v", rep.Latency)
	}
	if len(rep.PerSize) != 4 {
		t.Errorf("per-size rows = %d, want 4", len(rep.PerSize))
	}
	if rep.ModelSpeedup <= 1 {
		t.Errorf("model speedup = %v, want > 1", rep.ModelSpeedup)
	}

	stats := gw.Stats()
	ssl := stats.PerOp[string(OpSSL)]
	if ssl.OK != 16 || ssl.Latency.Count != 16 {
		t.Errorf("server ssl stats %+v, want 16 observations", ssl)
	}
	if ssl.Latency.P50 <= 0 || ssl.Latency.P99 < ssl.Latency.P50 {
		t.Errorf("server latency histogram not populated: %+v", ssl.Latency)
	}
	if stats.BatchSize.Count == 0 {
		t.Error("batch-size histogram empty")
	}
	if _, ok := stats.ShedByReason["queue-full"]; !ok {
		t.Error("shed counters missing from stats")
	}
	if stats.Shed != 0 {
		t.Errorf("unexpected sheds: %d", stats.Shed)
	}
}

// TestLoopbackShedding overloads a deliberately tiny gateway through the
// HTTP path and checks that shed requests are reported consistently on
// both sides, with zero corruption among the served ones.
func TestLoopbackShedding(t *testing.T) {
	gw, addr := startServer(t, Config{Shards: 1, QueueDepth: 1, BatchMax: 1, Seed: 5})
	rep, err := RunLoad(LoadConfig{
		Addr:      addr,
		Clients:   8,
		PerClient: 4,
		Mix:       []int{8 << 10}, // an RSA handshake plus 8 KB of records each: the queue must back up
		Seed:      13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 || rep.Errors != 0 {
		t.Fatalf("mismatches=%d errors=%d", rep.Mismatches, rep.Errors)
	}
	if rep.Shed == 0 {
		t.Fatal("overload produced no sheds — admission control not engaging")
	}
	stats := gw.Stats()
	if stats.Shed != uint64(rep.Shed) {
		t.Errorf("server reports %d sheds, clients saw %d", stats.Shed, rep.Shed)
	}
	if stats.ShedByReason["queue-full"] == 0 {
		t.Error("queue-full shed counter not populated")
	}
	if got := stats.PerOp[string(OpSSL)]; got.Shed == 0 {
		t.Error("per-op shed counter not populated")
	}
}

// TestDeadlineExpiry parks a short-deadline request behind a held SSL
// transaction and expects deadline-aware rejection, at admission or at
// dequeue.
func TestDeadlineExpiry(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, BatchMax: 1, Seed: 9})
	release, done := holdSSL(t, gw, 32<<10)

	short := make(chan *Response, 1)
	go func() { short <- gw.Submit(&Request{Op: OpMD5, Payload: []byte("x"), DeadlineUS: 1}) }()
	waitFor(t, "short-deadline request neither shed nor queued", func() bool { return len(short) > 0 || queued(gw) > 0 })
	release()
	resp := <-short
	if resp.Status != StatusExpired && resp.Status != StatusShed {
		t.Fatalf("status %s (%s), want expired or shed", resp.Status, resp.Error)
	}
	if r := <-done; r.Status != StatusOK {
		t.Fatalf("slow op: %s (%s)", r.Status, r.Error)
	}
	stats := gw.Stats()
	if stats.Expired+stats.ShedByReason["deadline"] == 0 {
		t.Errorf("no deadline rejection recorded: %+v", stats)
	}
}

// TestRecordBatching queues record ops behind a held transaction and
// expects them to be served as one same-op batch.
func TestRecordBatching(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, Seed: 17})
	release, done := holdSSL(t, gw, 32<<10)

	const n = 8
	var wg sync.WaitGroup
	batches := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := gw.Submit(&Request{Op: OpRecord, Payload: []byte(fmt.Sprintf("record %d", i))})
			if resp.Status != StatusOK {
				t.Errorf("record %d: %s (%s)", i, resp.Status, resp.Error)
			}
			batches[i] = resp.Batch
		}(i)
	}
	waitQueued(t, gw, n)
	release()
	wg.Wait()
	if r := <-done; r.Status != StatusOK {
		t.Fatalf("slow op: %s (%s)", r.Status, r.Error)
	}
	max := 0
	for _, b := range batches {
		if b > max {
			max = b
		}
	}
	if max < 2 {
		t.Errorf("max record batch = %d, want ≥ 2 (batching not engaging)", max)
	}
	if s := gw.Stats(); s.BatchSize.Max < 2 {
		t.Errorf("batch histogram max = %v, want ≥ 2", s.BatchSize.Max)
	}
}

// TestDrain verifies graceful drain: queued work completes, later
// submissions are shed with the draining reason, Drain is idempotent.
func TestDrain(t *testing.T) {
	gw, err := NewGateway(Config{Shards: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	oks := make([]Status, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			oks[i] = gw.Submit(&Request{Op: OpRecord, Payload: []byte("drain me")}).Status
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, s := range oks {
		if s != StatusOK && s != StatusShed {
			t.Errorf("request %d: status %s", i, s)
		}
	}
	if resp := gw.Submit(&Request{Op: OpMD5}); resp.Status != StatusShed || !strings.Contains(resp.Error, "draining") {
		t.Errorf("post-drain submit: %+v", resp)
	}
	if err := gw.Drain(ctx); err != nil {
		t.Errorf("second drain: %v", err)
	}
	if gw.Stats().ShedByReason["draining"] == 0 {
		t.Error("draining shed not counted")
	}
}

// startServer boots the HTTP front end on a free port and tears it down
// with the test.
func startServer(t *testing.T, cfg Config) (*Gateway, string) {
	t.Helper()
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(gw)
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

// TestHTTPEndpoints exercises /v1/offload, /stats (both formats) and
// /healthz over a real socket.
func TestHTTPEndpoints(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1, Seed: 23})
	c := NewClient(addr)
	if !c.Healthy() {
		t.Fatal("healthz not ok")
	}

	payload := []byte("endpoint check")
	want := hashes.MD5Sum(payload)
	resp, err := c.Do(&Request{ID: "e-1", Op: OpHMACSHA1, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK || resp.ID != "e-1" || !bytes.Equal(resp.Digest, want[:]) {
		t.Fatalf("offload response %+v", resp)
	}
	if len(resp.Result) != hashes.SHA1Size {
		t.Errorf("hmac-sha1 result length %d", len(resp.Result))
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests == 0 || stats.Shards != 1 {
		t.Errorf("stats %+v", stats)
	}

	httpResp, err := http.Get("http://" + addr + "/stats?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	for _, want := range []string{"wispd_requests_total", "wispd_shed_total{reason=\"queue-full\"}", "wispd_op_latency_us{op=\"hmac-sha1\",q=\"0.99\"}"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("text dump missing %q", want)
		}
	}

	// Malformed body → 400, not a hung connection.
	bad, err := http.Post("http://"+addr+"/v1/offload", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body → %d, want 400", bad.StatusCode)
	}
}

// TestRequestJSONRoundTrip pins the wire format the daemon and load
// generator share.
func TestRequestJSONRoundTrip(t *testing.T) {
	req := &Request{ID: "r1", Op: Op3DES, Payload: []byte{1, 2, 3}, Key: make([]byte, 24), DeadlineUS: 500}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != req.Op || !bytes.Equal(got.Payload, req.Payload) || got.DeadlineUS != 500 {
		t.Errorf("round trip %+v != %+v", got, req)
	}
	if !strings.Contains(string(data), `"op":"3des"`) {
		t.Errorf("wire format changed: %s", data)
	}
}
