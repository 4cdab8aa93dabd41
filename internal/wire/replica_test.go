package wire

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"wisp/internal/serve"
)

// TestReplicateFrameRoundTrip pins the push-frame codec: a batch encodes
// to one frame whose header carries the length table and whose body is
// the concatenated id/master bytes.
func TestReplicateFrameRoundTrip(t *testing.T) {
	entries := []ReplicaEntry{
		{ID: []byte("0123456789abcdef"), Master: bytes.Repeat([]byte{0x11}, 48)},
		{ID: []byte("x"), Master: []byte("mm")},
	}
	var enc Encoder
	frame, err := enc.Replicate(nil, 42, entries)
	if err != nil {
		t.Fatal(err)
	}
	hdr, body := splitFrame(t, frame)
	lens, bodyLen, err := parseReplicate(hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lens) != 2 || bodyLen != len(body) {
		t.Fatalf("lens %v bodyLen %d (body %d)", lens, bodyLen, len(body))
	}
	off := 0
	for i, l := range lens {
		id := body[off : off+l[0]]
		master := body[off+l[0] : off+l[0]+l[1]]
		off += l[0] + l[1]
		if !bytes.Equal(id, entries[i].ID) || !bytes.Equal(master, entries[i].Master) {
			t.Fatalf("entry %d drifted: id %x master %x", i, id, master)
		}
	}
}

// TestFetchFrameRoundTrip covers both the hit and miss shapes.
func TestFetchFrameRoundTrip(t *testing.T) {
	var enc Encoder
	frame, err := enc.Fetch(nil, 7, []byte("session-id"))
	if err != nil {
		t.Fatal(err)
	}
	hdr, _ := splitFrame(t, frame)
	seq, id, err := parseFetch(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || string(id) != "session-id" {
		t.Fatalf("fetch parsed as %d/%q", seq, id)
	}

	master := bytes.Repeat([]byte{0xee}, 48)
	frame, err = enc.FetchResp(nil, 7, master, true)
	if err != nil {
		t.Fatal(err)
	}
	hdr, body := splitFrame(t, frame)
	seq, found, masterLen, err := parseFetchResp(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || !found || masterLen != 48 || !bytes.Equal(body, master) {
		t.Fatalf("hit parsed as %d/%v/%d", seq, found, masterLen)
	}

	frame, err = enc.FetchResp(nil, 8, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	hdr, body = splitFrame(t, frame)
	seq, found, masterLen, err = parseFetchResp(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 8 || found || masterLen != 0 || len(body) != 0 {
		t.Fatalf("miss parsed as %d/%v/%d body %d", seq, found, masterLen, len(body))
	}
}

// TestReplicateEncodeBounds: the encoder refuses what the parser would.
func TestReplicateEncodeBounds(t *testing.T) {
	var enc Encoder
	ok := ReplicaEntry{ID: []byte("i"), Master: []byte("m")}
	cases := [][]ReplicaEntry{
		nil,
		make([]ReplicaEntry, MaxReplicateBatch+1),
		{{ID: nil, Master: []byte("m")}},
		{{ID: make([]byte, MaxSessionID+1), Master: []byte("m")}},
		{{ID: []byte("i"), Master: nil}},
		{{ID: []byte("i"), Master: make([]byte, MaxMaster+1)}},
	}
	for i := range cases[1] {
		cases[1][i] = ok
	}
	for i, entries := range cases {
		if _, err := enc.Replicate(nil, 1, entries); err == nil {
			t.Errorf("case %d: encoded, want error", i)
		}
	}
	if _, err := enc.Fetch(nil, 1, nil); err == nil {
		t.Error("empty fetch ID encoded")
	}
	if _, err := enc.FetchResp(nil, 1, nil, true); err == nil {
		t.Error("found FetchResp with empty master encoded")
	}
}

// replicaStub implements serve.Handler + ReplicaHandler over a plain map.
type replicaStub struct {
	mu    sync.Mutex
	store map[string][]byte
}

func newReplicaStub() *replicaStub { return &replicaStub{store: make(map[string][]byte)} }

func (s *replicaStub) Preadmit(op serve.Op, clientKey string, payloadBytes int) (int64, *serve.Response) {
	return 0, nil
}
func (s *replicaStub) CancelPreadmit(clientKey string) {}
func (s *replicaStub) Submit(req *serve.Request) *serve.Response {
	return &serve.Response{ID: req.ID, Op: req.Op, Status: serve.StatusOK}
}
func (s *replicaStub) BacklogUS() int64                { return 0 }
func (s *replicaStub) StatsJSON() ([]byte, error)      { return []byte("{}"), nil }
func (s *replicaStub) StatsText() string               { return "" }
func (s *replicaStub) NoteRejectedDecode()             {}
func (s *replicaStub) Draining() bool                  { return false }
func (s *replicaStub) Drain(ctx context.Context) error { return nil }

func (s *replicaStub) ReplicaStore(id, master []byte) {
	s.mu.Lock()
	s.store[string(id)] = append([]byte(nil), master...)
	s.mu.Unlock()
}

func (s *replicaStub) ReplicaLookup(id []byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.store[string(id)]
	return m, ok
}

func (s *replicaStub) get(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.store[id]
	return m, ok
}

func startHandler(t *testing.T, h serve.Handler) string {
	t.Helper()
	srv := NewServer(h, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

// TestReplicationOverWire is the frame-level e2e: push a batch to a real
// listener, then pull it back with Fetch — hit and miss both answer.
func TestReplicationOverWire(t *testing.T) {
	stub := newReplicaStub()
	addr := startHandler(t, stub)
	tr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	master := bytes.Repeat([]byte{0x77}, 48)
	if err := tr.Replicate([]ReplicaEntry{
		{ID: []byte("sess-a"), Master: master},
		{ID: []byte("sess-b"), Master: bytes.Repeat([]byte{0x88}, 48)},
	}); err != nil {
		t.Fatal(err)
	}
	// Fire-and-forget: poll until the push lands (same connection, so the
	// following Fetch is ordered after it server-side anyway).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := stub.get("sess-a"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicate batch never landed")
		}
		time.Sleep(time.Millisecond)
	}

	got, found, err := tr.FetchSession([]byte("sess-a"), 5*time.Second)
	if err != nil || !found || !bytes.Equal(got, master) {
		t.Fatalf("fetch hit = %x/%v/%v, want stored master", got, found, err)
	}
	got, found, err = tr.FetchSession([]byte("no-such"), 5*time.Second)
	if err != nil || found || got != nil {
		t.Fatalf("fetch miss = %x/%v/%v, want clean not-found", got, found, err)
	}

	// Interleave with ordinary traffic: the connection still serves.
	resp, err := tr.RoundTrip(&serve.Request{ID: "after", Op: serve.OpMD5, Payload: []byte("x")})
	if err != nil || resp.Status != serve.StatusOK {
		t.Fatalf("request after replication frames: %v/%v", resp, err)
	}
}

// plainHandler is a serve.Handler WITHOUT the replica surface: it embeds
// a replicaStub as the interface, which promotes only serve.Handler's
// methods, so the server's ReplicaHandler type assertion does not match.
type plainHandler struct{ serve.Handler }

// TestReplicationDegradesWithoutHandler: a listener whose handler lacks
// ReplicaHandler discards pushes and answers fetches not-found — the
// connection survives both.
func TestReplicationDegradesWithoutHandler(t *testing.T) {
	addr := startHandler(t, plainHandler{newReplicaStub()})
	tr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	if err := tr.Replicate([]ReplicaEntry{{ID: []byte("id"), Master: []byte("m")}}); err != nil {
		t.Fatal(err)
	}
	got, found, err := tr.FetchSession([]byte("id"), 5*time.Second)
	if err != nil || found || got != nil {
		t.Fatalf("fetch against plain handler = %x/%v/%v, want not-found", got, found, err)
	}
	for i := 0; i < 3; i++ {
		resp, err := tr.RoundTrip(&serve.Request{ID: fmt.Sprintf("r%d", i), Op: serve.OpMD5, Payload: []byte("x")})
		if err != nil || resp.Status != serve.StatusOK {
			t.Fatalf("request %d after degraded frames: %v/%v", i, resp, err)
		}
	}
}
