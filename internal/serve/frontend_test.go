package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"wisp/internal/gwroute"
	"wisp/internal/hashes"
	"wisp/internal/serve"
	"wisp/internal/wire"
)

// startGateway builds a one-shard gateway drained with the test.
func startGateway(t *testing.T, seed int64) *serve.Gateway {
	t.Helper()
	gw, err := serve.NewGateway(serve.Config{Shards: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		gw.Drain(ctx)
	})
	return gw
}

// startRouter routes over two in-process gateways behind wire listeners.
func startRouter(t *testing.T) *gwroute.Router {
	t.Helper()
	var backends []string
	for i := 0; i < 2; i++ {
		srv := wire.NewServer(startGateway(t, int64(i+1)), wire.ServerConfig{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		t.Cleanup(func() { srv.Close() })
		backends = append(backends, addr.String())
	}
	r, err := gwroute.NewRouter(gwroute.Config{
		Backends: backends,
		Dial:     func(addr string) (serve.Transport, error) { return wire.Dial(addr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestFrontEndContract holds serve.Server to one HTTP contract whichever
// handler it fronts: a single-node gateway or a routing tier.
func TestFrontEndContract(t *testing.T) {
	cases := []struct {
		name     string
		handler  func(t *testing.T) serve.Handler
		textLine string // a line prefix the text stats dump must contain
	}{
		{"gateway", func(t *testing.T) serve.Handler { return startGateway(t, 7) }, "wispd_rejected_decode_total "},
		{"router", func(t *testing.T) serve.Handler { return startRouter(t) }, "wispgw_rejected_decode_total "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.handler(t)
			srv := serve.NewServer(h)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve()
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			})
			base := "http://" + addr.String()

			payload := []byte("front-end contract")
			body, _ := json.Marshal(&serve.Request{ID: "c-1", Op: serve.OpMD5, Payload: payload})
			code, resp := offload(t, base, body)
			want := hashes.MD5Sum(payload)
			if code != http.StatusOK || resp.Status != serve.StatusOK || !bytes.Equal(resp.Digest, want[:]) {
				t.Fatalf("valid offload: %d %+v", code, resp)
			}

			oversize := `{"op":"md5","payload":"` + strings.Repeat("A", serve.MaxWireBytes) + `"}`
			for i, bad := range []string{"{", oversize} {
				code, resp := offload(t, base, []byte(bad))
				if code != http.StatusBadRequest || resp.Status != serve.StatusError {
					t.Errorf("bad body %d: %d %+v, want 400 with status error", i, code, resp)
				}
				if got := statsJSON(t, base)["rejected_decode"]; got != float64(i+1) {
					t.Errorf("bad body %d: rejected_decode %v, want %d", i, got, i+1)
				}
			}

			text := get(t, base+"/stats?format=text", http.StatusOK)
			if !strings.Contains(text, "\n"+tc.textLine+"2\n") {
				t.Errorf("text stats missing %q2:\n%s", tc.textLine, text)
			}

			if got := get(t, base+"/healthz", http.StatusOK); got != "ok\n" {
				t.Errorf("healthz %q, want ok", got)
			}
			if err := h.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			get(t, base+"/healthz", http.StatusServiceUnavailable)
			code, resp = offload(t, base, body)
			if code != http.StatusServiceUnavailable || resp.Status != serve.StatusShed || resp.ShedReason != "draining" {
				t.Errorf("offload while draining: %d %+v, want 503 shed/draining", code, resp)
			}
		})
	}
}

func offload(t *testing.T, base string, body []byte) (int, *serve.Response) {
	t.Helper()
	r, err := http.Post(base+"/v1/offload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var resp serve.Response
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatalf("offload answered %d with a non-JSON body: %v", r.StatusCode, err)
	}
	return r.StatusCode, &resp
}

func get(t *testing.T, url string, wantCode int) string {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	b, _ := io.ReadAll(r.Body)
	if r.StatusCode != wantCode {
		t.Fatalf("GET %s: %d, want %d", url, r.StatusCode, wantCode)
	}
	return string(b)
}

func statsJSON(t *testing.T, base string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(get(t, base+"/stats", http.StatusOK)), &m); err != nil {
		t.Fatalf("/stats is not JSON: %v", err)
	}
	return m
}
