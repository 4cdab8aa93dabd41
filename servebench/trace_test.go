package main

import (
	"math/rand"
	"testing"
	"time"

	"wisp/internal/serve"
)

// TestTracedReplaySpansStayInsideTheRequest replays requests through the
// in-process layers and checks that the self times are non-negative and
// add up to no more than the traced request's own duration.
func TestTracedReplaySpansStayInsideTheRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("boots an RSA-1024 gateway in process")
	}
	tr, err := newTracer()
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()
	in := inputs{hmacKey: []byte("0123456789abcdef"), aesKey: []byte("fedcba9876543210")}
	r := rand.New(rand.NewSource(1))
	for _, s := range []shape{{op: serve.OpHMACSHA1, size: 300}, {op: serve.OpSSL, size: 2048}, {op: serve.OpAES, size: 64}} {
		it := in.build(s, r)
		tr.stubResp = &serve.Response{Op: it.req.Op, Status: serve.StatusOK, Digest: it.want.digest[:]}
		for _, front := range []bool{false, true} {
			var sp spans
			tr.sp = &sp
			start := time.Now()
			var resp *serve.Response
			if front {
				resp, err = tr.jsonPath(it)
			} else {
				resp, err = tr.wirePath(&it.req)
			}
			total := time.Since(start)
			tr.sp = nil
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != serve.StatusOK {
				t.Fatalf("%s: %s %s", s.op, resp.Status, resp.Error)
			}
			if !front {
				if err := check(it, resp); err != nil {
					t.Fatal(err)
				}
			}
			parts := []time.Duration{sp.json, sp.decode, sp.hop, sp.backend, sp.wireEnc, sp.wireParse, sp.queue, sp.service}
			sum := sp.dispatch
			for _, p := range parts {
				if p < 0 {
					t.Fatalf("%s front=%v: negative self time in %+v", s.op, front, sp)
				}
				sum += p
			}
			// QueueUS/ServiceUS are whole microseconds, so dispatch may
			// read up to 2µs low.
			if sp.dispatch < -2*time.Microsecond || sum > total {
				t.Fatalf("%s front=%v: spans %+v sum to %v of a %v request", s.op, front, sp, sum, total)
			}
			if front && (sp.json == 0 || sp.decode == 0 || sp.hop == 0) {
				t.Fatalf("%s: front-end spans not recorded: %+v", s.op, sp)
			}
		}
	}
}
