package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"wisp/internal/serve"
)

func TestBurstScheduleIsDeterministic(t *testing.T) {
	a := schedule(42, 560, 8, 8000)
	b := schedule(42, 560, 8, 8000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, schedule(43, 560, 8, 8000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := range a {
		if i%8 != 0 && a[i] != a[i-1] {
			t.Fatalf("request %d is not back to back with its burst", i)
		}
		if i%8 == 0 && i > 0 && a[i] < a[i-1] {
			t.Fatalf("burst at %d starts before the previous one", i)
		}
	}
	// Stratified gaps: the realized rate is the offered one within the
	// truncation of the exponential's tail, whatever the seed.
	for _, s := range [][]time.Duration{a, schedule(43, 560, 8, 8000)} {
		if rate := float64(len(s)) / s[len(s)-1].Seconds(); rate < 550 || rate > 575 {
			t.Fatalf("realized rate %.1f/s, offered 560/s", rate)
		}
	}
}

func TestDealKeepsTheMixInEveryDeck(t *testing.T) {
	var deck []shape
	for _, op := range []serve.Op{serve.OpSSL, serve.OpSSL, serve.OpMD5, serve.OpRSADecrypt} {
		for _, size := range []int{64, 1 << 10} {
			deck = append(deck, shape{op: op, size: size})
		}
	}
	hand := deal(rand.New(rand.NewSource(1)), deck, 10*len(deck)+3)
	if len(hand) != 10*len(deck)+3 {
		t.Fatalf("dealt %d shapes", len(hand))
	}
	for d := 0; d < 10; d++ {
		count := map[shape]int{}
		for _, s := range hand[d*len(deck) : (d+1)*len(deck)] {
			count[s]++
		}
		want := map[shape]int{}
		for _, s := range deck {
			want[s]++
		}
		if !reflect.DeepEqual(count, want) {
			t.Fatalf("deck %d holds %v, want %v", d, count, want)
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	w, err := findWorkload("rsa-burst")
	if err != nil {
		t.Fatal(err)
	}
	a, err := generate(w, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(w, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.open) != len(b.open) || len(a.open) < samplesFor(0.99) {
		t.Fatalf("open-loop lengths %d and %d", len(a.open), len(b.open))
	}
	for i := range a.open {
		x, y := a.open[i], b.open[i]
		if x.due != y.due || x.req.Op != y.req.Op || !bytes.Equal(x.req.Payload, y.req.Payload) {
			t.Fatalf("request %d differs between two generations from one seed", i)
		}
	}
	if _, err := generate(w, 7, 1); err == nil {
		t.Fatal("a run too short for p99 must be refused")
	}
}

func TestCheckUsesTheStandardLibrary(t *testing.T) {
	in := &inputs{hmacKey: []byte("0123456789abcdef")}
	r := rand.New(rand.NewSource(1))
	for _, op := range []serve.Op{serve.OpMD5, serve.OpSHA1, serve.OpHMACMD5, serve.OpHMACSHA1} {
		it := in.build(shape{op: op, size: 100}, r)
		resp := &serve.Response{Status: serve.StatusOK, Digest: it.want.digest[:], Result: it.want.result}
		if err := check(it, resp); err != nil {
			t.Fatalf("%s: correct answer refused: %v", op, err)
		}
		bad := append([]byte(nil), it.want.result...)
		bad[0] ^= 1
		if err := check(it, &serve.Response{Status: serve.StatusOK, Digest: it.want.digest[:], Result: bad}); err == nil {
			t.Fatalf("%s: wrong result accepted", op)
		}
		badDigest := it.want.digest
		badDigest[0] ^= 1
		if err := check(it, &serve.Response{Status: serve.StatusOK, Digest: badDigest[:], Result: it.want.result}); err == nil {
			t.Fatalf("%s: wrong digest accepted", op)
		}
	}
	it := in.build(shape{op: serve.OpSSL, size: 64}, r)
	if err := check(it, &serve.Response{Status: serve.StatusOK, Digest: it.want.digest[:], Records: 1}); err == nil {
		t.Fatal("an ssl answer without a session ID was accepted")
	}
	if err := check(it, &serve.Response{Status: serve.StatusOK, Digest: it.want.digest[:], Records: 1, Result: []byte{1}}); err != nil {
		t.Fatalf("a complete ssl answer was refused: %v", err)
	}
}
