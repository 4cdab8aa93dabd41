package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRankNeedsTenBeyond(t *testing.T) {
	if got := samplesFor(0.99); got != 1000 {
		t.Fatalf("samplesFor(0.99) = %d, want 1000", got)
	}
	p, err := percentile(seq(1000), 0.99)
	if err != nil || p != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 (ten samples beyond)", p, err)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
	if p, err := percentile(seq(20), 0.5); err != nil || p != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", p, err)
	}
	if m := median(seq(5)); m != 3 {
		t.Fatalf("median of 1..5 = %v, want 3", m)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples must fail")
	}
}

func TestResidualShareOnMeans(t *testing.T) {
	cases := []struct {
		e2e    float64
		layers []float64
		want   float64
	}{
		{100, []float64{30, 50}, 0.2},
		{100, []float64{60, 40}, 0},
		{100, []float64{80, 40}, -0.2}, // layers measured slower in isolation
		{0, []float64{1}, 0},
	}
	for _, c := range cases {
		if got := residualShare(c.e2e, c.layers); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("residualShare(%v, %v) = %v, want %v", c.e2e, c.layers, got, c.want)
		}
	}
}

func TestLatencySummaryCountsFailuresAsLate(t *testing.T) {
	outs := make([]outcome, 1000)
	for i := range outs {
		outs[i] = outcome{ok: true, lat: time.Duration(i+1) * time.Millisecond, rtt: time.Millisecond}
	}
	l, err := latencySummary(outs)
	if err != nil {
		t.Fatal(err)
	}
	if l.n != 1000 || l.p50 != 500 || l.p99 != 990 {
		t.Fatalf("n=%d p50=%v p99=%v, want 1000, 500, 990", l.n, l.p50, l.p99)
	}
	for i := 0; i < 11; i++ {
		outs[i].ok = false // the fastest requests fail: the tail moves anyway
	}
	if l, _ = latencySummary(outs); l.p99 != failedLatencyMS {
		t.Fatalf("with 11 of 1000 failed p99 = %v, want the failed-request latency", l.p99)
	}
	if _, err := latencySummary(outs[:999]); err == nil {
		t.Fatal("999 open-loop samples cannot support p99")
	}
}
