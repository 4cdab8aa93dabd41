package governor

import (
	"testing"

	"wisp/internal/serve"
)

// fakeTuner records every knob move the governor makes.
type fakeTuner struct {
	width  int
	gather int64
}

func (f *fakeTuner) BatchWidth() int           { return f.width }
func (f *fakeTuner) SetBatchWidth(w int)       { f.width = w }
func (f *fakeTuner) BatchGatherUS() int64      { return f.gather }
func (f *fakeTuner) SetBatchGatherUS(us int64) { f.gather = us }

// snap builds one scripted /stats snapshot.  Counters are cumulative, as
// a live gateway would report them.
func snap(uptime float64, depth int64, rsaOK, recOK uint64, rsaCost float64) serve.Stats {
	return serve.Stats{
		UptimeSeconds: uptime,
		QueueDepth:    []int64{depth},
		OpCostUS: map[string]float64{
			string(serve.OpRSADecrypt): rsaCost,
			string(serve.OpRecord):     50,
		},
		PerOp: map[string]serve.OpStats{
			string(serve.OpRSADecrypt): {Requests: rsaOK, OK: rsaOK},
			string(serve.OpRecord):     {Requests: recOK, OK: recOK},
		},
	}
}

// feed returns a Snapshot stub that serves the scripted sequence, holding
// the last snapshot if ticked past the end.
func feed(snaps []serve.Stats) func() serve.Stats {
	i := 0
	return func() serve.Stats {
		s := snaps[i]
		if i < len(snaps)-1 {
			i++
		}
		return s
	}
}

// TestWidthWidensMonotone drives sustained high queue depth with RSA
// traffic present: the width must double every HoldTicks windows —
// 1 -> 2 -> 4 -> 8 — and then pin at MaxWidth, never jumping a step.
func TestWidthWidensMonotone(t *testing.T) {
	var snaps []serve.Stats
	for k := 1; k <= 12; k++ {
		snaps = append(snaps, snap(0.5*float64(k), 5, uint64(100*k), 0, 100))
	}
	tun := &fakeTuner{width: 1}
	g := New(Config{HoldTicks: 2, MaxWidth: 8, Snapshot: feed(snaps), Tuner: tun})

	wantAfter := []int{1, 2, 2, 4, 4, 8, 8, 8, 8, 8, 8, 8}
	for k, want := range wantAfter {
		g.Tick()
		if tun.width != want {
			t.Fatalf("after tick %d: width %d, want %d", k+1, tun.width, want)
		}
	}
	v := g.View()
	if v.Ticks != 12 || v.WidthWidens != 3 || v.WidthShrinks != 0 {
		t.Fatalf("view %+v, want 12 ticks, 3 widens, 0 shrinks", v)
	}
}

// TestWidthShrinksOnIdle drives a drained queue: width must halve back
// down every 2·HoldTicks windows (shrink hysteresis is twice as patient
// as widen — a brief slow patch must not surrender lanes) until
// MinWidth.
func TestWidthShrinksOnIdle(t *testing.T) {
	var snaps []serve.Stats
	for k := 1; k <= 16; k++ {
		snaps = append(snaps, snap(0.5*float64(k), 0, 100, 0, 100))
	}
	tun := &fakeTuner{width: 8}
	g := New(Config{HoldTicks: 2, MaxWidth: 8, Snapshot: feed(snaps), Tuner: tun})
	for k := 0; k < 16; k++ {
		g.Tick()
	}
	if tun.width != 1 {
		t.Fatalf("width %d after 16 idle ticks, want 1", tun.width)
	}
	if v := g.View(); v.WidthShrinks != 3 || v.WidthWidens != 0 {
		t.Fatalf("view %+v, want 3 shrinks, 0 widens", v)
	}
}

// TestWidthHysteresisNoFlap oscillates the depth across the widen band
// edge every tick (inside band, dead zone, inside band, ...).  The streak
// resets on every dead-zone window, so neither the width nor the gather
// window may move under this script.
func TestWidthHysteresisNoFlap(t *testing.T) {
	var snaps []serve.Stats
	for k := 1; k <= 20; k++ {
		depth := int64(5) // inside the widen band
		if k%2 == 0 {
			depth = 2 // dead zone between the bands
		}
		snaps = append(snaps, snap(0.5*float64(k), depth, uint64(100*k), 0, 100))
	}
	tun := &fakeTuner{width: 4}
	g := New(Config{HoldTicks: 2, MaxWidth: 8, Snapshot: feed(snaps), Tuner: tun})
	for k := 0; k < 20; k++ {
		g.Tick()
		if tun.width != 4 {
			t.Fatalf("tick %d: width moved to %d under band-edge oscillation", k+1, tun.width)
		}
	}
	v := g.View()
	if v.WidthWidens != 0 || v.WidthShrinks != 0 || v.GatherChanges != 0 {
		t.Fatalf("knobs moved under band-edge oscillation: %+v", v)
	}
}

// TestGatherRetarget holds the queue in the dead zone (groups need
// topping up) and checks the gather window follows the arrival rate:
// engage after HoldTicks, ignore small rate wobble, retune on a big
// shift, cap at MaxGatherUS.
func TestGatherRetarget(t *testing.T) {
	mk := func(uptime float64, rsaOK uint64) serve.Stats { return snap(uptime, 2, rsaOK, 0, 100) }
	snaps := []serve.Stats{
		mk(0.5, 1000),              // 2000/s -> want 1500us, streak 1
		mk(1.0, 2000),              // streak 2 -> set 1500
		mk(1.5, 3200),              // 2400/s -> 1250us, 17% move: hold
		mk(2.0, 3450),              // 500/s -> cap 3000us, 100% move: set
		mk(2.5, 3700),              // unchanged -> hold
		snap(3.0, 5, 3950, 0, 100), // dense window: want 0, streak 1
		snap(3.5, 5, 4200, 0, 100), // streak 2 -> set 0
	}
	tun := &fakeTuner{width: 4}
	g := New(Config{HoldTicks: 2, MaxWidth: 4, Snapshot: feed(snaps), Tuner: tun})

	wantAfter := []int64{0, 1500, 1500, 3000, 3000, 3000, 0}
	for k, want := range wantAfter {
		g.Tick()
		if tun.gather != want {
			t.Fatalf("after tick %d: gather %dus, want %dus", k+1, tun.gather, want)
		}
	}
	if v := g.View(); v.GatherChanges != 3 {
		t.Fatalf("gather changes %d, want 3", v.GatherChanges)
	}
}

// TestWidthReversals scripts width walks and checks the reversal
// counter: a widen after a shrink, or a shrink after a widen, counts one;
// moves in a single direction count none.
func TestWidthReversals(t *testing.T) {
	busy := func(uptime float64, rsaOK uint64) serve.Stats { return snap(uptime, 5, rsaOK, 0, 100) }
	idle := func(uptime float64, rsaOK uint64) serve.Stats { return snap(uptime, 0, rsaOK, 0, 100) }
	cases := []struct {
		name      string
		width     int
		snaps     []serve.Stats
		wantWidth []int
		reversals uint64
	}{
		{
			// HoldTicks 1: widen on one busy window, shrink on two idle ones.
			name:      "widen-shrink-widen",
			width:     1,
			snaps:     []serve.Stats{busy(0.5, 100), idle(1.0, 100), idle(1.5, 100), busy(2.0, 200)},
			wantWidth: []int{2, 2, 1, 2},
			reversals: 2,
		},
		{
			name:      "monotone-widen",
			width:     1,
			snaps:     []serve.Stats{busy(0.5, 100), busy(1.0, 200), busy(1.5, 300), busy(2.0, 400)},
			wantWidth: []int{2, 4, 8, 8},
		},
		{
			name:      "monotone-shrink",
			width:     8,
			snaps:     []serve.Stats{idle(0.5, 0), idle(1.0, 0), idle(1.5, 0), idle(2.0, 0), idle(2.5, 0), idle(3.0, 0)},
			wantWidth: []int{8, 4, 4, 2, 2, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tun := &fakeTuner{width: tc.width}
			g := New(Config{HoldTicks: 1, MaxWidth: 8, Snapshot: feed(tc.snaps), Tuner: tun})
			for k, want := range tc.wantWidth {
				g.Tick()
				if tun.width != want {
					t.Fatalf("after tick %d: width %d, want %d", k+1, tun.width, want)
				}
			}
			if v := g.View(); v.WidthReversals != tc.reversals {
				t.Fatalf("reversals %d, want %d (view %+v)", v.WidthReversals, tc.reversals, v)
			}
		})
	}
}
