package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestFlattenAndDelta(t *testing.T) {
	var pre, cur any
	if err := json.Unmarshal([]byte(`{"ok": 10, "session_cache": {"hits": 4}, "nodes": [{"failures": 1}, {"failures": 0}], "name": "x"}`), &pre); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"ok": 25, "session_cache": {"hits": 9}, "nodes": [{"failures": 3}, {"failures": 2}], "name": "x"}`), &cur); err != nil {
		t.Fatal(err)
	}
	a, b := map[string]float64{}, map[string]float64{}
	flatten("", pre, a)
	flatten("", cur, b)
	d := delta(a, b)
	want := map[string]float64{"ok": 15, "session_cache.hits": 5, "nodes.0.failures": 2, "nodes.1.failures": 2}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("delta = %v, want %v", d, want)
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	base := func() *record {
		return &record{Schema: recordSchema, Workload: "fig8-ssl", Seconds: 36,
			Fingerprint: fingerprint{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "c1", Seed: 1}}
	}
	a, b := base(), base()
	b.Fingerprint.Commit, b.Fingerprint.Seed = "c2", 2
	if err := comparable(a, b); err != nil {
		t.Fatalf("records differing only in commit and seed were refused: %v", err)
	}
	for name, mutate := range map[string]func(r *record){
		"cpu":        func(r *record) { r.Fingerprint.CPU = "cpu B" },
		"nproc":      func(r *record) { r.Fingerprint.NProc = 4 },
		"gomaxprocs": func(r *record) { r.Fingerprint.GOMAXPROCS = 1 },
		"go":         func(r *record) { r.Fingerprint.GoVersion = "go1.23.0" },
		"workload":   func(r *record) { r.Workload = "rsa-burst" },
		"seconds":    func(r *record) { r.Seconds = 10 },
	} {
		b := base()
		mutate(b)
		if err := comparable(a, b); err == nil {
			t.Errorf("records differing in %s were compared", name)
		}
	}
}
