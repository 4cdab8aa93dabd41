package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// recordSchema versions the result record layout.
const recordSchema = 2

// record is everything one run measured, written as JSON next to the
// summary line: the host fingerprint, the workload's settings, each
// phase's counts and raw /stats deltas, and every metric.
type record struct {
	Schema      int         `json:"schema"`
	Fingerprint fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	RateRPS     float64     `json:"rate_rps"`
	Burst       int         `json:"burst"`
	SatConc     int         `json:"saturation_outstanding"`
	Conns       int         `json:"connections"`

	Correct     bool      `json:"correct"`
	Mismatch    string    `json:"mismatch,omitempty"`
	Attempted   int64     `json:"attempted"`
	Failed      int64     `json:"failed"`
	OpenSamples int       `json:"open_loop_samples"`
	P50MS       float64   `json:"p50_ms"`
	P99MS       float64   `json:"p99_ms"`
	Setups      []float64 `json:"setup_seconds"`
	Capacities  []float64 `json:"saturation_rps"`
	CPUPerOp    []float64 `json:"saturation_cpu_us_per_op"`
	Phases      []phase   `json:"phases"`

	EndToEnd  metricList `json:"end_to_end"`
	PerLayer  metricList `json:"per_layer,omitempty"`
	Reconcile string     `json:"reconcile,omitempty"`
}

// fingerprint identifies the host and build a record came from.  Two
// records are comparable only when their host parts agree; commit and
// seed are what a comparison is expected to vary.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func (f fingerprint) host() string {
	return fmt.Sprintf("%s / nproc %d / GOMAXPROCS %d / %s", f.CPU, f.NProc, f.GOMAXPROCS, f.GoVersion)
}

// phase is one timed phase's counts and wispd's /stats movement over
// it: every numeric leaf's delta, and its value at the phase end.
type phase struct {
	Name       string             `json:"name"`
	Seconds    float64            `json:"seconds"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	WispdDelta map[string]float64 `json:"wispd_delta"`
	WispdEnd   map[string]float64 `json:"wispd_end"`
}

func newRecord(w *workload, cfg config, conns int) *record {
	return &record{
		Schema: recordSchema,
		Fingerprint: fingerprint{
			CPU:        cpuModel(),
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Commit:     commit(),
			Seed:       cfg.seed,
		},
		Workload: w.name, Seconds: cfg.seconds, Trace: cfg.trace,
		RateRPS: w.rate, Burst: w.burst, SatConc: w.satConc, Conns: conns,
	}
}

func (r *record) addPhase(name string, t *tally, secs float64, pre, cur map[string]float64) {
	r.Phases = append(r.Phases, phase{
		Name: name, Seconds: secs,
		Attempted: t.attempted.Load(), Failed: t.failed.Load(),
		WispdDelta: delta(pre, cur), WispdEnd: cur,
	})
}

func (r *record) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t.json", r.Workload, r.Fingerprint.Seed, r.Trace))
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit names the source the daemons were built from: the git HEAD
// when the working directory is a repository, else a hash of the tree's
// files.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir // .git, .bench_build and other dot-directories
		}
		if d.IsDir() || !d.Type().IsRegular() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain prints B against A metric by metric.  It refuses records
// from different hosts or workloads: an absolute figure from one
// machine says nothing about another.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: servebench compare A.json B.json")
		return 2
	}
	a, err := readRecord(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	b, err := readRecord(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	if err := comparable(a, b); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: refusing to compare:", err)
		return 2
	}
	fmt.Printf("%s: A %s seed %d  vs  B %s seed %d\n", a.Workload,
		a.Fingerprint.Commit, a.Fingerprint.Seed, b.Fingerprint.Commit, b.Fingerprint.Seed)
	fmt.Printf("  %-36s %14.4f %14.4f %8.3fx ms (not gated)\n", "p50_ms", a.P50MS, b.P50MS, ratio(b.P50MS, a.P50MS))
	fmt.Printf("  %-36s %14.4f %14.4f %8.3fx ms (not gated)\n", "p99_ms", a.P99MS, b.P99MS, ratio(b.P99MS, a.P99MS))
	for _, l := range []struct{ a, b metricList }{{a.EndToEnd, b.EndToEnd}, {a.PerLayer, b.PerLayer}} {
		for _, m := range l.a {
			bv := l.b.get(m.Name)
			fmt.Printf("  %-36s %14.4f %14.4f %8.3fx %s\n", m.Name, m.Value, bv, ratio(bv, m.Value), m.Unit)
		}
	}
	return 0
}

// comparable reports why two records may not be compared, if they may not.
func comparable(a, b *record) error {
	if a.Schema != b.Schema {
		return fmt.Errorf("record schemas differ (%d vs %d)", a.Schema, b.Schema)
	}
	if a.Workload != b.Workload {
		return fmt.Errorf("workloads differ (%s vs %s)", a.Workload, b.Workload)
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("run lengths differ (%gs vs %gs)", a.Seconds, b.Seconds)
	}
	if ha, hb := a.Fingerprint.host(), b.Fingerprint.host(); ha != hb {
		return fmt.Errorf("host fingerprints differ (%s vs %s)", ha, hb)
	}
	return nil
}
