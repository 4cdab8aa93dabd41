// Command servebench is the repository's serving benchmark.  It boots
// the real wispd on loopback, drives one named workload from this
// single process — open-loop for latency, a fixed number of outstanding
// requests for capacity — checks every answer against the Go standard
// library, and prints the end-to-end metrics.  With --trace 1 it also
// replays the workload's inputs through each layer's exported functions
// in process and prints the per-layer metrics and a reconciliation
// table.
//
// Usage (from the repository root; run.sh builds the binaries):
//
//	servebench --workload fig8-ssl --seed 1 --seconds 54 --trace 0 \
//	    --bin DIR --work DIR --out DIR
//	servebench compare A.json B.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"wisp/internal/rsakey"
)

// setupReps is how many timed boots a run makes, in setupGroups groups
// spread over the run; setup_s is their median.
const (
	setupReps   = 15
	setupGroups = 3
)

// windows is how many back-to-back windows each timed phase is cut into;
// the metrics are the median window's.  The open loop gets fewer when it
// holds too few requests for a p99 in each.
const windows = 5

// rampTime is the untimed saturation load that precedes measurement.
const rampTime = 1500 * time.Millisecond

type config struct {
	workload       string
	seed           int64
	seconds        float64
	trace          bool
	bin, work, out string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (fig8-ssl, rsa-burst)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed sends the same requests on the same schedule")
	flag.Float64Var(&cfg.seconds, "seconds", 54, "measured seconds (open-loop plus saturation phase)")
	flag.IntVar(&trace, "trace", 0, "1 = also run the in-process traced replay and report per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the wispd binary")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for daemon logs and address files")
	flag.StringVar(&cfg.out, "out", "", "directory for the result record (empty = none)")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.workload == "" || cfg.bin == "" || cfg.work == "" || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: --workload, --bin and --work are required; --trace is 0 or 1")
		os.Exit(2)
	}

	r := &runner{cfg: cfg}
	// A signal stops the daemons before exiting, so none outlives the run.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		r.abort()
		fmt.Fprintf(os.Stderr, "servebench: %v\n", s)
		os.Exit(1)
	}()

	rec, err := r.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	if cfg.out != "" {
		path, err := rec.write(cfg.out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "servebench: record written to", path)
	}
	metrics := rec.EndToEnd
	if cfg.trace {
		metrics = rec.PerLayer
	}
	line, err := json.Marshal(summary{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: metrics.out()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one named, unit-carrying figure.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// metricList keeps metrics in the order they were defined.
type metricList []metric

func (l *metricList) add(name, unit string, v float64) {
	*l = append(*l, metric{Name: name, Unit: unit, Value: v})
}

func (l metricList) get(name string) float64 {
	for _, m := range l {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

func (l metricList) out() map[string]metricValue {
	out := make(map[string]metricValue, len(l))
	for _, m := range l {
		out[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	return out
}

func (l metricList) print(title string) {
	fmt.Println(title)
	for _, m := range l {
		fmt.Printf("  %-36s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
}

// runner owns the cluster of one run so a signal can stop it.
type runner struct {
	cfg     config
	cluster *cluster
}

func (r *runner) abort() {
	if c := r.cluster; c != nil {
		c.stop()
	}
}

func (r *runner) run() (*record, error) {
	cfg := r.cfg
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	in, err := generate(w, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	conns := runtime.GOMAXPROCS(0)
	rec := newRecord(w, cfg, conns)

	// wispd's gateway key (its -seed defaults to 1): checkRSA unwraps
	// the rsa-decrypt answers with it, and the traced run reuses it.
	key, err := rsakey.GenerateKey(rand.New(rand.NewSource(1)), 1024)
	if err != nil {
		return nil, err
	}
	std := stdKey(key)

	// Serve from one boot.  Set-up is timed on throwaway boots in three
	// groups — after the ramp, between the timed phases and after them —
	// so the median samples the host over the whole run, warm each time.
	if r.cluster, err = startCluster(cfg.bin, dir, conns); err != nil {
		return nil, err
	}
	c := r.cluster
	defer r.abort()
	setupDir := filepath.Join(dir, "setup")
	if err := os.MkdirAll(setupDir, 0o755); err != nil {
		return nil, err
	}
	var setups []float64
	timeBoots := func() error {
		s, err := bootTimes(cfg.bin, setupDir, conns, setupReps/setupGroups)
		setups = append(setups, s...)
		return err
	}

	// Warm-up, untimed: the warm-up list fills the caches, then a ramp of
	// saturation load brings the host's CPUs to full speed — a virtual
	// CPU that sat idle runs at a fraction of its speed for about a second.
	warm := &tally{}
	runAll(c.load, in.warmup, w.satConc, warm)
	var next atomic.Int64
	ramp := time.Now()
	closedLoop(c.load, in.sat, &next, w.satConc, warm, []time.Time{ramp, ramp.Add(rampTime)})
	if warm.failed.Load() > 0 {
		return nil, fmt.Errorf("%d warm-up requests failed", warm.failed.Load())
	}
	if err := timeBoots(); err != nil {
		return nil, err
	}

	// Saturation first, while the host is warm, measured in back-to-back
	// windows whose medians are reported; then the open loop.
	first, err := c.snapshot()
	if err != nil {
		return nil, err
	}
	sat := &tally{}
	satDur := time.Duration((1 - w.openShare) * cfg.seconds * float64(time.Second))
	caps, cpus, err := saturate(c, in.sat, &next, w.satConc, sat, satDur)
	if err != nil {
		return nil, err
	}
	mid, err := c.snapshot()
	if err != nil {
		return nil, err
	}
	if err := timeBoots(); err != nil {
		return nil, err
	}
	open := &tally{}
	openStart := time.Now()
	outs := openLoop(c.load, in.open, open)
	openSecs := time.Since(openStart).Seconds()
	last, err := c.snapshot()
	if err != nil {
		return nil, err
	}
	rec.addPhase("saturation", sat, satDur.Seconds(), first, mid)
	rec.addPhase("open-loop", open, openSecs, mid, last)
	rss, err := c.peakRSS()
	if err != nil {
		return nil, err
	}
	c.stop()
	r.cluster = nil
	if err := timeBoots(); err != nil {
		return nil, err
	}
	for _, t := range []*tally{warm, sat, open} {
		t.verifyRSA(std)
	}

	rec.Attempted = open.attempted.Load() + sat.attempted.Load()
	rec.Failed = open.failed.Load() + sat.failed.Load()
	rec.Correct = true
	for _, t := range []*tally{warm, sat, open} {
		if t.mismatch != nil {
			rec.Correct = false
			rec.Mismatch = t.mismatch.Error()
			fmt.Fprintln(os.Stderr, "servebench: output mismatch:", t.mismatch)
		}
	}

	lat, err := latencySummary(outs)
	if err != nil {
		return nil, err
	}
	e := &rec.EndToEnd
	e.add("setup_s", "s", median(sortedCopy(setups)))
	e.add("capacity_rps", "1/s", median(sortedCopy(caps)))
	e.add("cpu_us_per_op", "us", median(sortedCopy(cpus)))
	e.add("rss_mb", "MB", rss)
	rec.Setups = setups
	rec.OpenSamples = lat.n
	rec.P50MS, rec.P99MS = lat.p50, lat.p99
	failRatio := ratio(float64(rec.Failed), float64(rec.Attempted))

	rec.Capacities, rec.CPUPerOp = caps, cpus
	fmt.Printf("servebench %s seed %d: %d open-loop samples in %d windows at %.0f req/s offered (burst %d); saturation %.1fs at %d outstanding in %d windows; fail_ratio %.4f (%d of %d)\n",
		w.name, cfg.seed, lat.n, lat.windows, w.rate, w.burst, satDur.Seconds(), w.satConc, windows, failRatio, rec.Failed, rec.Attempted)
	rec.EndToEnd.print("end-to-end:")
	// Latency is reported but not gated: on shared 2-CPU hosts it moved
	// by more than any allowed bound from run to run (see README.md).
	fmt.Printf("  %-36s %14.4f ms (not gated)\n", "p50_ms", lat.p50)
	fmt.Printf("  %-36s %14.4f ms (not gated)\n", "p99_ms", lat.p99)

	if cfg.trace {
		layers, err := perLayer(outs, lat, first, last, failRatio)
		if err != nil {
			return nil, err
		}
		tr, err := traceRun(w, in, outs, lat, key, std)
		if err != nil {
			return nil, err
		}
		if tr.mismatch != nil {
			rec.Correct = false
			rec.Mismatch = tr.mismatch.Error()
			fmt.Fprintln(os.Stderr, "servebench: output mismatch in the traced replay:", tr.mismatch)
		}
		rec.PerLayer = append(layers, tr.metrics...)
		rec.Reconcile = tr.table
		fmt.Print(tr.table)
		rec.PerLayer.print("per-layer:")
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return rec, nil
}

// bootTimes boots a throwaway wispd n times in dir and returns each
// boot's set-up time.
func bootTimes(bin, dir string, conns, n int) ([]float64, error) {
	var out []float64
	for k := 0; k < n; k++ {
		c, err := startCluster(bin, dir, conns)
		if err != nil {
			return nil, err
		}
		c.stop()
		out = append(out, c.setup.Seconds())
	}
	return out, nil
}

// latency is the open-loop phase's end-to-end summary.
type latency struct {
	n              int
	windows        int     // p50 and p99 are medians over this many windows
	p50, p99       float64 // ms, from due time
	meanUS         float64 // µs, OK requests
	lagMeanUS      float64
	lagP50US       float64
	lagP99MS       float64
	rttP50, rttP99 float64 // µs
}

// failedLatencyMS is the latency a failed request counts as: later than
// any limit a user would set.
const failedLatencyMS = 1e9

// latencySummary reads the open-loop outcomes.  A failed request counts
// as infinitely late, so failures can only raise the percentiles.
func latencySummary(outs []outcome) (latency, error) {
	var l latency
	lats := make([]float64, len(outs))
	var lags, rtts, okLat []float64
	for i, o := range outs {
		lats[i] = float64(o.lat) / 1e6
		if !o.ok {
			lats[i] = failedLatencyMS
			continue
		}
		okLat = append(okLat, float64(o.lat)/1e3)
		lags = append(lags, float64(o.lag)/1e3)
		rtts = append(rtts, float64(o.rtt)/1e3)
	}
	l.n = len(outs)
	// Cut the phase into consecutive windows, each large enough for its
	// own p99, and report the median window: a host hiccup inside one
	// window then moves neither figure.
	k := min(windows, max(1, l.n/samplesFor(0.99)))
	var p50s, p99s []float64
	for i := 0; i < k; i++ {
		sorted := sortedCopy(lats[i*l.n/k : (i+1)*l.n/k])
		p99, err := percentile(sorted, 0.99)
		if err != nil {
			return l, err
		}
		p50s = append(p50s, median(sorted))
		p99s = append(p99s, p99)
	}
	l.windows = k
	l.p50, l.p99 = median(sortedCopy(p50s)), median(sortedCopy(p99s))
	l.meanUS = mean(okLat)
	l.lagMeanUS = mean(lags)
	lagSorted := sortedCopy(lags)
	l.lagP50US = median(lagSorted)
	if p, err := percentile(lagSorted, 0.99); err == nil {
		l.lagP99MS = p / 1e3
	}
	rttSorted := sortedCopy(rtts)
	l.rttP50 = median(rttSorted)
	l.rttP99, _ = percentile(rttSorted, 0.99) // too few OK answers leaves 0, and the run already failed p99 above
	return l, nil
}

// saturate keeps conc requests outstanding for d, cut into equal
// back-to-back windows, and returns each window's OK answers per second
// and the servers' CPU per OK answer.
func saturate(c *cluster, items []*item, next *atomic.Int64, conc int, t *tally, d time.Duration) (rps, cpuPerOp []float64, err error) {
	start := time.Now()
	bounds := make([]time.Time, windows+1)
	cpu := make([]chan float64, windows+1)
	for i := range bounds {
		bounds[i] = start.Add(d * time.Duration(i) / windows)
		ch := make(chan float64, 1)
		cpu[i] = ch
		time.AfterFunc(time.Until(bounds[i]), func() {
			v, _ := c.cpu() // an unreadable /proc reads as no CPU and fails below
			ch <- v
		})
	}
	ok := closedLoop(c.load, items, next, conc, t, bounds)
	prev := <-cpu[0]
	for i, n := range ok {
		v := <-cpu[i+1]
		used := v - prev
		prev = v
		if n == 0 || used <= 0 {
			return nil, nil, fmt.Errorf("saturation window %d measured no work (%d OK, %.2f CPU s)", i+1, n, used)
		}
		rps = append(rps, float64(n)/bounds[i+1].Sub(bounds[i]).Seconds())
		cpuPerOp = append(cpuPerOp, used*1e6/float64(n))
	}
	return rps, cpuPerOp, nil
}
