package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"wisp/internal/serve"
)

// cluster is the system under test: one wispd with its defaults except
// the RSA-1024 gateway key and loopback listeners on free ports.
type cluster struct {
	wispd       *daemon
	wispdHTTP   string // wispd's HTTP address (stats)
	wispdWire   string // wispd's wire address (load)
	load        sender
	setup       time.Duration
	statsClient *http.Client
}

// rsaBits is the paper's Figure 8 key size; the only non-default flag.
const rsaBits = "1024"

// startCluster boots wispd and times exec → first OK response over the
// load's wire connections.
func startCluster(bin, dir string, conns int) (*cluster, error) {
	for _, f := range []string{"wispd.addr", "wispd.wire"} {
		os.Remove(filepath.Join(dir, f)) // stale files from an earlier boot would be read as this one's
	}
	c := &cluster{statsClient: &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true}}}
	start := time.Now()
	var err error
	c.wispd, err = startDaemon(dir, "wispd", filepath.Join(bin, "wispd"),
		"-rsabits", rsaBits,
		"-addr", "127.0.0.1:0", "-addrfile", filepath.Join(dir, "wispd.addr"),
		"-listen-wire", "127.0.0.1:0", "-wire-addrfile", filepath.Join(dir, "wispd.wire"))
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*cluster, error) {
		c.stop()
		return nil, err
	}
	if c.wispdWire, err = c.wispd.waitAddr(filepath.Join(dir, "wispd.wire"), 60*time.Second); err != nil {
		return fail(err)
	}
	if c.wispdHTTP, err = c.wispd.waitAddr(filepath.Join(dir, "wispd.addr"), time.Second); err != nil {
		return fail(err)
	}
	if c.load, err = dialWire(c.wispdWire, conns); err != nil {
		return fail(err)
	}
	probe := probeItem()
	resp, err := c.load.send(probe)
	if err != nil {
		return fail(fmt.Errorf("first request: %w", err))
	}
	if resp.Status != serve.StatusOK {
		return fail(fmt.Errorf("first request: %s %s", resp.Status, resp.Error))
	}
	if err := check(probe, resp); err != nil {
		return fail(fmt.Errorf("first request: %w", err))
	}
	c.setup = time.Since(start)
	return c, nil
}

// probeItem is the readiness request: an MD5 of a short payload.
func probeItem() *item {
	var in inputs
	return in.build(shape{op: serve.OpMD5, size: 64}, rand.New(rand.NewSource(0)))
}

// cpu is wispd's CPU seconds so far.
func (c *cluster) cpu() (float64, error) { return cpuSeconds(c.wispd.pid()) }

// peakRSS is wispd's peak resident set.
func (c *cluster) peakRSS() (float64, error) { return peakRSSMB(c.wispd.pid()) }

// snapshot is wispd's /stats, flattened.
func (c *cluster) snapshot() (map[string]float64, error) { return c.fetchStats(c.wispdHTTP) }

func (c *cluster) fetchStats(addr string) (map[string]float64, error) {
	resp, err := c.statsClient.Get("http://" + addr + "/stats")
	if err != nil {
		return nil, fmt.Errorf("fetching /stats: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading /stats: %w", err)
	}
	var doc any
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	flat := map[string]float64{}
	flatten("", doc, flat)
	return flat, nil
}

// flatten maps every numeric leaf of a JSON document to its dotted path
// ("session_cache.hits", "nodes.0.rtt_us.p99").
func flatten(prefix string, v any, out map[string]float64) {
	join := func(k string) string {
		if prefix == "" {
			return k
		}
		return prefix + "." + k
	}
	switch x := v.(type) {
	case float64:
		out[prefix] = x
	case map[string]any:
		for k, e := range x {
			flatten(join(k), e, out)
		}
	case []any:
		for i, e := range x {
			flatten(join(strconv.Itoa(i)), e, out)
		}
	}
}

// delta subtracts two flattened snapshots leaf by leaf.  Counters give
// what happened in between; gauges and lifetime quantiles give a
// meaningless difference, which is why records keep the end values too.
func delta(pre, cur map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(cur))
	for k, v := range cur {
		out[k] = v - pre[k]
	}
	return out
}

// stop shuts wispd down and waits for it.
func (c *cluster) stop() {
	if c.load != nil {
		c.load.close()
	}
	if c.wispd != nil {
		c.wispd.stop()
	}
}
