package main

import "fmt"

// perLayer derives the untraced run's layer metrics: per-request stage
// times from the response fields of the open-loop phase, and counter
// ratios from wispd's /stats movement over both timed phases.
func perLayer(outs []outcome, lat latency, pre, post map[string]float64, failRatio float64) (metricList, error) {
	var queue, service, overhead []float64
	for _, o := range outs {
		if !o.ok {
			continue
		}
		rtt := float64(o.rtt) / 1e3
		queue = append(queue, float64(o.queueUS))
		service = append(service, float64(o.service))
		overhead = append(overhead, rtt-float64(o.queueUS)-float64(o.service))
	}
	var l metricList
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"serve.queue_us", queue}, {"serve.service_us", service}, {"frontend.overhead_us", overhead}} {
		sorted := sortedCopy(s.xs)
		p99, err := percentile(sorted, 0.99)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		l.add(s.name+".p50", "us", median(sorted))
		l.add(s.name+".p99", "us", p99)
	}

	d := delta(pre, post)
	requests := d["requests"]
	perKop := func(v float64) float64 { return ratio(v*1000, requests) }
	l.add("serve.rsa_batched_share", "ratio", ratio(d["rsa_ops_batched"], d["rsa_ops_batched"]+d["rsa_ops_scalar"]))
	l.add("serve.rsa_batch_width.mean", "lanes", ratio(d["rsa_batch_width.sum"], d["rsa_batch_width.count"]))
	l.add("serve.steals_per_kop", "count", perKop(d["steals"]))
	l.add("serve.shed_per_kop", "count", perKop(d["shed"]))
	l.add("ssl.session_evictions_per_kop", "count", perKop(d["session_cache.evictions"]))
	l.add("rsakey.precompute_hit_rate", "ratio", ratio(d["precompute_cache.hits"], d["precompute_cache.hits"]+d["precompute_cache.misses"]))
	l.add("runtime.allocs_per_op", "count", ratio(d["runtime.heap_alloc_objects_total"], d["ok"]))
	l.add("runtime.gc_pause_p99_us", "us", post["runtime.gc_pause_p99_us"])

	// The generator's wire round trip (send → answer) holds wispd's
	// queue and service time; frontend.overhead_us is what remains.
	l.add("loadgen.rtt_us.p50", "us", lat.rttP50)
	l.add("loadgen.rtt_us.p99", "us", lat.rttP99)
	l.add("loadgen.lag_ms.p99", "ms", lat.lagP99MS)
	l.add("fail_ratio", "ratio", failRatio)
	return l, nil
}
