// Command wispload is the closed-loop load generator for wispd: it
// replays the paper's Figure 8 transaction-size mix at configurable
// concurrency, verifies every served payload digest end to end, and
// reports p50/p95/p99 latency plus achieved throughput against the
// analytic cost model's prediction for the simulated platform.
//
// Usage:
//
//	wispload -addr 127.0.0.1:9311 [-proto http|wire] [-clients 4] [-n 25]
//	         [-mix 1k,4k,16k,32k] [-ops ssl] [-record 1024]
//	         [-deadline-us 0] [-retries 0] [-backoff-us 2000]
//	         [-hedge-us 0] [-resume-ratio 0] [-think-us 0] [-seed 1]
//	         [-json] [-stats]
//	         [-attack flood,thrash,oversize,slowloris] [-attack-ratio 0.25]
//	         [-attack-conc 4] [-bench-out FILE] [-bench-label NAME]
//
// -resume-ratio R marks fraction R of ssl/handshake requests as
// resumable: the gateway serves them with an abbreviated handshake from
// its session cache (no RSA op) and the report splits their latency into
// a separate "+resumed" class.  -bench-out writes a compact benchmark
// record (per-op p50/p99, throughput, cache hit rates) for the CI
// regression gate (cmd/benchcmp).
//
// -proto wire drives the binary wire protocol (internal/wire) instead of
// HTTP: one multiplexed TCP connection per client against a wispd
// -listen-wire port or a wispgw routing tier.  Request streams are
// byte-identical across protocols on the same seed, so wire and HTTP runs
// verify the same digests.  Adversarial profiles pre-frame HTTP bodies
// and are HTTP-only.
//
// -attack mixes adversarial clients into the run alongside the legit
// closed loops: flood (concurrent full-handshake SSL), thrash
// (session-cache churn), oversize (max-size and over-limit payloads) and
// slowloris (dribbled request bodies).  Attackers are ADDITIONAL clients —
// the legit request streams are byte-identical to an attack-free run on
// the same seed — and the report splits legit vs attack outcomes so the
// fairness gate can hold legit-only p99 against an attack-free baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wisp/internal/serve"
	"wisp/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9311", "wispd address")
	proto := flag.String("proto", "http", "transport protocol: http (POST /v1/offload) or wire (binary TCP)")
	clients := flag.Int("clients", 4, "concurrent closed-loop clients")
	perClient := flag.Int("n", 25, "requests per client")
	mix := flag.String("mix", "1k,4k,16k,32k", "payload size mix (k/m suffixes)")
	ops := flag.String("ops", "ssl", "comma-separated op mix (ssl,handshake,record,rsa-decrypt,aes,3des,md5,hmac-md5,...)")
	record := flag.Int("record", 0, "record size for ssl transactions (0 = server default)")
	deadline := flag.Int64("deadline-us", 0, "per-request deadline budget in µs (0 = none)")
	retries := flag.Int("retries", 0, "max client retries for shed responses (exponential backoff + jitter)")
	backoff := flag.Int64("backoff-us", 2000, "base retry backoff in µs (doubles per retry)")
	hedge := flag.Int64("hedge-us", 0, "hedge deadline-bearing requests unanswered after this many µs (0 = off)")
	resumeRatio := flag.Float64("resume-ratio", 0, "fraction of ssl/handshake requests offering session resumption (0..1)")
	thinkUS := flag.Int64("think-us", 0, "mean jittered pause between a legit client's requests in µs (0 = back-to-back closed loop)")
	splitUS := flag.Int64("split-us", 0, "bucket outcomes into early_*/late_* report windows at this many µs into the run (0 = off; cluster kill gates split at the kill time)")
	attack := flag.String("attack", "", "comma-separated adversarial profiles to mix in (flood,thrash,oversize,slowloris)")
	attackRatio := flag.Float64("attack-ratio", 0.25, "target fraction of all clients that are attackers (attackers are additional clients)")
	attackConc := flag.Int("attack-conc", 4, "concurrent request streams per attacker ClientID")
	attackRTT := flag.Int64("attack-rtt-us", 0, "modeled attacker round-trip in µs per stream request (0 = default 20000, negative = unpaced)")
	seed := flag.Int64("seed", 1, "payload determinism seed")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	stats := flag.Bool("stats", true, "fetch and print server-side /stats after the run")
	benchOut := flag.String("bench-out", "", "write a benchmark record (per-op p50/p99, throughput, cache hit rates) to this file")
	benchLabel := flag.String("bench-label", "", "experiment label stamped on the benchmark record (benchcmp refuses cross-label comparisons)")
	flag.Parse()

	var dial func(string) (serve.Transport, error)
	switch *proto {
	case "http":
	case "wire":
		dial = func(a string) (serve.Transport, error) { return wire.Dial(a) }
	default:
		fatal(fmt.Errorf("unknown -proto %q (want http or wire)", *proto))
	}

	if *resumeRatio < 0 || *resumeRatio > 1 {
		fatal(fmt.Errorf("resume-ratio %g out of range [0,1]", *resumeRatio))
	}

	sizes, err := parseMix(*mix)
	if err != nil {
		fatal(err)
	}
	opList, err := parseOps(*ops)
	if err != nil {
		fatal(err)
	}
	profiles, err := serve.ParseAttackProfiles(*attack)
	if err != nil {
		fatal(err)
	}
	if *attackRatio < 0 || *attackRatio >= 1 {
		fatal(fmt.Errorf("attack-ratio %g out of range [0,1)", *attackRatio))
	}

	rep, err := serve.RunLoad(serve.LoadConfig{
		Addr:        *addr,
		Dial:        dial,
		Clients:     *clients,
		PerClient:   *perClient,
		Mix:         sizes,
		Ops:         opList,
		RecordSize:  *record,
		DeadlineUS:  *deadline,
		Retries:     *retries,
		BackoffUS:   *backoff,
		HedgeUS:     *hedge,
		ResumeRatio: *resumeRatio,
		ThinkUS:     *thinkUS,
		SplitUS:     *splitUS,
		Seed:        *seed,

		Attack:            profiles,
		AttackRatio:       *attackRatio,
		AttackConcurrency: *attackConc,
		AttackRTTUS:       *attackRTT,
	})
	if err != nil {
		fatal(err)
	}

	var serverStats *serve.Stats
	if *stats || *benchOut != "" {
		if dial != nil {
			if tr, err := dial(*addr); err == nil {
				serverStats, _ = tr.Stats()
				tr.Close()
			}
		} else {
			serverStats, _ = serve.NewClient(*addr).Stats()
		}
	}

	if *benchOut != "" {
		if err := serve.WriteBenchRecord(*benchOut, *benchLabel, rep, serverStats); err != nil {
			fatal(err)
		}
	}

	shownStats := serverStats
	if !*stats {
		shownStats = nil
	}
	if *jsonOut {
		doc := struct {
			Report *serve.LoadReport `json:"report"`
			Server *serve.Stats      `json:"server_stats,omitempty"`
		}{rep, shownStats}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
	} else {
		fmt.Print(rep.Format())
		if shownStats != nil {
			fmt.Printf("server: %d requests, %d ok, shed %d (queue-full %d, deadline %d, draining %d, throttle %d), expired %d\n",
				shownStats.Requests, shownStats.OK, shownStats.Shed,
				shownStats.ShedByReason["queue-full"], shownStats.ShedByReason["deadline"],
				shownStats.ShedByReason["draining"], shownStats.ShedByReason["throttle"], shownStats.Expired)
			if q := shownStats.QoS; q != nil {
				fmt.Printf("server qos: %d throttled, %d clients tracked, fair-waiting %d\n",
					q.Throttled, len(q.Clients), q.FairWaiting)
			}
			fmt.Printf("server dispatch: %d steals, %d redirects, %d retries, %d hedged, %d sheds-while-idle\n",
				shownStats.Steals, shownStats.Redirects,
				shownStats.Retries, shownStats.Hedges, shownStats.ShedWhileIdle)
			if ssl, ok := shownStats.PerOp["ssl"]; ok && ssl.Latency.Count > 0 {
				fmt.Printf("server ssl latency: p50 %.0fµs  p95 %.0fµs  p99 %.0fµs (batch p50 %.1f)\n",
					ssl.Latency.P50, ssl.Latency.P95, ssl.Latency.P99, shownStats.BatchSize.P50)
			}
			if sc := shownStats.SessionCache; sc != nil && sc.Hits+sc.Misses > 0 {
				fmt.Printf("server session cache: %d hits, %d misses (%.0f%% hit rate, %d resumed)\n",
					sc.Hits, sc.Misses, 100*sc.HitRate, shownStats.Resumed)
			}
		}
	}
	if rep.Mismatches > 0 {
		fatal(fmt.Errorf("%d payload mismatches", rep.Mismatches))
	}
}

func parseMix(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		if part == "" {
			continue
		}
		mult := 1
		switch {
		case strings.HasSuffix(part, "k"):
			mult, part = 1024, strings.TrimSuffix(part, "k")
		case strings.HasSuffix(part, "m"):
			mult, part = 1<<20, strings.TrimSuffix(part, "m")
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad mix entry %q: %w", part, err)
		}
		out = append(out, n*mult)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty size mix")
	}
	return out, nil
}

func parseOps(s string) ([]serve.Op, error) {
	var out []serve.Op
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op := serve.Op(part)
		if !serve.ValidOp(op) {
			return nil, fmt.Errorf("unknown op %q", part)
		}
		out = append(out, op)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty op mix")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wispload:", err)
	os.Exit(1)
}
