package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"wisp/internal/hashes"
)

// Figure8Mix is the transaction-size mix the load generator replays by
// default: the paper's Figure 8 sweep points at 1, 4, 16 and 32 KB.
var Figure8Mix = []int{1 << 10, 4 << 10, 16 << 10, 32 << 10}

// LoadConfig drives the closed-loop load generator: Clients goroutines
// each issue PerClient requests back to back, drawing the payload size
// and op independently per request from seeded per-client RNG streams
// (so every op is exercised at every size, deterministically per seed).
type LoadConfig struct {
	Addr string
	// Dial, when set, builds the transport the load clients speak instead
	// of HTTP+JSON — wispload -proto wire installs the binary-protocol
	// dialer here.  The request streams are byte-identical either way (the
	// transport sits below the scheduling RNGs), so protocol A/B runs on
	// the same seed replay the same workload.  Attack profiles pre-frame
	// HTTP bodies and are rejected in combination with Dial.
	Dial       func(addr string) (Transport, error)
	Clients    int     // concurrent closed-loop clients; default 4
	PerClient  int     // requests per client; default 25
	Mix        []int   // payload sizes; default Figure8Mix
	Ops        []Op    // op mix; default {OpSSL}
	RecordSize int     // record chunking for OpSSL; 0 = gateway default
	DeadlineUS int64   // per-request latency budget; 0 = none
	Seed       int64   // payload and mix determinism; default 1
	ClockHz    float64 // simulated platform clock; default PlatformClockHz

	// ResumeRatio is the fraction of OpSSL/OpHandshake requests that ask
	// the gateway to resume a cached session (abbreviated handshake, no
	// RSA).  Drawn per request from the schedule RNG, so a 0.5 ratio
	// exercises both paths deterministically.  0 disables resumption.
	ResumeRatio float64

	// SplitUS, when positive, additionally buckets outcomes by issue
	// time: requests issued before SplitUS µs into the run land in the
	// early_* report fields, the rest in late_*.  The cluster kill gate
	// sets the split at the victim's kill time and compares the two
	// windows' resumption rates.
	SplitUS int64

	// Retries enables client-side re-submission of shed responses (total
	// attempts = Retries+1) with exponential backoff + jitter.
	Retries int
	// BackoffUS is the base retry backoff in µs; default 2000.
	BackoffUS int64
	// HedgeUS launches a hedged duplicate for deadline-bearing requests
	// that have not answered within this many µs; 0 disables hedging.
	HedgeUS int64

	// ThinkUS paces legit clients: each sleeps around this many µs
	// (jittered, deterministic per seed) between requests instead of
	// issuing back to back.  A pure closed loop at saturation measures its
	// own queueing — every extra outstanding op inflates every latency, so
	// a fairness comparison degenerates into a flow-count ratio.  Pacing
	// keeps the legit replay below saturation so the mixed-vs-baseline
	// percentiles measure what the server did, not what the generator did.
	// 0 keeps the classic back-to-back loop.  Attackers never pace.
	ThinkUS int64

	// Attack mixes adversarial clients into the run.  Attackers are
	// ADDITIONAL clients (they do not replace legit ones), so the legit
	// request streams are byte-identical to an attack-free run on the same
	// seed; profiles cycle round-robin over this list.
	Attack []AttackProfile
	// AttackRatio is the target fraction of all clients that are
	// attackers; the attacker count is derived from it (see attackerCount).
	// Default 0.25 when Attack is non-empty.
	AttackRatio float64
	// AttackConcurrency is how many concurrent request streams each
	// attacker runs under its single ClientID; default 4.  Legit clients
	// stay closed-loop.
	AttackConcurrency int
	// SlowlorisMS is how long a slowloris attacker stretches one request
	// body; default 1500.
	SlowlorisMS int
	// AttackRTTUS models the attacker's network distance: each attack
	// stream pauses this many µs per request (oversize streams 5x — a
	// megabyte upload is bandwidth-bound, not latency-bound).  On loopback
	// an unpaced stream fires thousands of requests per second, a rate no
	// real WAN stream sustains, and the generator's own spin distorts the
	// latency measurement it shares a host with.  Default 20000 (20ms);
	// negative disables pacing.
	AttackRTTUS int64
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.PerClient <= 0 {
		c.PerClient = 25
	}
	if len(c.Mix) == 0 {
		c.Mix = Figure8Mix
	}
	if len(c.Ops) == 0 {
		c.Ops = []Op{OpSSL}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ClockHz == 0 {
		c.ClockHz = PlatformClockHz
	}
	if c.BackoffUS <= 0 {
		c.BackoffUS = 2000
	}
	if len(c.Attack) > 0 && c.AttackRatio <= 0 {
		c.AttackRatio = 0.25
	}
	if c.AttackConcurrency <= 0 {
		c.AttackConcurrency = 4
	}
	if c.SlowlorisMS <= 0 {
		c.SlowlorisMS = 1500
	}
	if c.AttackRTTUS == 0 {
		c.AttackRTTUS = 20000
	} else if c.AttackRTTUS < 0 {
		c.AttackRTTUS = 0
	}
	return c
}

// workItem is one scheduled request: a payload size, an op and whether to
// offer session resumption.
type workItem struct {
	size   int
	op     Op
	resume bool
}

// schedule returns client i's deterministic request sequence.  Size and
// op are drawn independently from a dedicated per-client RNG stream —
// the old `(i+k) % len` striding indexed Mix and Ops in lockstep, so
// whenever the two lengths shared a factor each op was only ever
// exercised at a subset of sizes.
func (c LoadConfig) schedule(client int) []workItem {
	// A dedicated stream (distinct from the payload RNG, offset per
	// client) keeps runs seed-deterministic.
	rng := rand.New(rand.NewSource(c.Seed*0x9e3779b9 + int64(client) + 0x517cc1b7))
	items := make([]workItem, c.PerClient)
	for k := range items {
		it := workItem{
			size: c.Mix[rng.Intn(len(c.Mix))],
			op:   c.Ops[rng.Intn(len(c.Ops))],
		}
		if (it.op == OpSSL || it.op == OpHandshake) && c.ResumeRatio > 0 {
			it.resume = rng.Float64() < c.ResumeRatio
		}
		items[k] = it
	}
	return items
}

// LatencySummary summarizes a latency sample in microseconds.
type LatencySummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   int64   `json:"min"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

func summarize(us []int64) LatencySummary {
	if len(us) == 0 {
		return LatencySummary{}
	}
	sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
	var sum int64
	for _, v := range us {
		sum += v
	}
	// Nearest-rank quantile: the ceil(p·n)-th smallest sample, so small
	// samples never report p50 below the true median.
	q := func(p float64) int64 {
		idx := int(math.Ceil(p*float64(len(us)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(us) {
			idx = len(us) - 1
		}
		return us[idx]
	}
	return LatencySummary{
		Count: len(us),
		Mean:  float64(sum) / float64(len(us)),
		Min:   us[0],
		P50:   q(0.50),
		P95:   q(0.95),
		P99:   q(0.99),
		Max:   us[len(us)-1],
	}
}

// SizeStats is the per-transaction-size slice of a load run.
type SizeStats struct {
	Bytes   int            `json:"bytes"`
	Latency LatencySummary `json:"latency_us"`
}

// OpStatsRow is the per-op latency slice of a load run.
type OpStatsRow struct {
	Op      string         `json:"op"`
	Latency LatencySummary `json:"latency_us"`
}

// ClassReport summarizes one client class (legit or attack) of a mixed
// run: the counts and the class-only latency distribution.  The fairness
// regression gate reads Legit.Latency from the mixed run and holds it
// against the attack-free baseline.
type ClassReport struct {
	Clients     int            `json:"clients"`
	Requests    int            `json:"requests"`
	OK          int            `json:"ok"`
	Shed        int            `json:"shed"`
	Throttled   int            `json:"throttled"`
	Expired     int            `json:"expired"`
	Errors      int            `json:"errors"`
	Resumed     int            `json:"resumed,omitempty"`
	ResumeAsked int            `json:"resume_asked,omitempty"`
	Latency     LatencySummary `json:"latency_us"`
}

// LoadReport is the result of one closed-loop run.
type LoadReport struct {
	Clients      int     `json:"clients"`
	Transactions int     `json:"transactions"`
	OK           int     `json:"ok"`
	Shed         int     `json:"shed"`
	Throttled    int     `json:"throttled,omitempty"`
	Expired      int     `json:"expired"`
	Errors       int     `json:"errors"`
	Mismatches   int     `json:"mismatches"`
	Resumed      int     `json:"resumed,omitempty"`
	ResumeAsked  int     `json:"resume_asked,omitempty"`
	Retries      uint64  `json:"retries,omitempty"`
	Hedges       uint64  `json:"hedges,omitempty"`
	Bytes        int64   `json:"bytes"`
	Seconds      float64 `json:"seconds"`

	// Early/late window split (populated when LoadConfig.SplitUS > 0):
	// outcomes bucketed by whether the request was issued before or after
	// the split point.  Flat fields so shell gates can grep them.
	EarlyOK          int `json:"early_ok"`
	EarlyResumeAsked int `json:"early_resume_asked"`
	EarlyResumed     int `json:"early_resumed"`
	LateOK           int `json:"late_ok"`
	LateResumeAsked  int `json:"late_resume_asked"`
	LateResumed      int `json:"late_resumed"`

	// Mixed-run split: present only when the config requested attackers.
	AttackRatio float64      `json:"attack_ratio,omitempty"`
	Legit       *ClassReport `json:"legit,omitempty"`
	AttackRep   *ClassReport `json:"attack,omitempty"`

	Latency LatencySummary `json:"latency_us"`
	PerSize []SizeStats    `json:"per_size"`
	PerOp   []OpStatsRow   `json:"per_op,omitempty"`

	AchievedRPS  float64 `json:"achieved_rps"`
	AchievedMBps float64 `json:"achieved_mbps"`

	// Model comparison: what the analytic cost model predicts the
	// baseline and optimized simulated platforms would need for the OK
	// portion of this workload, at ClockHz.
	ModelBaseCycles  float64 `json:"model_base_cycles"`
	ModelOptCycles   float64 `json:"model_opt_cycles"`
	ModelBaseSeconds float64 `json:"model_base_seconds"`
	ModelOptSeconds  float64 `json:"model_opt_seconds"`
	// ModelSpeedup is base/opt over the served mix — the Figure 8 curve
	// integrated over the replayed distribution.
	ModelSpeedup float64 `json:"model_speedup"`
	// WallVsModelOpt is gateway wall-clock time over the optimized
	// platform's predicted time (how far the host serving path is from
	// the simulated silicon).
	WallVsModelOpt float64 `json:"wall_vs_model_opt"`

	// AllocsPerOp and AllocBytesPerOp are the server-side heap-allocation
	// deltas across the run (sampled from /stats runtime counters before
	// and after) divided by OK responses — the memory-discipline figure
	// the benchcmp allocation gate compares against its baseline.  Zero
	// when the server does not expose runtime stats.
	AllocsPerOp     float64 `json:"allocs_per_op,omitempty"`
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op,omitempty"`
	// GCPauseP99US is the server's GC stop-the-world pause p99 (µs,
	// process lifetime) observed after the run.
	GCPauseP99US float64 `json:"gc_pause_p99_us,omitempty"`
}

// newClient builds one load client over the configured transport (HTTP by
// default, Dial otherwise) plus a cleanup closing whatever was dialed.
func (c LoadConfig) newClient() (*Client, func(), error) {
	if c.Dial == nil {
		return NewClient(c.Addr), func() {}, nil
	}
	tr, err := c.Dial(c.Addr)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: dialing %s: %w", c.Addr, err)
	}
	return NewClientWith(tr), func() { tr.Close() }, nil
}

// clientResult accumulates one load client's outcomes.  Legit clients are
// single-goroutine closed loops; attackers run several concurrent streams
// into one result and serialize on mu.
type clientResult struct {
	mu                                             sync.Mutex
	attack                                         bool
	ok, shed, throttled, expired, errs, mismatches int
	resumed, resumeAsked                           int
	earlyOK, earlyResumed, earlyAsked              int
	lateOK, lateResumed, lateAsked                 int
	bytes                                          int64
	latencies                                      []int64
	perSize                                        map[int][]int64
	perOp                                          map[Op][]int64
	baseCycles, optCycles                          float64
	err                                            error
}

// RunLoad executes the closed-loop load run against a serving gateway.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	c := cfg.withDefaults()
	if c.Addr == "" {
		return nil, fmt.Errorf("serve: load generator needs an address")
	}
	if c.Dial != nil && len(c.Attack) > 0 {
		return nil, fmt.Errorf("serve: adversarial profiles pre-frame HTTP bodies and cannot run over a custom transport")
	}
	client, closeClient, err := c.newClient()
	if err != nil {
		return nil, err
	}
	defer closeClient()
	if c.Retries > 0 || c.HedgeUS > 0 {
		client.SetRetryPolicy(RetryPolicy{
			MaxAttempts: c.Retries + 1,
			Backoff:     time.Duration(c.BackoffUS) * time.Microsecond,
			MaxBackoff:  time.Duration(c.BackoffUS) * time.Microsecond * 16,
			Jitter:      0.2,
			HedgeAfter:  time.Duration(c.HedgeUS) * time.Microsecond,
		}, c.Seed)
	}

	nAttack := c.attackerCount()
	results := make([]clientResult, c.Clients+nAttack)
	// Sample the server's allocation counters around the run; failures
	// (older server, no /stats) just leave the alloc columns at zero.
	preStats, _ := client.Stats()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < c.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			r.perSize = make(map[int][]int64)
			r.perOp = make(map[Op][]int64)
			items := c.schedule(i)
			rng := rand.New(rand.NewSource(c.Seed + int64(i)))
			// A separate RNG for think-time jitter keeps the payload byte
			// streams identical whether or not pacing is on.
			thinkRNG := rand.New(rand.NewSource(c.Seed*7919 + int64(i)))
			if c.ThinkUS > 0 {
				// Staggered start: desynchronize the clients so they do not
				// arrive in lockstep convoys every think interval.
				time.Sleep(time.Duration(thinkRNG.Int63n(c.ThinkUS)) * time.Microsecond)
			}
			// sess is this client's resumable session ID, echoed by the
			// server in Result on every OK SSL transaction.  Offering it
			// back via Key lets the client resume against whichever
			// backend a routing tier lands it on, not just the shard that
			// happens to hold matching self-resume state.
			var sess []byte
			for k, it := range items {
				if c.ThinkUS > 0 && k > 0 {
					// Jittered around the mean: [ThinkUS/2, 3*ThinkUS/2).
					d := c.ThinkUS/2 + thinkRNG.Int63n(c.ThinkUS)
					time.Sleep(time.Duration(d) * time.Microsecond)
				}
				payload := make([]byte, it.size)
				rng.Read(payload)
				want := hashes.MD5Sum(payload)
				req := &Request{
					ID:         fmt.Sprintf("c%d-%d", i, k),
					Op:         it.op,
					Payload:    payload,
					RecordSize: c.RecordSize,
					DeadlineUS: c.DeadlineUS,
					Resume:     it.resume,
					ClientID:   fmt.Sprintf("legit-%d", i),
				}
				if it.resume && len(sess) > 0 {
					req.Key = sess
				}
				early := c.SplitUS > 0 && time.Since(start).Microseconds() < c.SplitUS
				if it.resume {
					r.resumeAsked++
					if c.SplitUS > 0 {
						if early {
							r.earlyAsked++
						} else {
							r.lateAsked++
						}
					}
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				lat := time.Since(t0).Microseconds()
				if err != nil {
					r.err = err
					return
				}
				switch resp.Status {
				case StatusOK:
					r.ok++
					r.bytes += int64(it.size)
					r.latencies = append(r.latencies, lat)
					// Resumed transactions are a different service class
					// (no RSA op), so their latencies are reported as a
					// separate per-op row rather than diluting the full-
					// handshake distribution.
					opClass := it.op
					if resp.Resumed {
						opClass = it.op + "+resumed"
						r.resumed++
					}
					if c.SplitUS > 0 {
						if early {
							r.earlyOK++
						} else {
							r.lateOK++
						}
						if resp.Resumed {
							if early {
								r.earlyResumed++
							} else {
								r.lateResumed++
							}
						}
					}
					if (it.op == OpSSL || it.op == OpHandshake) && len(resp.Result) > 0 {
						sess = append(sess[:0], resp.Result...)
					}
					r.perOp[opClass] = append(r.perOp[opClass], lat)
					if it.op == OpSSL {
						r.perSize[it.size] = append(r.perSize[it.size], lat)
					}
					if !bytes.Equal(resp.Digest, want[:]) {
						r.mismatches++
					}
					r.baseCycles += resp.EstBaseCycles
					r.optCycles += resp.EstOptCycles
				case StatusShed:
					r.shed++
					if resp.ShedReason == "throttle" {
						r.throttled++
					}
				case StatusExpired:
					r.expired++
				default:
					r.errs++
				}
			}
		}(i)
	}
	// Attackers run alongside the legit clients straight on the HTTP
	// transport (no retry policy: an attacker resubmitting its own
	// throttled requests politely is not the adversary we are modeling;
	// the oversize profile posts pre-framed bodies) and keep firing until
	// the last legit request completes — an attack that burns out in the
	// opening seconds would only contaminate the head of the measurement,
	// and the fairness bound is about sustained pressure.
	var attackWG sync.WaitGroup
	attackDone := make(chan struct{})
	if nAttack > 0 {
		attackTr := newHTTPTransport(c.Addr)
		for j := 0; j < nAttack; j++ {
			attackWG.Add(1)
			go func(j int) {
				defer attackWG.Done()
				runAttacker(c, c.Attack[j%len(c.Attack)], j, attackTr, &results[c.Clients+j], attackDone)
			}(j)
		}
	}
	wg.Wait()
	close(attackDone)
	attackWG.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{Clients: c.Clients, Seconds: elapsed.Seconds()}
	var all []int64
	perSize := make(map[int][]int64)
	perOp := make(map[Op][]int64)
	var legit, attack ClassReport
	var legitLat, attackLat []int64
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, fmt.Errorf("serve: load client %d: %w", i, r.err)
		}
		rep.OK += r.ok
		rep.Shed += r.shed
		rep.Throttled += r.throttled
		rep.Expired += r.expired
		rep.Errors += r.errs
		rep.Mismatches += r.mismatches
		rep.Resumed += r.resumed
		rep.ResumeAsked += r.resumeAsked
		rep.EarlyOK += r.earlyOK
		rep.EarlyResumeAsked += r.earlyAsked
		rep.EarlyResumed += r.earlyResumed
		rep.LateOK += r.lateOK
		rep.LateResumeAsked += r.lateAsked
		rep.LateResumed += r.lateResumed
		rep.Bytes += r.bytes
		rep.ModelBaseCycles += r.baseCycles
		rep.ModelOptCycles += r.optCycles
		all = append(all, r.latencies...)
		for sz, ls := range r.perSize {
			perSize[sz] = append(perSize[sz], ls...)
		}
		for op, ls := range r.perOp {
			perOp[op] = append(perOp[op], ls...)
		}
		cls, clsLat := &legit, &legitLat
		if r.attack {
			cls, clsLat = &attack, &attackLat
		}
		cls.Clients++
		cls.Requests += r.ok + r.shed + r.expired + r.errs
		cls.OK += r.ok
		cls.Shed += r.shed
		cls.Throttled += r.throttled
		cls.Expired += r.expired
		cls.Errors += r.errs
		cls.Resumed += r.resumed
		cls.ResumeAsked += r.resumeAsked
		*clsLat = append(*clsLat, r.latencies...)
	}
	rep.Transactions = rep.OK + rep.Shed + rep.Expired + rep.Errors
	if nAttack > 0 {
		legit.Latency = summarize(legitLat)
		attack.Latency = summarize(attackLat)
		rep.AttackRatio = float64(nAttack) / float64(c.Clients+nAttack)
		rep.Legit = &legit
		rep.AttackRep = &attack
	}
	rep.Retries = client.Retries()
	rep.Hedges = client.Hedges()
	rep.Latency = summarize(all)
	sizes := make([]int, 0, len(perSize))
	for sz := range perSize {
		sizes = append(sizes, sz)
	}
	sort.Ints(sizes)
	for _, sz := range sizes {
		rep.PerSize = append(rep.PerSize, SizeStats{Bytes: sz, Latency: summarize(perSize[sz])})
	}
	opNames := make([]string, 0, len(perOp))
	for op := range perOp {
		opNames = append(opNames, string(op))
	}
	sort.Strings(opNames)
	for _, op := range opNames {
		rep.PerOp = append(rep.PerOp, OpStatsRow{Op: op, Latency: summarize(perOp[Op(op)])})
	}
	if elapsed > 0 {
		rep.AchievedRPS = float64(rep.OK) / elapsed.Seconds()
		rep.AchievedMBps = float64(rep.Bytes) / elapsed.Seconds() / 1e6
	}
	rep.ModelBaseSeconds = rep.ModelBaseCycles / c.ClockHz
	rep.ModelOptSeconds = rep.ModelOptCycles / c.ClockHz
	if rep.ModelOptCycles > 0 {
		rep.ModelSpeedup = rep.ModelBaseCycles / rep.ModelOptCycles
		rep.WallVsModelOpt = elapsed.Seconds() / rep.ModelOptSeconds
	}
	if postStats, _ := client.Stats(); postStats != nil && postStats.Runtime != nil &&
		preStats != nil && preStats.Runtime != nil && rep.OK > 0 {
		w := DiffStats(preStats, postStats)
		rep.AllocsPerOp = float64(w.AllocObjects) / float64(rep.OK)
		rep.AllocBytesPerOp = float64(w.AllocBytes) / float64(rep.OK)
		rep.GCPauseP99US = postStats.Runtime.GCPauseP99US
	}
	return rep, nil
}

// Format renders the report for terminals.
func (r *LoadReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load: %d clients, %d requests in %.2fs — %d ok, %d shed, %d expired, %d errors, %d mismatches\n",
		r.Clients, r.Transactions, r.Seconds, r.OK, r.Shed, r.Expired, r.Errors, r.Mismatches)
	if r.Legit != nil && r.AttackRep != nil {
		fmt.Fprintf(&b, "mixed run: %.0f%% attack clients (%d legit + %d attackers)\n",
			100*r.AttackRatio, r.Legit.Clients, r.AttackRep.Clients)
		for _, c := range []struct {
			name string
			rep  *ClassReport
		}{{"legit ", r.Legit}, {"attack", r.AttackRep}} {
			fmt.Fprintf(&b, "  %s: %d req — %d ok, %d shed (%d throttled), %d expired, %d errors; p50 %s  p99 %s\n",
				c.name, c.rep.Requests, c.rep.OK, c.rep.Shed, c.rep.Throttled, c.rep.Expired, c.rep.Errors,
				usDur(c.rep.Latency.P50), usDur(c.rep.Latency.P99))
		}
	}
	if r.Resumed > 0 {
		fmt.Fprintf(&b, "resumption: %d of %d ok transactions used an abbreviated handshake (%.0f%%)\n",
			r.Resumed, r.OK, 100*float64(r.Resumed)/float64(r.OK))
	}
	if r.Retries > 0 || r.Hedges > 0 {
		fmt.Fprintf(&b, "robustness: %d retries, %d hedged requests\n", r.Retries, r.Hedges)
	}
	fmt.Fprintf(&b, "throughput: %.1f req/s, %.2f MB/s\n", r.AchievedRPS, r.AchievedMBps)
	if r.Latency.Count > 0 {
		fmt.Fprintf(&b, "latency: p50 %s  p95 %s  p99 %s  max %s\n",
			usDur(r.Latency.P50), usDur(r.Latency.P95), usDur(r.Latency.P99), usDur(r.Latency.Max))
	}
	for _, s := range r.PerSize {
		fmt.Fprintf(&b, "  %5dKB: n=%-4d p50 %s  p95 %s  p99 %s\n",
			s.Bytes/1024, s.Latency.Count, usDur(s.Latency.P50), usDur(s.Latency.P95), usDur(s.Latency.P99))
	}
	if len(r.PerOp) > 1 {
		for _, s := range r.PerOp {
			fmt.Fprintf(&b, "  op %-11s n=%-4d p50 %s  p95 %s  p99 %s\n",
				s.Op+":", s.Latency.Count, usDur(s.Latency.P50), usDur(s.Latency.P95), usDur(s.Latency.P99))
		}
	}
	if r.ModelOptCycles > 0 {
		fmt.Fprintf(&b, "model: base %.3fs, optimized %.3fs at 188 MHz (speedup %.2fX over this mix); wall-clock %.1fX the optimized platform\n",
			r.ModelBaseSeconds, r.ModelOptSeconds, r.ModelSpeedup, r.WallVsModelOpt)
	}
	if r.AllocsPerOp > 0 || r.AllocBytesPerOp > 0 {
		fmt.Fprintf(&b, "memory: %.0f server allocs/op (%.0f B/op), GC pause p99 %.1fµs\n",
			r.AllocsPerOp, r.AllocBytesPerOp, r.GCPauseP99US)
	}
	return b.String()
}

func usDur(us int64) time.Duration {
	return (time.Duration(us) * time.Microsecond).Round(10 * time.Microsecond)
}
