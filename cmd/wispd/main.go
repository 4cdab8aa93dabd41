// Command wispd is the security-offload daemon: it serves SSL-transaction
// and raw-primitive requests over HTTP, dispatching them across a
// shard-per-worker pool of simulated platform instances with bounded
// queues, record-layer batching, load-shedding and deadline-aware
// rejection.  SIGINT/SIGTERM triggers a graceful drain: queued requests
// finish, new ones are shed, then the process exits.
//
// Usage:
//
//	wispd [-addr 127.0.0.1:9311] [-addrfile PATH]
//	      [-listen-wire ""] [-wire-addrfile PATH]
//	      [-shards N] [-batch-width 4] [-batch-gather-us 0]
//	      [-rsabits 512] [-seed 1] [-pace-hz 0]
//	      [-client-rate 0] [-client-burst 0] [-fair-limit 0]
//	      [-qos-quantum 0] [-max-cost 0]
//	      [-peers ADDR,...] [-govern] [-govern-tick 500ms]
//	      [-read-timeout 0] [-drain 30s] [-metrics] [-pprof]
//
// -listen-wire opens a second listener speaking the binary wire protocol
// (internal/wire) alongside HTTP; both front the same gateway.
// -batch-width caps how many queued RSA decrypts fuse into one batched
// engine call (1 = scalar), and -batch-gather-us is how long a shard
// waits to top an under-width batch up.
// -pace-hz enables model-paced serving: each shard stretches SSL-shaped
// service times to the analytic cycle estimate at the given clock
// (188e6 = the paper's 188 MHz platform), which makes multi-node scaling
// experiments honest on hosts with fewer cores than daemons.
// -client-rate enables per-client QoS isolation: each ClientID's
// estimated-cost spend (µs of predicted service time per second) is
// metered against a token bucket, and under saturation clients are
// fair-queued with deficit round-robin ahead of shard dispatch;
// -max-cost throttles any single request priced above the ceiling.
// -peers replicates session secrets to ring peers so abbreviated
// handshakes survive the loss of the node that established them.
// -read-timeout bounds how long a connection may dribble one request
// (the slow-loris defense), and -drain bounds the shutdown drain.
//
// Transactions are priced with the cost model baked into internal/serve
// (serve.DefaultBaseCosts/DefaultOptCosts), which a root-package test
// pins to a fresh Platform.SSLCosts characterization.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wisp/internal/governor"
	"wisp/internal/replica"
	"wisp/internal/serve"
	"wisp/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9311", "listen address (port 0 picks a free port)")
	listenWire := flag.String("listen-wire", "", "binary wire-protocol listen address (empty = HTTP only; port 0 picks a free port)")
	wireAddrFile := flag.String("wire-addrfile", "", "write the bound wire address to this file (for scripts)")
	shards := flag.Int("shards", 0, "worker shards (0 = GOMAXPROCS)")
	batchWidth := flag.Int("batch-width", 0, "RSA ops folded into one batched engine call per drain (0 = default 4; 1 = scalar)")
	batchGather := flag.Int64("batch-gather-us", 0, "micro-batching window in µs: how long a shard waits to top an under-width RSA batch up before serving it (0 = no wait)")
	rsaBits := flag.Int("rsabits", 512, "gateway handshake key size")
	seed := flag.Int64("seed", 1, "determinism seed for shard key material")
	paceHz := flag.Float64("pace-hz", 0, "model-paced serving clock in Hz (188e6 = one 188 MHz platform per shard; 0 = serve at host speed)")
	clientRate := flag.Int64("client-rate", 0, "per-client QoS rate in estimated-cost µs per second (0 = QoS off)")
	clientBurst := flag.Int64("client-burst", 0, "per-client QoS burst in estimated-cost µs (0 = 2x rate)")
	fairLimit := flag.Int64("fair-limit", 0, "outstanding dispatched cost (µs) above which clients are DRR fair-queued (0 = shards x 250ms)")
	qosQuantum := flag.Int64("qos-quantum", 0, "DRR quantum in estimated-cost µs (0 = 10ms)")
	maxCost := flag.Int64("max-cost", 0, "per-request estimated-cost ceiling in µs; dearer requests are throttled (0 = no cap)")
	peersFlag := flag.String("peers", "", "comma-separated wire addresses of ring peers for session-secret replication (@FILE reads the address from FILE at dial time; empty = replication off)")
	readTimeout := flag.Duration("read-timeout", 0, "max time a connection may take to deliver one full request (slow-loris defense; 0 = unbounded)")
	govern := flag.Bool("govern", false, "run the adaptive performance governor (batch width and gather window from live telemetry)")
	governTick := flag.Duration("govern-tick", 500*time.Millisecond, "governor control period")
	metrics := flag.Bool("metrics", false, "print the text metrics dump on shutdown")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ for allocation and CPU profiling")
	addrFile := flag.String("addrfile", "", "write the bound address to this file (for scripts)")
	drainTimeout := flag.Duration("drain", 30*time.Second, "graceful drain budget on shutdown")
	flag.Parse()

	cfg := serve.Config{
		Shards:        *shards,
		BatchWidth:    *batchWidth,
		BatchGatherUS: *batchGather,
		RSABits:       *rsaBits,
		Seed:          *seed,
		PaceHz:        *paceHz,

		ClientRateUS:  *clientRate,
		ClientBurstUS: *clientBurst,
		FairLimitUS:   *fairLimit,
		DRRQuantumUS:  *qosQuantum,
		MaxCostUS:     *maxCost,
	}

	gw, err := serve.NewGateway(cfg)
	if err != nil {
		fatal(err)
	}

	// Session-secret replication: push every full-handshake secret to R
	// ring peers in the background, pull unknown offered sessions back on
	// demand, so abbreviated handshakes survive the loss of the node that
	// established them.  Peer addresses resolve at dial time (@FILE reads
	// the address another node's -wire-addrfile wrote), so a cluster can
	// boot all nodes concurrently without an address bootstrap order.
	var rep *replica.Replicator
	if *peersFlag != "" {
		var peers []string
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		if len(peers) > 0 {
			rep = replica.New(replica.Config{Peers: peers, Dial: dialPeer})
			view := func() *serve.ReplicationView {
				s := rep.Stats()
				return &serve.ReplicationView{
					Peers:      len(peers),
					Replicated: s.Replicated,
					Dropped:    s.Dropped,
					Fetched:    s.Fetched,
					FetchMiss:  s.FetchMiss,
				}
			}
			gw.SetSessionReplication(rep.Offer, rep.Fetch, view)
			fmt.Printf("wispd: session replication to %d peers\n", len(peers))
		}
	}

	// Adaptive governor: a control loop over windowed /stats deltas that
	// retunes the batch width and gather window.
	var gov *governor.Governor
	if *govern {
		gov = governor.New(governor.Config{
			Tick:     *governTick,
			Snapshot: func() serve.Stats { return gw.Stats() },
			Tuner:    gw,
			Logf: func(format string, args ...any) {
				fmt.Printf("wispd: governor: "+format+"\n", args...)
			},
		})
		gw.SetGovernorView(gov.View)
		go gov.Run()
		fmt.Printf("wispd: governor on — tick %s\n", *governTick)
	}

	srv := serve.NewServer(gw)
	if *pprofFlag {
		srv.EnablePprof()
	}
	if *readTimeout > 0 {
		srv.SetReadTimeout(*readTimeout)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound.String()), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wispd: listening on %s (%d shards, queue %d, batch %d, RSA-%d)\n",
		bound, gw.Config().Shards, gw.Config().QueueDepth, gw.Config().BatchMax, gw.Config().RSABits)
	if qc := gw.Config(); qc.ClientRateUS > 0 {
		fmt.Printf("wispd: QoS on — %dµs/s per client (burst %dµs), fair-queue above %dµs outstanding (quantum %dµs)\n",
			qc.ClientRateUS, qc.ClientBurstUS, qc.FairLimitUS, qc.DRRQuantumUS)
	}
	if *paceHz > 0 {
		fmt.Printf("wispd: model-paced at %.0f Hz — each shard serves like one platform instance\n", *paceHz)
	}

	var wireSrv *wire.Server
	wireErr := make(chan error, 1)
	if *listenWire != "" {
		wireSrv = wire.NewServer(gw, wire.ServerConfig{ReadTimeout: *readTimeout})
		wireBound, err := wireSrv.Listen(*listenWire)
		if err != nil {
			fatal(err)
		}
		if *wireAddrFile != "" {
			if err := os.WriteFile(*wireAddrFile, []byte(wireBound.String()), 0o644); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("wispd: wire protocol on %s\n", wireBound)
		go func() { wireErr <- wireSrv.Serve() }()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	select {
	case err := <-serveErr:
		if err != nil {
			fatal(err)
		}
	case err := <-wireErr:
		if err != nil {
			fatal(err)
		}
	case s := <-sig:
		fmt.Printf("wispd: %v — draining...\n", s)
		if gov != nil {
			gov.Stop() // freeze the knobs before the drain starts
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := srv.Shutdown(ctx) // drains the gateway, so wire requests finish too
		cancel()
		if wireSrv != nil {
			if werr := wireSrv.Close(); werr != nil && err == nil {
				err = werr
			}
		}
		if rep != nil {
			rep.Close() // flush queued session pushes before exiting
		}
		if err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		stats := gw.Stats()
		fmt.Printf("wispd: drained cleanly (%d served, %d shed, %d expired)\n",
			stats.OK, stats.Shed, stats.Expired)
		if r := stats.Replication; r != nil {
			fmt.Printf("wispd: replication — %d pushed, %d dropped, %d fetched, %d fetch misses\n",
				r.Replicated, r.Dropped, r.Fetched, r.FetchMiss)
		}
		if *metrics {
			fmt.Print(stats.Text())
		}
	}
}

// dialPeer opens a replication connection, resolving @FILE peer entries
// to the address in FILE at dial time — re-read on every redial, so a
// peer that restarts on a new port is found again.
func dialPeer(addr string) (replica.Conn, error) {
	if strings.HasPrefix(addr, "@") {
		b, err := os.ReadFile(addr[1:])
		if err != nil {
			return nil, fmt.Errorf("resolving peer %s: %w", addr, err)
		}
		resolved := strings.TrimSpace(string(b))
		if resolved == "" {
			return nil, fmt.Errorf("peer file %s is empty", addr[1:])
		}
		addr = resolved
	}
	return wire.Dial(addr)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wispd:", err)
	os.Exit(1)
}
