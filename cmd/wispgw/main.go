// Command wispgw is the cluster routing tier: it fronts N wispd backends
// (their -listen-wire ports) behind one serving address, giving
// resumption traffic consistent-hash session affinity, spreading fresh
// handshakes with power-of-two-choices over per-node backlog-cost EWMAs
// (fed by the load figure piggybacked on every wire response), ejecting
// failing backends and retrying around them.
//
// It serves both protocols a single wispd serves — the binary wire
// protocol on -listen-wire and HTTP on -addr — so clients cannot tell a
// routing tier from one node.
//
// Usage:
//
//	wispgw -backends host:p1,host:p2,... [-addr 127.0.0.1:9411]
//	       [-listen-wire 127.0.0.1:9412] [-replicas 64] [-max-inflight 128]
//	       [-eject-after 2] [-eject-for 2s] [-node-retries -1] [-seed 1]
//	       [-coroute-rsa=true] [-coroute-factor 2.0]
//	       [-metrics] [-addrfile PATH] [-wire-addrfile PATH] [-drain 30s]
//
// SIGINT/SIGTERM drains: new requests are refused with reason "draining"
// while in-flight ones finish on their backends, then the process exits.
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

	"wisp/internal/gwroute"
	"wisp/internal/serve"
	"wisp/internal/wire"
)

func main() {
	backends := flag.String("backends", "", "comma-separated wispd wire addresses (required)")
	addr := flag.String("addr", "127.0.0.1:9411", "HTTP listen address (port 0 picks a free port)")
	listenWire := flag.String("listen-wire", "127.0.0.1:9412", "binary wire-protocol listen address (empty = HTTP only; port 0 picks a free port)")
	replicas := flag.Int("replicas", 64, "virtual nodes per backend on the consistent-hash ring")
	maxInflight := flag.Int64("max-inflight", 128, "max concurrently-routed requests per backend")
	ejectAfter := flag.Int("eject-after", 2, "consecutive transport failures before a backend is ejected")
	ejectFor := flag.Duration("eject-for", 2*time.Second, "quarantine after ejection (then half-open probing)")
	nodeRetries := flag.Int("node-retries", -1, "max additional backends tried after a transport failure (-1 = all others)")
	seed := flag.Int64("seed", 1, "determinism seed for power-of-two-choices sampling")
	coRouteRSA := flag.Bool("coroute-rsa", true, "concentrate same-key non-resume rsa-decrypt traffic on one ring-chosen backend (bounded by -coroute-factor)")
	coRouteFactor := flag.Float64("coroute-factor", 2.0, "co-routing load ceiling: spill to p2c when the preferred backend costs more than factor x the cheapest alternative")
	metrics := flag.Bool("metrics", false, "print the wispgw_* text metrics dump on shutdown")
	addrFile := flag.String("addrfile", "", "write the bound HTTP address to this file (for scripts)")
	wireAddrFile := flag.String("wire-addrfile", "", "write the bound wire address to this file (for scripts)")
	drainTimeout := flag.Duration("drain", 30*time.Second, "graceful drain budget on shutdown")
	flag.Parse()

	var addrs []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			addrs = append(addrs, b)
		}
	}
	if len(addrs) == 0 {
		fatal(fmt.Errorf("-backends is required (comma-separated wispd wire addresses)"))
	}
	retries := *nodeRetries
	if retries < 0 {
		retries = len(addrs) - 1
	}

	router, err := gwroute.NewRouter(gwroute.Config{
		Backends:      addrs,
		Replicas:      *replicas,
		MaxInflight:   *maxInflight,
		FailThreshold: *ejectAfter,
		EjectFor:      *ejectFor,
		NodeRetries:   retries,
		Seed:          *seed,
		CoRouteRSA:    *coRouteRSA,
		CoRouteFactor: *coRouteFactor,
		Dial:          func(a string) (serve.Transport, error) { return wire.Dial(a) },
	})
	if err != nil {
		fatal(err)
	}

	httpSrv := serve.NewServer(router)
	bound, err := httpSrv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound.String()), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wispgw: routing over %d backends (%s)\n", len(addrs), strings.Join(addrs, ", "))
	fmt.Printf("wispgw: HTTP on %s\n", bound)

	var wireSrv *wire.Server
	wireErr := make(chan error, 1)
	if *listenWire != "" {
		wireSrv = wire.NewServer(router, wire.ServerConfig{})
		wireBound, err := wireSrv.Listen(*listenWire)
		if err != nil {
			fatal(err)
		}
		if *wireAddrFile != "" {
			if err := os.WriteFile(*wireAddrFile, []byte(wireBound.String()), 0o644); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("wispgw: wire protocol on %s\n", wireBound)
		go func() { wireErr <- wireSrv.Serve() }()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve() }()

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
		fmt.Printf("wispgw: %v — draining...\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := httpSrv.Shutdown(ctx) // marks the router draining first
		cancel()
		if wireSrv != nil {
			if werr := wireSrv.Close(); werr != nil && err == nil {
				err = werr
			}
		}
		stats := router.Stats()
		if cerr := router.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		fmt.Printf("wispgw: drained cleanly (%d routed ok, %d shed, %d errors)\n",
			stats.OK, stats.Shed, stats.Errors)
		if *metrics {
			fmt.Print(stats.Text())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wispgw:", err)
	os.Exit(1)
}
