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
//	       [-addrfile PATH] [-listen-wire 127.0.0.1:9412]
//	       [-wire-addrfile PATH] [-seed 1] [-drain 30s] [-metrics]
//
// The routing knobs run at gwroute's defaults: 64 ring replicas per
// backend, 128 in-flight requests per backend, ejection after 2
// consecutive transport failures for 2 s, retries over every other
// backend, and same-key rsa-decrypt co-routing bounded at 2x the
// cheapest alternative's cost.
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
	seed := flag.Int64("seed", 1, "determinism seed for power-of-two-choices sampling")
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

	router, err := gwroute.NewRouter(gwroute.Config{
		Backends:   addrs,
		Seed:       *seed,
		CoRouteRSA: true,
		Dial:       func(a string) (serve.Transport, error) { return wire.Dial(a) },
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
