// Command twca-serve runs the TWCA analysis service: a long-running
// HTTP/JSON daemon that accepts system descriptions (native JSON or the
// DSL), runs the latency / deadline-miss-model / weakly-hard analyses
// and answers dmm(k) and breakpoint-sweep queries over a versioned API.
//
// Usage:
//
//	twca-serve [-addr :8443] [-cache 128] [-inflight 0] [-timeout 30s] [-drain 30s] [-faults spec] [-pprof]
//	           [-self URL -peers URL,URL,...] [-heartbeat 2s]
//
// Endpoints (see docs/SERVICE.md for the full reference and a worked
// curl session):
//
//	POST /v1/analyze/dmm          deadline miss model of one chain
//	POST /v1/analyze/latency      worst-case end-to-end latency of one chain
//	POST /v1/analyze/sensitivity  sensitivity queries (slack, jitter, frontiers)
//	POST /v1/verify               weakly-hard (m, k) constraints
//	POST /v1/campaign             many systems, NDJSON-streamed results
//	GET  /v1/cluster              membership view with peer health
//	GET  /healthz                 liveness
//	GET  /metrics                 Prometheus text exposition
//
// Request options carry a "policy" field selecting the scheduling
// policy ("spp" — the default, "np-spp", "edf"); the simulation-only
// "jcl" policy is refused with 422 policy_unsupported.
//
// Identical concurrent queries are coalesced into one analysis, and
// completed analyses are kept in a content-addressed LRU, so a repeat
// query is answered in microseconds. With -self/-peers, a fleet of
// replicas shards that artifact tier by consistent hashing on the
// system's canonical hash: the replica owning a system computes and
// caches its artifacts exactly once fleet-wide while the others relay.
// The peer list is fixed at start-up; to change it, restart the
// replicas with the new -peers. A jittered -heartbeat loop probes peer
// /healthz and is the one detector of dead or draining replicas: a
// failed relay reports its peer to it, and a peer stays out of routing
// until a probe finds it alive. Relays retry the next ring arc with
// backoff and fall back to local compute when every arc is exhausted —
// duplicated work at worst, never a wrong-side bound.
// SIGINT/SIGTERM drain gracefully:
// new analysis requests are refused with 503 + Retry-After, in-flight
// ones get the -drain window to finish, and stragglers are canceled
// cooperatively before the listener closes.
//
// For chaos testing, the deterministic fault-injection harness can be
// armed with -faults or the TWCA_FAULTS environment variable (see
// internal/faultinject.ParseSpec for the rule grammar); the armed plan
// is logged at startup so an injected fault is never a silent surprise.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "twca-serve: %v\n", err)
		os.Exit(1)
	}
}

// run executes the daemon; factored out of main for testability. It
// returns once the listener is closed and in-flight requests are done.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("twca-serve", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", ":8443", "listen address")
	cacheSize := fs.Int("cache", 128, "retained analysis artifacts (LRU); also bounds the system-hash memo")
	inflight := fs.Int("inflight", 0, "max concurrent analyses (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request analysis deadline")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown window for in-flight analyses")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	self := fs.String("self", "", "this replica's base URL in -peers (enables the sharded fleet tier)")
	peers := fs.String("peers", "", "comma-separated replica base URLs (scheme://host:port), including -self; fixed until restart")
	maxCampaign := fs.Int("max-campaign-items", 0, "max systems per /v1/campaign request (0 = 1024)")
	heartbeat := fs.Duration("heartbeat", 0, "peer health-probe interval (0 = 2s)")
	faults := fs.String("faults", os.Getenv("TWCA_FAULTS"),
		"arm the fault-injection harness (rule spec, see internal/faultinject; default $TWCA_FAULTS)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}

	if *faults != "" {
		if err := faultinject.ConfigureSpec(*faults); err != nil {
			return err
		}
		// An armed harness must never be silent: log every rule.
		fmt.Fprintln(stdout, faultinject.Describe())
	}

	svc, err := service.New(service.Config{
		CacheSize:         *cacheSize,
		RequestTimeout:    *timeout,
		MaxInflight:       *inflight,
		EnablePprof:       *pprofFlag,
		DrainTimeout:      *drain,
		Self:              *self,
		Peers:             peerList,
		MaxCampaignItems:  *maxCampaign,
		HeartbeatInterval: *heartbeat,
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	if len(peerList) > 1 {
		fmt.Fprintf(stdout, "twca-serve fleet: self %s, %d peers\n", *self, len(peerList))
	}

	// Catch shutdown signals before announcing the listener, so a SIGINT
	// arriving at any point after "listening on" drains gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "twca-serve listening on %s\n", ln.Addr())

	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "twca-serve shutting down")
	// Drain in three stages: refuse new analysis requests immediately
	// (503 + Retry-After), give in-flight ones the -drain window to
	// finish, then hard-cancel the stragglers — their requests also
	// answer 503, and a retry hits a healthy instance.
	svc.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		fmt.Fprintf(stdout, "twca-serve drain window (%v) expired, canceling in-flight analyses\n", *drain)
		svc.Close()
		finalCtx, cancelFinal := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelFinal()
		if err := httpSrv.Shutdown(finalCtx); err != nil {
			return httpSrv.Close()
		}
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
