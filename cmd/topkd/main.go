// Command topkd is the multi-tenant HTTP ingest frontend: one listener
// multiplexing many independent ε-Top-k monitors (tenant id →
// topk.Monitor), each created lazily from the per-server defaults below or
// explicitly with a per-tenant JSON config. It is a thin binary over
// internal/serve, which itself consumes only the public topk facade — the
// server path inherits the facade's byte-identical-outputs and
// no-silent-wrong-answers guarantees (TestServeEquivalence pins the
// former; the /v1/{tenant}/cost snapshot exposes the latter as
// "silentInvalid").
//
// Usage:
//
//	topkd [-addr :7070] [-n 64] [-k 4] [-eps 1/8] [-engine lockstep]
//	      [-shards 0] [-monitor approx] [-seed 1] [-faults spec]
//	      [-lazy] [-max-tenants 0] [-max-batch 65536]
//	      [-data-dir DIR] [-fsync always|interval|never] [-snapshot-every 1024]
//
// With -data-dir set the server is durable: every accepted batch is
// journaled to a per-tenant write-ahead log before its step commits, all
// tenants are replayed byte-identically on the next boot, and clients may
// pass ?client=&seq= on updates for exactly-once ingest under retries.
// -fsync picks when appends reach stable storage (lifecycle records are
// always fsynced); -snapshot-every sets the steps between durable
// snapshot sidecars. On graceful shutdown the server drains in-flight
// updates, fsyncs, and closes every log.
//
// The API (see internal/serve for the full route table):
//
//	curl -XPUT localhost:7070/v1/web -d '{"nodes":128,"k":8,"engine":"live"}'
//	curl -XPOST localhost:7070/v1/web/update -d '[{"node":0,"value":500}]'
//	curl localhost:7070/v1/web/topk
//	curl localhost:7070/v1/web/cost
//	curl -N localhost:7070/v1/web/events        # SSE stream
//
// Driving a daemon under load: `go run ./benchmark -workload
// serve-volatile` (or serve-durable) builds and boots its own topkd, drives
// it over loopback and checks it against an embedded monitor every pass.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"topkmon/internal/serve"
	"topkmon/topk"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	n := flag.Int("n", 64, "default nodes per tenant")
	k := flag.Int("k", 4, "default size of the monitored top set")
	epsStr := flag.String("eps", "1/8", "default allowed error ε as a fraction p/q")
	engine := flag.String("engine", "lockstep", "default engine: lockstep | live")
	shards := flag.Int("shards", 0, "default live-engine worker shards (0 = GOMAXPROCS)")
	monitor := flag.String("monitor", "approx",
		"default algorithm: approx|topk|exact|dense|half-eps|naive|mid-naive")
	seed := flag.Uint64("seed", 1, "default random seed")
	faultSpec := flag.String("faults", "",
		"default fault injection: comma list of drop=P, dup=P, delay=P, retries=N, crash=NODE@FROM:UNTIL")
	lazy := flag.Bool("lazy", true, "create unknown tenants from the defaults on first ingest")
	maxTenants := flag.Int("max-tenants", 0, "tenant limit (0 = unlimited)")
	maxBatch := flag.Int("max-batch", 0, "updates per request limit (0 = 65536)")
	dataDir := flag.String("data-dir", "", "write-ahead log directory (empty = volatile, no durability)")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always | interval | never")
	snapEvery := flag.Int("snapshot-every", 0, "committed steps between durable snapshots (0 = 1024)")
	flag.Parse()

	// Validate the default config eagerly — a typo should fail the boot,
	// not the first tenant creation.
	if _, err := topk.ParseEpsilon(*epsStr); err != nil {
		fail(err)
	}
	if _, err := topk.ParseEngine(*engine); err != nil {
		fail(err)
	}
	if _, err := topk.ParseAlgorithm(*monitor); err != nil {
		fail(err)
	}
	plan, err := topk.ParseFaultPlan(*faultSpec)
	if err != nil {
		fail(err)
	}

	srv, err := serve.New(serve.Options{
		Defaults: serve.Config{
			Nodes: *n, K: *k, Eps: *epsStr, Engine: *engine, Shards: *shards,
			Monitor: *monitor, Seed: *seed, Faults: plan,
		},
		Lazy:       *lazy,
		MaxTenants: *maxTenants,
		MaxBatch:   *maxBatch,
		Durability: serve.Durability{Dir: *dataDir, Fsync: *fsync, SnapshotEvery: *snapEvery},
	})
	if err != nil {
		fail(err)
	}
	defer srv.Close()

	hs := &http.Server{Addr: *addr, Handler: srv}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()

	d := srv.Pool().Defaults()
	fmt.Printf("topkd: listening on %s (defaults: n=%d k=%d ε=%s engine=%s monitor=%s seed=%d lazy=%v)\n",
		*addr, d.Nodes, d.K, d.Eps, d.Engine, d.Monitor, d.Seed, *lazy)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	case s := <-sig:
		fmt.Printf("topkd: %v — draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		// Close before reporting the shutdown error: in-flight commits
		// drain tenant by tenant, every log is fsynced and closed, and the
		// data directory is left ready for the next boot (fail() exits
		// without running defers).
		srv.Close()
		if err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "topkd: %v\n", err)
	os.Exit(2)
}
