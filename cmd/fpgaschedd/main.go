// Command fpgaschedd serves the schedulability analyses, the simulator
// and multi-tenant admission control as a JSON HTTP daemon.
//
// Usage:
//
//	fpgaschedd [-addr :8080] [-workers 8] [-cache 4096] [-max-body 1048576]
//	fpgaschedd -state-dir /var/lib/fpgasched [-fsync always|interval|never]
//	fpgaschedd -self a -peers a=http://h1:8080,b=http://h2:8080 [-peer-timeout 2s]
//
// The second form adds durability: every controller mutation (create,
// admit, release, delete, on both the 1-D and 2-D surfaces) is recorded
// in a CRC-framed write-ahead log under -state-dir, compacted into
// snapshots as it grows, and replayed on the next start — a crashed
// daemon comes back with its resident sets byte-identical (DESIGN.md
// "Durability"). /readyz reports 503 not_ready until replay finishes,
// and a disk-write failure degrades the controllers to read-only
// (mutations answer 503 store_failed) instead of crashing the daemon.
//
// The second form starts the daemon as one shard of a static fleet:
// verdict-cache ownership is consistent-hashed over the peer names
// (DESIGN.md "Cluster topology"), non-owners fetch memoized verdicts
// from the owner over POST /v1/cache/lookup, and dead or slow peers
// degrade each node to its single-node behaviour. Every fleet member
// must be started with the same -peers list (URLs may differ in
// spelling, the names are what must agree).
//
// Endpoints (the wire contract lives in the api package; see DESIGN.md
// "API v1 contract" for payload shapes and error codes):
//
//	GET    /healthz
//	GET    /readyz
//	GET    /metrics
//	POST   /v1/cache/lookup
//	GET    /v1/tests
//	POST   /v1/analyze
//	POST   /v1/analyze/stream
//	POST   /v1/simulate
//	POST   /v1/simulate/trace
//	POST   /v1/placement/check
//	GET    /v1/placement/controllers
//	PUT    /v1/placement/controllers/{name}
//	DELETE /v1/placement/controllers/{name}
//	POST   /v1/placement/controllers/{name}/admit
//	DELETE /v1/placement/controllers/{name}/tasks/{task}
//	GET    /v1/placement/controllers/{name}/resident
//	GET    /v1/controllers
//	PUT    /v1/controllers/{name}
//	DELETE /v1/controllers/{name}
//	POST   /v1/controllers/{name}/admit
//	DELETE /v1/controllers/{name}/tasks/{task}
//	GET    /v1/controllers/{name}/resident
//	POST   /v1/experiments
//	GET    /v1/experiments
//	GET    /v1/experiments/{id}
//	DELETE /v1/experiments/{id}
//	GET    /v1/experiments/{id}/stream
//
// The /v1/experiments endpoints run the paper's Section 6 evaluation
// (and the ablation catalogue) as cancellable background jobs with
// NDJSON progress streaming; `experiments -remote` is the CLI front
// end. /v1/simulate/trace streams one simulation's scheduler events as
// NDJSON (`simtrace -remote` renders them); the /v1/placement
// endpoints serve the 2-D extension's feasibility check and stateful
// rectangle admission. The official Go SDK for this API is the client
// package.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: /readyz flips to
// 503 not_ready first (so load balancers and fleet peers stop routing
// new work here), then in-flight requests drain for up to the -drain
// timeout. Per-request cancellation is separate: a client that
// disconnects mid-request abandons its queued analyses inside the
// engine.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fpgasched/internal/cluster"
	"fpgasched/internal/durable"
	"fpgasched/internal/engine"
	"fpgasched/internal/jobs"
	"fpgasched/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], nil))
}

// run starts the daemon. If ready is non-nil it receives the bound
// address once the listener is up (used by tests to avoid port races).
func run(args []string, ready chan<- string) int {
	fs := flag.NewFlagSet("fpgaschedd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", engine.DefaultWorkers, "analysis worker pool size")
	sweepWorkers := fs.Int("sweep-workers", 0, "per-analysis λ-sweep parallelism (0 serial, -1 all CPUs); CPU use is up to workers x sweep-workers")
	cache := fs.Int("cache", engine.DefaultCacheSize, "verdict cache entries (negative disables)")
	maxBody := fs.Int64("max-body", server.DefaultMaxBodyBytes, "request body limit in bytes (negative disables)")
	maxTasks := fs.Int("max-tasks", server.DefaultMaxTasks, "tasks per analysed/simulated set (negative disables)")
	maxBatch := fs.Int("max-batch", server.DefaultMaxBatch, "taskset x test analyses per request (negative disables)")
	maxControllers := fs.Int("max-controllers", server.DefaultMaxControllers, "named admission controllers (negative disables)")
	maxSimHorizon := fs.Int64("max-sim-horizon", server.DefaultMaxSimHorizon, "simulation horizon limit in time units (negative disables)")
	expSlots := fs.Int("experiment-slots", jobs.DefaultSlots, "concurrently running experiment jobs")
	maxExpJobs := fs.Int("max-experiment-jobs", jobs.DefaultMaxJobs, "retained experiment jobs (live + finished)")
	maxExpSamples := fs.Int("max-experiment-samples", server.DefaultMaxExperimentSamples, "per-bin samples per experiment job (negative disables)")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	self := fs.String("self", "", "this node's name in the fleet (requires -peers)")
	peersFlag := fs.String("peers", "", "fleet members as name=url,... including self (requires -self)")
	peerTimeout := fs.Duration("peer-timeout", cluster.DefaultFetchTimeout, "per-peer cache fetch timeout")
	breakerThreshold := fs.Int("peer-breaker-threshold", cluster.DefaultBreakerThreshold, "consecutive peer failures before the breaker opens")
	breakerCooldown := fs.Duration("peer-breaker-cooldown", cluster.DefaultBreakerCooldown, "breaker cooldown before re-probing a failed peer")
	stateDir := fs.String("state-dir", "", "directory for the durable controller store (empty disables persistence)")
	fsyncFlag := fs.String("fsync", "interval", "WAL fsync policy: always, interval or never (requires -state-dir)")
	fsyncInterval := fs.Duration("fsync-interval", durable.DefaultFsyncInterval, "flush period under -fsync interval")
	snapshotBytes := fs.Int64("snapshot-bytes", durable.DefaultSnapshotBytes, "WAL size that triggers snapshot compaction")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *workers < 1 {
		fmt.Fprintln(os.Stderr, "fpgaschedd: -workers must be at least 1")
		return 2
	}
	fsync, err := durable.ParseFsyncPolicy(*fsyncFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpgaschedd: -fsync: %v\n", err)
		return 2
	}
	var fleet *cluster.Fleet
	if (*self == "") != (*peersFlag == "") {
		fmt.Fprintln(os.Stderr, "fpgaschedd: -self and -peers must be given together")
		return 2
	}
	if *peersFlag != "" {
		peers, err := cluster.ParsePeers(*peersFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fpgaschedd: -peers: %v\n", err)
			return 2
		}
		if fleet, err = cluster.New(cluster.Config{
			Self:             *self,
			Peers:            peers,
			FetchTimeout:     *peerTimeout,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "fpgaschedd: %v\n", err)
			return 2
		}
	}

	srv := server.New(server.Config{
		Fleet:                fleet,
		EngineConfig:         engine.Config{Workers: *workers, CacheSize: *cache, SweepWorkers: *sweepWorkers},
		MaxBodyBytes:         *maxBody,
		MaxTasks:             *maxTasks,
		MaxBatch:             *maxBatch,
		MaxControllers:       *maxControllers,
		MaxSimHorizon:        *maxSimHorizon,
		MaxExperimentSamples: *maxExpSamples,
		ExperimentSlots:      *expSlots,
		MaxExperimentJobs:    *maxExpJobs,
		// With a state directory the daemon is born not-ready: the
		// listener comes up first (so probes see an honest 503 while
		// recovery replays) and MarkReady flips only after Restore.
		StartNotReady: *stateDir != "",
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpgaschedd: %v\n", err)
		return 1
	}
	// Read/Write/Idle timeouts complement the payload caps: size limits
	// bound bytes, these bound time, so slow-trickle clients cannot pin
	// a goroutine per connection indefinitely.
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		// Generous: a max-tasks GN2 analysis can legitimately run for
		// on the order of a minute; the analysis caps, not this, bound
		// the work. This only cuts off stuck writers.
		WriteTimeout: 5 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}

	// Install the signal handler before announcing readiness: a
	// supervisor may SIGTERM the moment it sees the ready signal, and
	// that must drain, not kill.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	if fleet != nil {
		log.Printf("fpgaschedd: serving on %s as fleet member %q of %v (workers=%d cache=%d)",
			ln.Addr(), fleet.Self(), fleet.Members(), *workers, *cache)
	} else {
		log.Printf("fpgaschedd: serving on %s (workers=%d cache=%d)", ln.Addr(), *workers, *cache)
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	// Recover controller state after the listener is up: /healthz and
	// the stateless analysis surfaces serve during replay, /readyz and
	// the controller surfaces answer 503 not_ready until MarkReady.
	if *stateDir != "" {
		store, err := durable.Open(durable.Options{
			Dir:           *stateDir,
			Fsync:         fsync,
			FsyncInterval: *fsyncInterval,
			SnapshotBytes: *snapshotBytes,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fpgaschedd: opening state dir %s: %v\n", *stateDir, err)
			return 1
		}
		defer store.Close()
		if err := srv.Restore(store.State()); err != nil {
			fmt.Fprintf(os.Stderr, "fpgaschedd: restoring controllers: %v\n", err)
			return 1
		}
		srv.AttachStore(store)
		srv.MarkReady()
		m := store.Metrics()
		log.Printf("fpgaschedd: recovered state from %s (replayed=%d skipped=%d truncated_bytes=%d fsync=%s) in %s",
			*stateDir, m.ReplayedRecords, m.ReplaySkipped, m.ReplayTruncatedBytes, fsync, time.Duration(m.ReplayNanos))
	}

	select {
	case sig := <-stop:
		log.Printf("fpgaschedd: %v, draining", sig)
		// Flip readiness before draining so probes and fleet clients
		// stop routing new work here while Shutdown waits out the
		// in-flight requests.
		srv.SetDraining()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("fpgaschedd: shutdown: %v", err)
			return 1
		}
		return 0
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "fpgaschedd: %v\n", err)
			return 1
		}
		return 0
	}
}
