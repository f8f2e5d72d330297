// Command smokescreend is the Smokescreen profile service daemon: it
// serves degradation-accuracy profiles over HTTP from a content-addressed
// on-disk store, generating missing ones asynchronously on the parallel
// profile engine with request coalescing and bounded-queue backpressure.
//
// Usage:
//
//	smokescreend [-addr :8040] [-store DIR] [-workers N] [-parallelism N]
//	             [-queue N] [-cache-mb N]
//	             [-request-timeout D] [-job-timeout D] [-drain-timeout D]
//	             [-addr-file PATH]
//	             [-fleet-nodes H1:P1,H2:P2,...] [-fleet-self H:P]
//	             [-fleet-replicas R]
//
// Endpoints: POST /v1/profiles, GET /v1/profiles/{key}, GET /v1/jobs/{id},
// DELETE /v1/jobs/{id}, POST /v1/streams, GET /v1/streams/{id},
// DELETE /v1/streams/{id}, GET /v1/ring, GET /healthz, GET /metrics.
// SIGINT/SIGTERM drain gracefully: intake stops, in-flight generations
// finish, streams are cancelled, the store stays consistent.
//
// Every daemon is a fleet node (internal/fleetd). Profile keys are placed
// on a consistent-hash ring over the members of -fleet-nodes (or
// SMOKESCREEND_FLEET_NODES; a fixed 64 virtual nodes per member, so every
// member places keys alike). Empty, the ring holds only this node
// (-fleet-self, default the bound address): every key is its own, and the
// daemon serves each request itself. With more members, requests are
// forwarded to a replica over pooled keep-alive connections, artifacts fan
// out to R replicas with read-repair through
// GET/PUT /v1/internal/profiles/{key}, and every POST that must generate a
// key is routed to the key's first reachable replica, whose job queue
// coalesces it (see DESIGN.md §5.5 and §5.6). Job ids carry the minting
// node's prefix, and /metrics ends with the smokescreend_fleet_* block.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smokescreen/internal/fleetd"
	"smokescreen/internal/server"
	"smokescreen/internal/store"
)

func main() {
	cfg := registerFlags(flag.CommandLine)
	flag.Parse()

	logger := log.New(os.Stderr, "smokescreend: ", log.LstdFlags|log.Lmsgprefix)
	if err := run(*cfg, logger); err != nil {
		logger.Fatal(err)
	}
}

// registerFlags declares the daemon's whole flag set on fs, bound to the
// returned config. TestFlagSet pins the names: a new knob is a reviewed diff.
func registerFlags(fs *flag.FlagSet) *runConfig {
	cfg := &runConfig{}
	fs.StringVar(&cfg.addr, "addr", ":8040", "listen address (host:port; port 0 picks an ephemeral port)")
	fs.StringVar(&cfg.storeDir, "store", ".smokescreen-store", "profile store root directory")
	fs.IntVar(&cfg.workers, "workers", 2, "concurrent generation jobs")
	fs.IntVar(&cfg.parallelism, "parallelism", 0, "worker goroutines per generation (0 = one per CPU)")
	fs.IntVar(&cfg.queueDepth, "queue", 16, "queued generation jobs before POST returns 429")
	fs.Int64Var(&cfg.cacheMB, "cache-mb", 64, "in-memory profile cache budget in MiB (0 disables)")
	fs.DurationVar(&cfg.requestTimeout, "request-timeout", 2*time.Minute, "synchronous POST wait before degrading to 202")
	fs.DurationVar(&cfg.jobTimeout, "job-timeout", 10*time.Minute, "cap on one generation job")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 5*time.Minute, "cap on graceful shutdown")
	fs.StringVar(&cfg.addrFile, "addr-file", "", "write the bound address to this file once listening (for scripts)")
	fs.StringVar(&cfg.fleetNodes, "fleet-nodes", os.Getenv("SMOKESCREEND_FLEET_NODES"), "comma-separated fleet member host:ports; empty means a ring of one, this node (env SMOKESCREEND_FLEET_NODES)")
	fs.StringVar(&cfg.fleetSelf, "fleet-self", "", "this node's identity within -fleet-nodes (default: the bound address)")
	fs.IntVar(&cfg.fleetReplicas, "fleet-replicas", 0, "replicas per profile key (0 = default 2)")
	return cfg
}

type runConfig struct {
	addr, storeDir, addrFile   string
	workers, parallelism       int
	queueDepth                 int
	cacheMB                    int64
	requestTimeout, jobTimeout time.Duration
	drainTimeout               time.Duration

	fleetNodes, fleetSelf string
	fleetReplicas         int
}

func run(cfg runConfig, logger *log.Logger) error {
	st, err := store.Open(cfg.storeDir, store.WithCacheBudget(cfg.cacheMB<<20))
	if err != nil {
		return err
	}
	keys, corrupt := st.Keys()
	logger.Printf("store %s: %d profiles", cfg.storeDir, len(keys))
	for _, err := range corrupt {
		logger.Printf("store warning: %v (will regenerate on demand)", err)
	}

	// Listen before assembling the service: the node's ring identity
	// defaults to the bound address, which only exists once the socket is
	// live.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	logger.Printf("listening on %s", bound)

	// Every daemon is a fleet node. Without -fleet-nodes the ring holds
	// only this node: every key is its own, and it mounts no replication
	// endpoint.
	self := cfg.fleetSelf
	if self == "" {
		self = bound
	}
	nodes := fleetd.ParseNodes(cfg.fleetNodes)
	if len(nodes) == 0 {
		nodes = []string{self}
	}
	// Every generation constant (seed, fractions, correction limit) is
	// core's default or part of the request, so fleet members cannot seal
	// different bytes under one key.
	generator := &server.SystemGenerator{Parallelism: cfg.parallelism}
	node, err := fleetd.NewNode(fleetd.Config{
		Self:      self,
		Nodes:     nodes,
		Replicas:  cfg.fleetReplicas,
		Store:     st,
		Generator: generator,
		Server: server.Config{
			Workers:        cfg.workers,
			QueueDepth:     cfg.queueDepth,
			RequestTimeout: cfg.requestTimeout,
			JobTimeout:     cfg.jobTimeout,
			Logf:           logger.Printf,
		},
		Logf: logger.Printf,
	})
	if err != nil {
		ln.Close()
		return err
	}
	logger.Printf("fleet member %s of %v (replicas=%d)", self, node.Ring().Nodes(), node.Ring().ReplicaCount())

	if cfg.addrFile != "" {
		// Written after the socket is live, so scripts can poll the file
		// and connect without races.
		if err := os.WriteFile(cfg.addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}

	httpSrv := &http.Server{Handler: node.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		logger.Printf("received %v, draining", sig)
	case err := <-serveErr:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	// Stop accepting connections and let in-flight handlers finish, then
	// drain the job queue; store writes are atomic throughout.
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := node.Drain(ctx); err != nil {
		return err
	}
	logger.Printf("drained cleanly")
	return nil
}
