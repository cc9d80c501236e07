// Command mqo-serve exposes the batched solve service over HTTP/JSON —
// standalone, or as one node of a distributed solve cluster.
//
// Roles:
//
//	-role standalone   one self-contained solve node (the default)
//	-role worker       a solve node meant to sit behind a router
//	-role router       a front-end that owns no solver: it hashes each
//	                   problem's fingerprint onto a consistent-hash ring
//	                   of workers and forwards the request to the owner
//
// Usage:
//
//	# standalone
//	mqo-serve -addr :8333 -batch-window 10ms -cache-capacity 256
//
//	# a three-node cluster on one machine
//	mqo-serve -role worker -addr :8341 &
//	mqo-serve -role worker -addr :8342 &
//	mqo-serve -role router -addr :8333 \
//	  -peers http://localhost:8341,http://localhost:8342 &
//
//	# a worker can also join a running router at startup
//	mqo-serve -role worker -addr :8343 \
//	  -advertise http://localhost:8343 -register-with http://localhost:8333
//
//	# solve an instance (same request either way: router or node)
//	mqo-gen -queries 20 -plans 2 > inst.json
//	jq -n --slurpfile p inst.json '{problem: $p[0], solver: "qa", seed: 7, budget: "20ms"}' \
//	  | curl -s -d @- localhost:8333/solve
//
//	# stream anytime incumbents as NDJSON while the solve runs
//	jq -n --slurpfile p inst.json '{problem: $p[0], solver: "climb", budget: "2s"}' \
//	  | curl -sN -d @- 'localhost:8333/solve?stream=1'
//
//	# service and cache counters
//	curl -s localhost:8333/stats
//
//	# create an incremental session (epoch 0 solves from scratch; every
//	# later delta warm-starts from the previous incumbent)
//	curl -s localhost:8333/session -d '{
//	  "config": {"seed": 7, "window_queries": 8},
//	  "delta": {"add_queries": [{"id": "q1", "costs": [3, 4]},
//	                            {"id": "q2", "costs": [2, 5]}],
//	            "add_savings": [{"q1": "q1", "p1": 0, "q2": "q2", "p2": 0, "value": 2}]}}'
//
//	# apply a delta to it, streaming the epoch's anytime incumbents
//	curl -sN -d '{"delta": {"add_queries": [{"id": "q3", "costs": [1, 6]}]}}' \
//	  'localhost:8333/session/<id>/delta?stream=1'
//
//	# fetch its replayable event log (a full backup: POSTing it back as
//	# {"log": "..."} re-creates the session bit for bit)
//	curl -s localhost:8333/session/<id>/log
//
// Endpoints (standalone and worker):
//
//	POST /solve               one solve request; ?stream=1 for NDJSON streaming
//	POST /session             create a session from an initial delta or event log
//	POST /session/{id}/delta  apply one delta; ?stream=1 streams incumbents
//	GET  /session/{id}        session summary
//	GET  /session/{id}/log    replayable NDJSON event log
//	DELETE /session/{id}      evict the session
//	GET  /sessions            resident session IDs
//	GET  /stats               service + cache + admission counters
//	GET  /model               the autotune scheduler model (404 without -autotune)
//	GET  /healthz             liveness probe
//
// Endpoints (router):
//
//	POST /solve       routed to the owning worker (streaming passes through)
//	POST /session     routed by the initial problem fingerprint; the same
//	                  key is embedded in the session ID, so every later
//	                  /session/{id} call lands on the same owner
//	ANY  /session/{id}...  routed by the key parsed from the ID
//	POST /register    {"url": "http://host:port"} joins a worker
//	GET  /ring        current membership
//	GET  /stats       per-worker counters fetched live from every alive
//	                  peer, plus their sums
//	GET  /healthz     liveness probe
//
// Admission control: every node bounds concurrent requests
// (-max-concurrent) and queued requests (-queue); beyond both bounds it
// sheds immediately with 429 Too Many Requests and a Retry-After header
// (-retry-after) instead of letting a backlog grow. Request bodies are
// bounded (-max-body, 413 beyond), and decoding is strict: unknown
// fields and trailing data are 400s. A connection whose request headers
// take longer than 10 s to arrive is closed.
//
// SIGINT/SIGTERM triggers a graceful shutdown: listeners close, in-flight
// requests get -shutdown-timeout to finish, then the service drains.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/mqopt"
	"repro/mqopt/cluster"
	"repro/mqopt/solverreg"
)

// Admission defaults: well above the solver-parallelism bound, because
// an admitted request may spend its life parked in the service's
// batching window (cheap) rather than solving (expensive) — admission
// bounds in-flight work and memory, not CPU.
const (
	defaultMaxConcurrent = 64
	defaultMaxQueue      = 256
)

func main() {
	role := flag.String("role", "standalone", "standalone, worker, or router")
	addr := flag.String("addr", ":8333", "listen address")

	// Node (standalone/worker) flags.
	window := flag.Duration("batch-window", 10*time.Millisecond,
		"admission-batching window (0 disables batching; results are identical either way)")
	capacity := flag.Int("cache-capacity", 256, "compilation cache capacity (compiled shapes)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent solves service-wide")
	maxConcurrent := flag.Int("max-concurrent", defaultMaxConcurrent,
		"admission bound: max requests executing at once")
	maxQueue := flag.Int("queue", defaultMaxQueue,
		"admission bound: max requests waiting for a slot (beyond it: 429)")
	retryAfter := flag.Duration("retry-after", time.Second,
		"backoff advertised on 429 responses")
	advertise := flag.String("advertise", "", "this worker's base URL as routers should reach it")
	registerWith := flag.String("register-with", "", "router base URL to join at startup (needs -advertise)")
	autotune := flag.String("autotune", "",
		"self-tuning portfolio model: a JSON artifact to load at boot, or 'fresh' for an empty model; requests opt in with \"autotune\": true, GET /model snapshots the learned state")

	// Router flags.
	peers := flag.String("peers", "", "comma-separated worker base URLs (router role)")
	replicas := flag.Int("replicas", cluster.DefaultReplicas, "virtual points per node on the ring")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "worker health-check period")
	healthTimeout := flag.Duration("health-timeout", time.Second, "single health-probe timeout")

	maxBody := flag.Int64("max-body", cluster.DefaultMaxBody, "max request body bytes (beyond it: 413)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second,
		"grace period for in-flight requests on SIGINT/SIGTERM")
	flag.Parse()

	switch *role {
	case "standalone", "worker":
		var model *mqopt.TuneModel
		if *autotune != "" {
			if *autotune == "fresh" {
				model = mqopt.NewTuneModel()
			} else {
				var err error
				if model, err = mqopt.LoadTuneModel(*autotune); err != nil {
					log.Fatalf("mqo-serve: -autotune: %v", err)
				}
				st := model.Stats()
				log.Printf("mqo-serve: autotune model %s: %d classes, %d observations, fingerprint %016x",
					*autotune, st.Classes, st.Observations, st.Fingerprint)
			}
		}
		defaults := []mqopt.Option{
			mqopt.WithCache(mqopt.NewCache(*capacity)),
			mqopt.WithBatchWindow(*window),
			mqopt.WithParallelism(*parallel),
		}
		if model != nil {
			// The service default model: "autotune": true requests learn
			// into it, and GET /model snapshots exactly this state.
			defaults = append(defaults, mqopt.WithAutoTune(model))
		}
		svc, err := mqopt.NewService(solverreg.New, defaults...)
		if err != nil {
			log.Fatalf("mqo-serve: %v", err)
		}
		node, err := cluster.NewNode(cluster.NodeConfig{
			Name:               *advertise,
			Service:            svc,
			MaxConcurrent:      *maxConcurrent,
			MaxQueue:           *maxQueue,
			RetryAfter:         *retryAfter,
			MaxBody:            *maxBody,
			SessionParallelism: *parallel,
			Model:              model,
		})
		if err != nil {
			log.Fatalf("mqo-serve: %v", err)
		}
		if *registerWith != "" {
			if *advertise == "" {
				log.Fatalf("mqo-serve: -register-with needs -advertise")
			}
			if err := register(*registerWith, *advertise); err != nil {
				log.Fatalf("mqo-serve: joining %s: %v", *registerWith, err)
			}
			log.Printf("mqo-serve: registered %s with %s", *advertise, *registerWith)
		}
		log.Printf("mqo-serve: %s node on %s (batch window %v, cache capacity %d, admission %d+%d)",
			*role, *addr, *window, *capacity, *maxConcurrent, *maxQueue)
		serve(*addr, node.Handler(), *shutdownTimeout, func() {
			if err := svc.Close(); err != nil {
				log.Printf("mqo-serve: closing service: %v", err)
			}
		})

	case "router":
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		rt := cluster.NewRouter(cluster.RouterConfig{
			Peers:          peerList,
			Replicas:       *replicas,
			HealthInterval: *healthInterval,
			HealthTimeout:  *healthTimeout,
			MaxBody:        *maxBody,
		})
		rt.Start()
		log.Printf("mqo-serve: router on %s over %d peer(s), health every %v",
			*addr, len(peerList), *healthInterval)
		serve(*addr, rt.Handler(), *shutdownTimeout, rt.Close)

	default:
		log.Fatalf("mqo-serve: unknown -role %q (want standalone, worker, or router)", *role)
	}
}

// readHeaderTimeout bounds how long a request's headers may take to
// arrive, so a client that stalls mid-header cannot hold its connection
// and goroutine forever. On a kept-alive connection net/http starts the
// timer at the next request's first bytes, so idle connections are
// unaffected. ReadTimeout stays unset: its deadline would outlive the
// headers, and when it fired net/http would cancel the request context
// of a long solve still running in the handler.
const readHeaderTimeout = 10 * time.Second

// newServer returns the HTTP server for one role's handler.
func newServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
}

// serve runs one HTTP server until SIGINT/SIGTERM, then shuts down
// gracefully and calls cleanup.
func serve(addr string, handler http.Handler, grace time.Duration, cleanup func()) {
	server := newServer(addr, handler)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()

	select {
	case err := <-errc:
		log.Fatalf("mqo-serve: %v", err)
	case <-ctx.Done():
	}
	log.Printf("mqo-serve: shutting down (up to %v for in-flight requests)", grace)
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := server.Shutdown(sctx); err != nil {
		log.Printf("mqo-serve: forced shutdown: %v", err)
	}
	cleanup()
	log.Printf("mqo-serve: drained")
}

// register joins a router's membership at startup.
func register(router, self string) error {
	body, err := json.Marshal(map[string]string{"url": self})
	if err != nil {
		return err
	}
	resp, err := http.Post(router+"/register", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("register: status %s", resp.Status)
	}
	return nil
}

// Wire-schema aliases, kept for tests and for readers coming from the
// pre-cluster single-file server: the schema now lives with the cluster
// package so router and worker stay in lockstep.
type (
	solveResponse = cluster.SolveResponse
	statsResponse = cluster.StatsResponse
)

// newHandler builds the standalone HTTP surface over one service with
// the default admission bounds (the shape the tests exercise).
func newHandler(svc *mqopt.Service) http.Handler {
	node, err := cluster.NewNode(cluster.NodeConfig{
		Service:            svc,
		MaxConcurrent:      defaultMaxConcurrent,
		MaxQueue:           defaultMaxQueue,
		SessionParallelism: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		panic(err) // unreachable: svc is non-nil
	}
	return node.Handler()
}
