// Command helios-frontend runs the Helios front-end node: it routes graph
// updates into the broker and inference requests to the serving worker
// owning each seed (§4.1), exposed as an HTTP gateway.
//
// Usage:
//
//	helios-frontend -config cluster.json -broker 127.0.0.1:7070 \
//	    -servers 127.0.0.1:7081,127.0.0.1:7082 -listen 127.0.0.1:8080
//
// With "replicas": R in the config, -servers takes Servers×R addresses in
// partition-major order (all replicas of partition 0 first); the frontend
// fails over between the replicas of a partition and probes dead ones back
// in.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"helios/internal/coord"
	"helios/internal/deploy"
	"helios/internal/faultpoint"
	"helios/internal/frontend"
	"helios/internal/monitor"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/rpc"
)

// busConn is the piece of *mq.RemoteBroker and *mq.Cluster the frontend
// uses: queue traffic plus the control connection telemetry rides on.
type busConn interface {
	mq.Bus
	Client() *rpc.Client
}

// dialBus connects to the queue tier: a replicated cluster when brokers
// lists the replica set (ingest survives a broker leader failover via the
// cluster client's re-resolution), else the single broker at brokerAddr.
func dialBus(brokers, brokerAddr string) (busConn, error) {
	if brokers != "" {
		return mq.DialCluster(strings.Split(brokers, ","), "", 0)
	}
	return mq.DialBroker(brokerAddr, 0)
}

func main() {
	configPath := flag.String("config", "cluster.json", "shared cluster configuration file")
	brokerAddr := flag.String("broker", "127.0.0.1:7070", "broker RPC address")
	brokers := flag.String("brokers", "", "comma-separated broker replica addresses (overrides -broker; first entry hosts the failover controller)")
	servers := flag.String("servers", "", "comma-separated serving worker RPC addresses, partition-major (see replicas)")
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
	id := flag.Int("id", 0, "this frontend's index (names it in the cluster view)")
	telemetryEvery := flag.Duration("telemetry-every", 5*time.Second, "telemetry snapshot cadence, which is also this gateway's lease cadence (0 = no telemetry and no lease)")
	probeEvery := flag.Duration("probe-every", time.Second, "health-probe interval for unhealthy serving replicas")
	requestTimeout := flag.Duration("request-timeout", 0, "end-to-end deadline budget per sampling request (0 = config's overload.requestTimeoutMs, or none)")
	maxInflight := flag.Int("max-inflight", 0, "admitted concurrent sampling requests (0 = config's overload.maxInflight, or unlimited)")
	maxQueue := flag.Int("max-queue", 0, "sampling requests queued for admission (0 = config's overload.maxQueue, or 4×max-inflight)")
	maxIngestLag := flag.Int64("max-ingest-lag", 0, "shed ingestion once a partition's updates backlog exceeds this (0 = config's overload.maxIngestLag, or unlimited)")
	lagProbeEvery := flag.Duration("lag-probe-every", 250*time.Millisecond, "how often to refresh the cached per-partition ingest backlog")
	batchMax := flag.Int("batch-max", 1, "coalesce up to this many concurrent samples per serving partition into one RPC (<=1 = disabled)")
	batchLinger := flag.Duration("batch-linger", time.Millisecond, "max time a coalesced sample waits for batchmates before the batch is sent")
	faults := flag.String("faultpoints", "", "arm deterministic fault injection, e.g. rpc.dial=error (chaos drills)")
	opsAddr := flag.String("ops-addr", "", "serve /metrics, /traces, /slo and pprof on this address (empty = disabled)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	slowLog := flag.Duration("slow-log", 0, "log traced samples slower than this with their worst stage (0 = the SLO target)")
	sloTarget := flag.Duration("slo-target", 0, "sample-latency SLO target (0 = 250ms default)")
	sloWindow := flag.Duration("slo-window", 0, "SLO burn-rate window (0 = 1m default)")
	flag.Parse()

	lv, ok := obs.ParseLevel(*logLevel)
	if !ok {
		log.Fatalf("helios-frontend: unknown -log-level %q", *logLevel)
	}
	logger := obs.NewLogger(os.Stderr, "frontend")
	logger.SetLevel(lv)
	logger.KeepTail(32)

	if err := faultpoint.ArmSpec(*faults); err != nil {
		log.Fatalf("helios-frontend: %v", err)
	}
	obs.RegisterBuildInfo(obs.Default(), "helios-frontend", nil)
	cfg, err := deploy.Load(*configPath)
	if err != nil {
		log.Fatalf("helios-frontend: %v", err)
	}
	addrs := strings.Split(*servers, ",")
	if *servers == "" {
		log.Fatalf("helios-frontend: -servers is required")
	}
	bus, err := dialBus(*brokers, *brokerAddr)
	if err != nil {
		log.Fatalf("helios-frontend: dial broker: %v", err)
	}
	defer bus.Close()

	fe, err := frontend.New(cfg, bus, addrs)
	if err != nil {
		log.Fatalf("helios-frontend: %v", err)
	}
	defer fe.Close()
	fe.SetProbeInterval(*probeEvery)
	fe.UseObs(nil, obs.Default(), obs.DefaultTracer())
	if *sloTarget > 0 || *sloWindow > 0 {
		fe.SetSLO(*sloTarget, 0, *sloWindow)
	}
	fe.SetLogger(logger, *slowLog)
	o := frontend.Overload{
		RequestTimeout: *requestTimeout,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		MaxIngestLag:   *maxIngestLag,
		LagProbeEvery:  *lagProbeEvery,
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = time.Duration(cfg.File.Overload.RequestTimeoutMS) * time.Millisecond
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = cfg.File.Overload.MaxInflight
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = cfg.File.Overload.MaxQueue
	}
	if o.MaxIngestLag == 0 {
		o.MaxIngestLag = cfg.File.Overload.MaxIngestLag
	}
	fe.SetOverload(o)
	fe.SetBatching(*batchMax, *batchLinger)
	ops, err := obs.ServeDefault(*opsAddr)
	if err != nil {
		log.Fatalf("helios-frontend: ops listener: %v", err)
	}
	defer ops.Close()
	if ops != nil {
		log.Printf("helios-frontend: ops on %s", ops.Addr())
	}
	if *telemetryEvery > 0 {
		// The frontend owns no partition; its snapshots carry the gateway
		// SLO burn and worst traces the flight recorder captures on.
		reporter := monitor.NewReporter(monitor.ReporterConfig{
			Name:     fmt.Sprintf("frontend-%d", *id),
			Kind:     string(coord.KindFrontend),
			Every:    *telemetryEvery,
			Registry: obs.Default(),
			Tracer:   obs.DefaultTracer(),
			LogTail:  logger.Tail,
			Sink:     monitor.NewClient(bus.Client(), 0),
			Logger:   logger,
		})
		reporter.Start()
		defer reporter.Stop()
	}

	log.Printf("helios-frontend: HTTP on %s routing to %d serving workers", *listen, len(addrs))
	log.Fatal(http.ListenAndServe(*listen, fe.Handler()))
}
