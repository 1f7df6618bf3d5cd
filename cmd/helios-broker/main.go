// Command helios-broker runs the durable queue service all Helios stages
// communicate through (the Kafka role of §4.1), plus the coordinator's
// control surface: workers report telemetry snapshots over the same
// reconnecting connection they use for queue traffic, each snapshot
// renewing the worker's lease, and the aggregated cluster view is served
// at GET /cluster on the ops listener.
//
// Usage:
//
//	helios-broker -listen 127.0.0.1:7070 [-dir /var/lib/helios] [-retain 1000000]
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"helios/internal/actor"
	"helios/internal/coord"
	"helios/internal/faultpoint"
	"helios/internal/monitor"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/rpc"
	"helios/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "address to serve the broker RPC on")
	dir := flag.String("dir", "", "directory for durable log segments (empty = memory only)")
	retain := flag.Int("retain", 0, "records retained per partition (0 = unbounded)")
	replicas := flag.String("replicas", "", "comma-separated RPC addresses of all broker replicas (empty = unreplicated); index-aligned across the set")
	self := flag.Int("self", 0, "this broker's index into -replicas")
	quorum := flag.Int("quorum", 0, "replicas (leader included) that must hold an append before it is acked (0 = majority)")
	fsyncMode := flag.String("fsync", "interval", "segment durability before ack: never, interval (every -sync-every appends), always")
	syncEvery := flag.Int("sync-every", 0, "appends between fsyncs under -fsync interval (0 = 4096 default)")
	replReportEvery := flag.Duration("repl-report-every", 500*time.Millisecond, "replication-status report cadence: the cadence of this replica's lease at the failover controller (replica 0), whose partitions fail over after 6 missed reports")
	batchMax := flag.Int("batch-max", 0, "largest record batch accepted by one AppendBatch RPC (0 = 4096 default)")
	maxIngestLag := flag.Int64("max-ingest-lag", 0, "refuse appends to the updates topic once a partition's unconsumed backlog exceeds this (0 = unlimited)")
	telemetryEvery := flag.Duration("telemetry-every", 5*time.Second, "this broker's own telemetry cadence, which renews its lease in its own /cluster view, and the death-scan cadence")
	flightDir := flag.String("flight-dir", "", "flight-recorder capture directory (empty = captures disabled)")
	flightKeep := flag.Int("flight-keep", 32, "flight-recorder captures retained on disk")
	faults := flag.String("faultpoints", "", "arm deterministic fault injection, e.g. mq.append=error:injected:3 (chaos drills)")
	opsAddr := flag.String("ops-addr", "", "serve /metrics, /traces, /slo, /cluster and pprof on this address (empty = disabled)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	flag.Parse()

	lv, ok := obs.ParseLevel(*logLevel)
	if !ok {
		log.Fatalf("helios-broker: unknown -log-level %q", *logLevel)
	}
	logger := obs.NewLogger(os.Stderr, "broker")
	logger.SetLevel(lv)
	logger.KeepTail(32)
	if err := faultpoint.ArmSpec(*faults); err != nil {
		log.Fatalf("helios-broker: %v", err)
	}
	obs.RegisterBuildInfo(obs.Default(), "helios-broker", nil)
	fsync, ok := mq.ParseFsyncPolicy(*fsyncMode)
	if !ok {
		log.Fatalf("helios-broker: unknown -fsync %q (want never, interval or always)", *fsyncMode)
	}
	broker := mq.NewBroker(mq.Options{Dir: *dir, RetainRecords: *retain, SyncEvery: *syncEvery, Fsync: fsync, MaxAppendBatch: *batchMax})
	if *maxIngestLag > 0 {
		broker.SetLagBound(wire.TopicUpdates, *maxIngestLag)
	}
	var peers []string
	if *replicas != "" {
		peers = strings.Split(*replicas, ",")
		if err := broker.EnableReplication(mq.ReplicationConfig{Self: *self, Peers: peers, Quorum: *quorum}); err != nil {
			log.Fatalf("helios-broker: %v", err)
		}
	}
	broker.RegisterMetrics(obs.Default())
	rpc.RegisterMetrics(obs.Default())
	coordinator := coord.New(nil)

	var recorder *monitor.FlightRecorder
	if *flightDir != "" {
		var err error
		recorder, err = monitor.NewFlightRecorder(*flightDir, *flightKeep, nil)
		if err != nil {
			log.Fatalf("helios-broker: flight recorder: %v", err)
		}
	}
	collector := monitor.NewCollector(coordinator, monitor.CollectorConfig{
		Interval: *telemetryEvery,
		Registry: obs.Default(),
		Recorder: recorder,
		Logger:   logger,
	})
	collector.Start()
	defer collector.Stop()

	srv := rpc.NewServer()
	mq.ServeBroker(broker, srv)
	monitor.ServeRPC(collector, srv)

	// Replication control plane: every replica serves the follower surface
	// and reports its offsets; replica 0 additionally hosts the failover
	// controller (clients resolve partition maps against it).
	var failover *coord.Failover
	var replLoop *actor.Loop
	if peers != nil {
		mq.ServeReplication(broker, srv)
		if *self == 0 {
			leadClients := make([]*rpc.Client, len(peers))
			for i, addr := range peers {
				if i == 0 {
					continue
				}
				c, err := rpc.DialOpts(addr, rpc.Options{Reconnect: true})
				if err != nil {
					log.Fatalf("helios-broker: dial replica %d: %v", i, err)
				}
				leadClients[i] = c
				defer c.Close()
			}
			failover = coord.NewFailover(coord.FailoverConfig{
				Coordinator: coordinator,
				Peers:       len(peers),
				Logger:      logger,
				Notify: func(peer int, pm mq.PartMap) error {
					if peer == 0 {
						broker.ApplyPartMap(pm)
						return nil
					}
					// A push slower than the lease's whole lifetime is
					// abandoned; the next round retries it.
					return mq.SendLead(leadClients[peer], pm, coord.DeadCadences*(*replReportEvery))
				},
			})
			failover.RegisterMetrics(obs.Default())
			failover.ServeRPC(srv)
			failover.Start(*replReportEvery)
			defer failover.Stop()
			replLoop = actor.Every(*replReportEvery, func() {
				failover.Report(0, *replReportEvery, broker.ReplOffsets())
			})
		} else {
			coordC, err := rpc.DialOpts(peers[0], rpc.Options{Reconnect: true})
			if err != nil {
				log.Fatalf("helios-broker: dial coordinator: %v", err)
			}
			defer coordC.Close()
			replLoop = actor.Every(*replReportEvery, func() {
				//lint:allow droppederror reason=best-effort lease renewal; a missed report just ages the lease until the next one lands
				_ = mq.ReportReplStatus(coordC, *self, *replReportEvery, broker.ReplOffsets())
			})
		}
		defer replLoop.Stop()
	}

	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("helios-broker: %v", err)
	}
	ops, err := obs.ServeDefault(*opsAddr,
		obs.Route{Pattern: "GET /cluster", Handler: collector.Handler()})
	if err != nil {
		log.Fatalf("helios-broker: ops listener: %v", err)
	}
	defer ops.Close()
	if ops != nil {
		logger.Info(0, "mq.lifecycle", "ops listener up", "addr", ops.Addr())
	}

	// The broker reports its own telemetry straight into the collector it
	// hosts, so /cluster shows the coordinator process alongside the
	// workers — under its replica name, the same lease its replication
	// reports renew.
	reporter := monitor.NewReporter(monitor.ReporterConfig{
		Name:     coord.BrokerName(*self),
		Kind:     string(coord.KindBroker),
		Every:    *telemetryEvery,
		Registry: obs.Default(),
		Tracer:   obs.DefaultTracer(),
		LogTail:  logger.Tail,
		Sink:     collector,
		Logger:   logger,
	})
	reporter.Start()
	defer reporter.Stop()
	logger.Info(0, "mq.lifecycle", "broker serving",
		"addr", addr, "dir", *dir, "retain", *retain, "replicas", len(peers), "self", *self, "fsync", fsync.String())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info(0, "mq.lifecycle", "shutting down")
	if replLoop != nil {
		replLoop.Stop()
	}
	if failover != nil {
		failover.Stop()
	}
	reporter.Stop()
	collector.Stop()
	srv.Close()
	if err := broker.Close(); err != nil {
		logger.Error(0, "mq.lifecycle", "broker close failed", "err", err)
	}
}
