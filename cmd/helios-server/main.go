// Command helios-server runs one Helios serving worker (§4.3, §6): it
// consumes its sample queue into the query-aware sample cache and serves
// K-hop sampling queries over RPC for the frontend.
//
// Usage:
//
//	helios-server -config cluster.json -broker 127.0.0.1:7070 -id 0 -listen 127.0.0.1:7081
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"helios/internal/coord"
	"helios/internal/deploy"
	"helios/internal/faultpoint"
	"helios/internal/kvstore"
	"helios/internal/monitor"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/rpc"
	"helios/internal/serving"
)

// pick returns the flag value when set, else the config default.
func pick(flagVal, cfgVal int) int {
	if flagVal > 0 {
		return flagVal
	}
	return cfgVal
}

// busConn is the piece of *mq.RemoteBroker and *mq.Cluster this binary
// uses: queue traffic plus the control connection telemetry rides on.
type busConn interface {
	mq.Bus
	Client() *rpc.Client
}

// dialBus connects to the queue tier: a replicated cluster when brokers
// lists the replica set, else the single broker at brokerAddr.
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
	id := flag.Int("id", 0, "this worker's index in [0, servers)")
	listen := flag.String("listen", "127.0.0.1:0", "address to serve sampling RPC on")
	cacheDir := flag.String("cache-dir", "", "hybrid-mode cache spill directory (empty = memory only)")
	cacheBudget := flag.Int64("cache-mem", 0, "cache memory budget in bytes before spilling (0 = default)")
	serveThreads := flag.Int("serve-threads", 0, "serving actor count (0 = default)")
	serveInflight := flag.Int("serve-inflight", 0, "admitted concurrent sampling RPCs (0 = config's overload.maxInflight, or 4×serve-threads)")
	serveQueue := flag.Int("serve-queue", 0, "sampling RPCs queued for admission (0 = config's overload.maxQueue, or mailbox depth)")
	degrade := flag.Bool("degrade", false, "serve degraded (cached, staleness-tagged) results instead of shedding when saturated (config's overload.degrade also enables)")
	commitEvery := flag.Duration("commit-every", 100*time.Millisecond, "how often the sample-queue poll position is committed to the broker")
	snapshotDir := flag.String("snapshot-dir", "", "warm-restart snapshot directory: serving-<id>.snap is restored on boot and rewritten every -snapshot-every (empty = snapshots off)")
	snapshotEvery := flag.Duration("snapshot-every", time.Minute, "cache snapshot interval under -snapshot-dir")
	batchMax := flag.Int("batch-max", 0, "largest sample batch accepted by one batched RPC (0 = 1024 default)")
	statsEvery := flag.Duration("stats-every", 30*time.Second, "stats log interval (0 = off)")
	telemetryEvery := flag.Duration("telemetry-every", 5*time.Second, "telemetry snapshot cadence, which is also this worker's lease cadence (0 = no telemetry and no lease)")
	faults := flag.String("faultpoints", "", "arm deterministic fault injection, e.g. mq.fetch=error:injected:3 (chaos drills)")
	opsAddr := flag.String("ops-addr", "", "serve /metrics, /traces, /slo and pprof on this address (empty = disabled)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	slowLog := flag.Duration("slow-log", 100*time.Millisecond, "log traced serves slower than this with their worst stage (0 = off)")
	flag.Parse()

	lv, ok := obs.ParseLevel(*logLevel)
	if !ok {
		log.Fatalf("helios-server: unknown -log-level %q", *logLevel)
	}
	logger := obs.NewLogger(os.Stderr, "serving")
	logger.SetLevel(lv)
	logger.KeepTail(32)

	if err := faultpoint.ArmSpec(*faults); err != nil {
		log.Fatalf("helios-server: %v", err)
	}
	obs.RegisterBuildInfo(obs.Default(), "helios-server", nil)
	cfg, err := deploy.Load(*configPath)
	if err != nil {
		log.Fatalf("helios-server: %v", err)
	}
	rpc.RegisterMetrics(obs.Default())
	bus, err := dialBus(*brokers, *brokerAddr)
	if err != nil {
		log.Fatalf("helios-server: dial broker: %v", err)
	}
	defer bus.Close()

	w, err := serving.New(serving.Config{
		ID:            *id,
		NumServers:    cfg.File.Servers,
		Plans:         cfg.Plans,
		Broker:        bus,
		Store:         kvstore.Options{Dir: *cacheDir, MemBudgetBytes: *cacheBudget},
		ServeThreads:  *serveThreads,
		TTL:           cfg.TTL,
		MaxInflight:   pick(*serveInflight, cfg.File.Overload.MaxInflight),
		MaxAdmitQueue: pick(*serveQueue, cfg.File.Overload.MaxQueue),
		Degrade:       *degrade || cfg.File.Overload.Degrade,
		MaxBatch:      *batchMax,
		CommitEvery:   *commitEvery,
		Metrics:       obs.Default(),
		Tracer:        obs.DefaultTracer(),
		Logger:        logger,
		SlowLog:       *slowLog,
	})
	if err != nil {
		log.Fatalf("helios-server: %v", err)
	}
	ops, err := obs.ServeDefault(*opsAddr)
	if err != nil {
		log.Fatalf("helios-server: ops listener: %v", err)
	}
	defer ops.Close()
	if ops != nil {
		log.Printf("helios-server: ops on %s", ops.Addr())
	}
	snapPath := ""
	if *snapshotDir != "" {
		snapPath = filepath.Join(*snapshotDir, fmt.Sprintf("serving-%d.snap", *id))
		if err := w.RestoreFile(snapPath); err == nil {
			logger.Info(0, "serving.snapshot", "restored snapshot",
				"path", snapPath, "replay_from", w.ReplayFloor())
		} else if !os.IsNotExist(err) {
			log.Fatalf("helios-server: restore: %v", err)
		}
	}
	w.Start()

	srv := rpc.NewServer()
	serving.ServeRPC(w, srv)
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("helios-server: %v", err)
	}
	log.Printf("helios-server: worker %d/%d serving on %s", *id, cfg.File.Servers, addr)

	stop := make(chan struct{})
	if snapPath != "" && *snapshotEvery > 0 {
		go func() {
			t := time.NewTicker(*snapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if err := w.SnapshotFile(snapPath); err != nil {
						logger.Error(0, "serving.snapshot", "snapshot failed", "path", snapPath, "err", err)
					}
				}
			}
		}()
	}
	if *telemetryEvery > 0 {
		// Telemetry rides the reconnecting broker connection, and each
		// snapshot renews this worker's lease: a worker that cannot
		// deliver snapshots is the one /cluster correctly shows going
		// stale, then dead.
		reporter := monitor.NewReporter(monitor.ReporterConfig{
			Name:     fmt.Sprintf("server-%d", *id),
			Kind:     string(coord.KindServer),
			Every:    *telemetryEvery,
			Registry: obs.Default(),
			Tracer:   obs.DefaultTracer(),
			LogTail:  logger.Tail,
			Partitions: func() []monitor.PartitionStats {
				st := w.Stats()
				return []monitor.PartitionStats{{
					Partition:    w.ID(),
					Served:       st.Served,
					SampleHits:   st.SampleHits,
					SampleMisses: st.SampleMisses,
					Lag:          w.Lag(),
					StalenessNS:  st.StalenessNS,
				}}
			},
			Sink:   monitor.NewClient(bus.Client(), 0),
			Logger: logger,
		})
		reporter.Start()
		defer reporter.Stop()
	}
	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					st := w.Stats()
					log.Printf("helios-server: served=%d applied=%d cache=%dB lat{%s} ingest{%s}",
						st.Served, st.Applied, st.CacheBytes, st.QueryLatency, st.IngestLatency)
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stop)
	srv.Close()
	w.Stop()
}
