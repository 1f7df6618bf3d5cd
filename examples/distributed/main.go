// Distributed topology demo: assembles the exact multi-process deployment
// the cmd/ binaries run — broker server, sampling workers and serving
// workers talking to it over RPC broker clients, serving RPC endpoints, and
// the HTTP frontend — inside one process, so you can watch the whole §4.1
// architecture work end to end without juggling six terminals.
//
// (To run it as real separate processes, see the README's
// "Multi-process deployment" section; every component below corresponds
// 1:1 to one of the helios-* binaries.)
//
// Run with: go run ./examples/distributed
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/actor"
	"helios/internal/coord"
	"helios/internal/deploy"
	"helios/internal/faultpoint"
	"helios/internal/frontend"
	"helios/internal/graph"
	"helios/internal/monitor"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/overload"
	"helios/internal/rpc"
	"helios/internal/sampler"
	"helios/internal/serving"
	"helios/internal/wire"
)

const clusterConfig = `{
  "samplers": 2,
  "servers": 2,
  "vertexTypes": ["User", "Item"],
  "edgeTypes": [
    {"name": "Click", "src": "User", "dst": "Item"},
    {"name": "CoPurchase", "src": "Item", "dst": "Item"}
  ],
  "queries": [
    "g.V('User').outV('Click').sample(3).by('TopK').outV('CoPurchase').sample(2).by('TopK')"
  ]
}`

func main() {
	opsAddr := flag.String("ops-addr", "", "serve /metrics, /traces, /cluster and pprof on this address (empty = disabled)")
	linger := flag.Duration("linger", 0, "keep the deployment alive this long after the demo (for ops scraping)")
	telemetryEvery := flag.Duration("telemetry-every", 500*time.Millisecond, "telemetry snapshot cadence, which is also each worker's lease cadence (0 = no telemetry and no worker leases)")
	flightDir := flag.String("flight-dir", "", "flight-recorder capture directory (empty = captures disabled)")
	chaos := flag.Bool("chaos", false, "after the demo, kill and restart the broker endpoint and prove reconvergence")
	burst := flag.Bool("burst", false, "after the demo, slow the serve path and fire a request storm to demo admission control and graceful degradation")
	failoverDrill := flag.Bool("failover", false, "at the end, permanently kill a partition leader broker and prove zero quorum-acked records are lost across the promotion")
	flag.Parse()

	cfg, err := deploy.Parse([]byte(clusterConfig))
	if err != nil {
		log.Fatal(err)
	}

	// Every "process" below shares the demo's registry and tracer, so the
	// ops listener sees the whole pipeline.
	reg := obs.Default()
	tracer := obs.DefaultTracer()

	// The coordinator's lease table is the one record of who is alive:
	// telemetry snapshots and broker replication reports both renew it,
	// and /cluster, its gauges and the failover controller all read it.
	coordinator := coord.New(nil)

	// The collector plays the coordinator's observability role: workers
	// report telemetry snapshots over their broker connections and the
	// aggregate is served at GET /cluster below.
	var recorder *monitor.FlightRecorder
	if *flightDir != "" {
		recorder, err = monitor.NewFlightRecorder(*flightDir, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
	}
	collector := monitor.NewCollector(coordinator, monitor.CollectorConfig{
		Interval: *telemetryEvery,
		Registry: reg,
		Recorder: recorder,
	})
	collector.Start()
	defer collector.Stop()

	ops, err := obs.ServeDefault(*opsAddr,
		obs.Route{Pattern: "GET /cluster", Handler: collector.Handler()})
	if err != nil {
		log.Fatal(err)
	}
	defer ops.Close()
	if ops != nil {
		fmt.Println("ops listening on", ops.Addr())
	}

	// --- coordinator endpoint ---
	// The coordinator control surface (telemetry collector, broker
	// failover controller) lives on its own RPC server, so killing a
	// broker endpoint in the drills below never takes the control plane
	// with it — the same separation -replicas deployments get by pointing
	// clients at replica 0's address.
	coordSrv := rpc.NewServer()
	monitor.ServeRPC(collector, coordSrv)
	coordAddr, err := coordSrv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer coordSrv.Close()
	fmt.Println("coordinator listening on", coordAddr)

	// --- helios-broker ×3 (replicated, quorum 2) ---
	const replicas = 3
	brokers := make([]*mq.Broker, replicas)
	brokerSrvs := make([]*rpc.Server, replicas)
	brokerReports := make([]*actor.Loop, replicas)
	var brokerAddrs []string
	for i := 0; i < replicas; i++ {
		b := mq.NewBroker(mq.Options{})
		srv := rpc.NewServer()
		mq.ServeBroker(b, srv)
		mq.ServeReplication(b, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		brokers[i], brokerSrvs[i] = b, srv
		brokerAddrs = append(brokerAddrs, addr)
		// Close whatever server currently fronts this replica: the chaos
		// drill swaps in a replacement endpoint, and closing the broker tier
		// before the workers above have flushed would strand their final
		// telemetry retrying a dead address.
		i := i
		defer func() { brokerSrvs[i].Close() }()
		defer b.Close()
	}
	// One replica registers the queue metrics (shared registry; the gauges
	// would collide registered thrice).
	brokers[0].RegisterMetrics(reg)
	for i, b := range brokers {
		if err := b.EnableReplication(mq.ReplicationConfig{Self: i, Peers: brokerAddrs, Quorum: 2}); err != nil {
			log.Fatal(err)
		}
	}

	// The failover controller promotes the most-caught-up live replica when
	// a partition leader's lease dies.
	fo := coord.NewFailover(coord.FailoverConfig{
		Coordinator: coordinator,
		Peers:       replicas,
		Notify: func(peer int, pm mq.PartMap) error {
			brokers[peer].ApplyPartMap(pm)
			return nil
		},
	})
	fo.RegisterMetrics(reg)
	fo.ServeRPC(coordSrv)
	fo.Start(200 * time.Millisecond)
	defer fo.Stop()

	// Every replica reports its replication offsets over RPC, exactly like
	// the helios-broker binary; each report renews the replica's lease
	// (dead after 6 missed 100ms reports), so stopping a replica's report
	// loop makes it go silent like a dead process.
	for i := 0; i < replicas; i++ {
		rc, err := rpc.DialOpts(coordAddr, rpc.Options{Reconnect: true})
		if err != nil {
			log.Fatal(err)
		}
		defer rc.Close()
		brokerReports[i] = actor.Every(100*time.Millisecond, func() {
			//lint:allow droppederror reason=best-effort lease renewal; a missed report just ages the lease until the next one lands
			_ = mq.ReportReplStatus(rc, i, 100*time.Millisecond, brokers[i].ReplOffsets())
		})
		defer brokerReports[i].Stop()
	}
	fmt.Printf("broker replicas on %v (quorum 2)\n", brokerAddrs)

	// --- helios-sampler ×2 ---
	for i := 0; i < cfg.File.Samplers; i++ {
		bus, err := mq.DialCluster(brokerAddrs, coordAddr, 2*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		defer bus.Close()
		w, err := sampler.New(sampler.Config{
			ID: i, NumSamplers: cfg.File.Samplers, NumServers: cfg.File.Servers,
			Plans: cfg.Plans, Schema: cfg.Schema, Broker: bus, Seed: int64(i),
			Metrics: reg,
		})
		if err != nil {
			log.Fatal(err)
		}
		w.Start()
		defer w.Stop()
		if *telemetryEvery > 0 {
			reporter := monitor.NewReporter(monitor.ReporterConfig{
				Name: fmt.Sprintf("sampler-%d", i), Kind: string(coord.KindSampler),
				Every: *telemetryEvery, Registry: reg, Tracer: tracer,
				Sink: monitor.NewClient(bus.Client(), 0),
			})
			reporter.Start()
			defer reporter.Stop()
		}
		fmt.Printf("sampling worker %d running\n", i)
	}

	// --- helios-server ×2 ---
	var servingAddrs []string
	for i := 0; i < cfg.File.Servers; i++ {
		bus, err := mq.DialCluster(brokerAddrs, coordAddr, 2*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		defer bus.Close()
		scfg := serving.Config{
			ID: i, NumServers: cfg.File.Servers, Plans: cfg.Plans, Broker: bus,
			Metrics: reg, Tracer: tracer,
		}
		if *burst {
			// Tiny admission capacity plus the degraded path, so the storm
			// visibly saturates serving and falls back to cached answers.
			scfg.MaxInflight, scfg.MaxAdmitQueue = 2, 2
			scfg.Degrade, scfg.DegradeInflight = true, 4
		}
		w, err := serving.New(scfg)
		if err != nil {
			log.Fatal(err)
		}
		w.Start()
		defer w.Stop()
		srv := rpc.NewServer()
		serving.ServeRPC(w, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		if *telemetryEvery > 0 {
			reporter := monitor.NewReporter(monitor.ReporterConfig{
				Name: fmt.Sprintf("server-%d", i), Kind: string(coord.KindServer),
				Every: *telemetryEvery, Registry: reg, Tracer: tracer,
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
				Sink: monitor.NewClient(bus.Client(), 0),
			})
			reporter.Start()
			defer reporter.Stop()
		}
		servingAddrs = append(servingAddrs, addr)
		fmt.Printf("serving worker %d on %s\n", i, addr)
	}

	// --- helios-frontend ---
	fbus, err := mq.DialCluster(brokerAddrs, coordAddr, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer fbus.Close()
	fe, err := frontend.New(cfg, fbus, servingAddrs)
	if err != nil {
		log.Fatal(err)
	}
	defer fe.Close()
	fe.UseObs(nil, reg, tracer)
	gwSrv := &http.Server{Handler: fe.Handler()}
	ln, err := listen()
	if err != nil {
		log.Fatal(err)
	}
	go gwSrv.Serve(ln)
	defer gwSrv.Close()
	gateway := "http://" + ln.Addr().String()
	if *telemetryEvery > 0 {
		reporter := monitor.NewReporter(monitor.ReporterConfig{
			Name: "frontend-0", Kind: string(coord.KindFrontend),
			Every: *telemetryEvery, Registry: reg, Tracer: tracer,
			Sink: monitor.NewClient(fbus.Client(), 0),
		})
		reporter.Start()
		defer reporter.Stop()
	}
	fmt.Println("HTTP frontend on", gateway)

	// Drive the system through the public HTTP gateway, exactly as an
	// application would.
	post := func(path string, body map[string]any) {
		data, err := json.Marshal(body)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := http.Post(gateway+path, "application/json", bytes.NewReader(data))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
	}
	// postRetry drives an ingest until the gateway accepts it: a 202 means
	// the broker append returned, which under replication means the record
	// is held by a quorum.
	postRetry := func(path string, body map[string]any) {
		data, err := json.Marshal(body)
		if err != nil {
			log.Fatal(err)
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			resp, err := http.Post(gateway+path, "application/json", bytes.NewReader(data))
			if err != nil {
				log.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				return
			}
			if time.Now().After(deadline) {
				log.Fatalf("POST %s never accepted (last status %d)", path, resp.StatusCode)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	post("/ingest/vertex", map[string]any{"id": 1, "type": "User", "feature": []float32{1}})
	for i := 0; i < 3; i++ {
		post("/ingest/vertex", map[string]any{"id": 100 + i, "type": "Item", "feature": []float32{float32(i)}})
		post("/ingest/edge", map[string]any{"src": 1, "dst": 100 + i, "type": "Click", "ts": i + 1})
	}
	post("/ingest/edge", map[string]any{"src": 100, "dst": 102, "type": "CoPurchase", "ts": 10})

	// Poll until the pre-sampled subgraph materializes across the
	// distributed pipeline.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(gateway + "/sample?q=0&seed=1")
		if err != nil {
			log.Fatal(err)
		}
		var out struct {
			Layers [][]uint64 `json:"layers"`
		}
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if len(out.Layers) == 3 && len(out.Layers[1]) == 3 {
			fmt.Printf("sample for seed 1: hop-1=%v hop-2=%v\n", out.Layers[1], out.Layers[2])
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("subgraph never materialized")
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Println("distributed topology demo complete")

	if *chaos {
		// Kill broker 0's RPC endpoint mid-run. The retained log survives
		// inside the Broker; every client connection dies and self-heals.
		// (Its status reports keep flowing in-process, so the controller
		// correctly does NOT fail its partitions over — this drill is about
		// transport-level self-healing; -failover covers real broker death.)
		fmt.Println("chaos: killing broker endpoint")
		brokerSrvs[0].Close()
		// One ingest while the endpoint is down exercises the resolve/retry
		// path (partitions led by a surviving replica still answer).
		post("/ingest/vertex", map[string]any{"id": 999, "type": "Item", "feature": []float32{9}})

		var srv2 *rpc.Server
		for i := 0; i < 100; i++ {
			srv2 = rpc.NewServer()
			mq.ServeBroker(brokers[0], srv2)
			mq.ServeReplication(brokers[0], srv2)
			if _, err = srv2.Listen(brokerAddrs[0]); err == nil {
				break
			}
			srv2.Close()
			srv2 = nil
			time.Sleep(10 * time.Millisecond)
		}
		if srv2 == nil {
			log.Fatalf("chaos: rebind broker endpoint: %v", err)
		}
		// No defer here: the broker-loop defer closes brokerSrvs[0], which
		// now points at the replacement. A defer registered this late would
		// run before the workers' teardown and kill the endpoint they are
		// still flushing telemetry to.
		brokerSrvs[0] = srv2
		fmt.Println("chaos: broker endpoint restarted on", brokerAddrs[0])

		// New data after the restart: a second CoPurchase hop. Retry until
		// accepted — the first appends may race the reconnect, and broker
		// appends are at-least-once anyway.
		postRetry("/ingest/vertex", map[string]any{"id": 103, "type": "Item", "feature": []float32{7}})
		postRetry("/ingest/edge", map[string]any{"src": 101, "dst": 103, "type": "CoPurchase", "ts": 20})

		// Reconverge: the new hop-2 vertex must appear in the sample tree.
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(gateway + "/sample?q=0&seed=1")
			if err != nil {
				log.Fatal(err)
			}
			var out struct {
				Layers [][]uint64 `json:"layers"`
			}
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			found := false
			if len(out.Layers) == 3 {
				for _, v := range out.Layers[2] {
					if v == 103 {
						found = true
					}
				}
			}
			if found {
				fmt.Printf("sample after restart: hop-1=%v hop-2=%v\n", out.Layers[1], out.Layers[2])
				break
			}
			if time.Now().After(deadline) {
				log.Fatal("chaos: pipeline never reconverged")
			}
			time.Sleep(20 * time.Millisecond)
		}
		fmt.Printf("chaos reconvergence complete (reconnects=%d retries=%d)\n",
			rpc.TotalReconnects(), rpc.TotalRetries())
	}

	if *burst {
		// Slow every cache assembly and fire a storm with a small
		// end-to-end budget: the frontend sheds what it cannot admit, the
		// serving workers degrade what they cannot refresh, and every
		// refusal is a typed 503/504 — never a hang.
		const budget = 300 * time.Millisecond
		fe.SetOverload(frontend.Overload{RequestTimeout: budget, MaxInflight: 8, MaxQueue: 4})
		overload.RegisterMetrics(reg)
		fmt.Println("burst: delaying serve path and storming the gateway")
		faultpoint.Delay("serving.sample", 1<<20, 20*time.Millisecond)

		const clients, perEach = 16, 12
		var okN, degradedN, shedN, deadlineN, otherN atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < perEach; r++ {
					resp, err := http.Get(gateway + "/sample?q=0&seed=1")
					if err != nil {
						otherN.Add(1)
						continue
					}
					var out struct {
						Degraded bool `json:"degraded"`
					}
					json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					switch {
					case resp.StatusCode == http.StatusOK && out.Degraded:
						degradedN.Add(1)
					case resp.StatusCode == http.StatusOK:
						okN.Add(1)
					case resp.StatusCode == http.StatusServiceUnavailable:
						shedN.Add(1)
					case resp.StatusCode == http.StatusGatewayTimeout:
						deadlineN.Add(1)
					default:
						otherN.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		faultpoint.Disarm("serving.sample")
		if otherN.Load() > 0 {
			log.Fatalf("burst: %d responses were neither served, shed (503) nor expired (504)", otherN.Load())
		}
		if shedN.Load()+deadlineN.Load() == 0 {
			log.Fatal("burst: storm completed without a single shed or deadline refusal")
		}

		// The burst drains: a clean request succeeds again.
		recover := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(gateway + "/sample?q=0&seed=1")
			if err == nil {
				resp.Body.Close()
			}
			if err == nil && resp.StatusCode == http.StatusOK {
				break
			}
			if time.Now().After(recover) {
				log.Fatal("burst: gateway never recovered after the storm drained")
			}
			time.Sleep(20 * time.Millisecond)
		}
		fmt.Printf("burst drill complete (ok=%d degraded=%d shed=%d deadline=%d total_shed=%d total_degraded=%d)\n",
			okN.Load(), degradedN.Load(), shedN.Load(), deadlineN.Load(),
			overload.TotalShed(), overload.TotalDegraded())
	}

	if *failoverDrill {
		// Three new Click edges carrying the stream's largest timestamps:
		// the TopK reservoir (fanout 3) keeps the largest-ts neighbors, so
		// once these are applied, hop-1 for seed 1 must be EXACTLY
		// {200, 201, 202}. Each 202 below means the append was
		// quorum-acked — losing any of them across the failover would leave
		// a stale item in the set, so the exact-set check below is the
		// zero-lost-acks proof.
		fmt.Println("failover: ingesting quorum-acked displacing edges")
		for i := 0; i < 3; i++ {
			postRetry("/ingest/vertex", map[string]any{"id": 200 + i, "type": "Item", "feature": []float32{float32(i)}})
			postRetry("/ingest/edge", map[string]any{"src": 1, "dst": 200 + i, "type": "Click", "ts": 100 + i})
		}

		// The controller only fails over leaders it has seen report (a
		// replica that never reported is "not started yet", not dead), so
		// wait until every replica holds a lease — in a real deployment
		// brokers report long before anything fails.
		knownBy := time.Now().Add(15 * time.Second)
		for {
			known := 0
			for i := 0; i < replicas; i++ {
				if _, ok := coordinator.Lease(coord.BrokerName(i)); ok {
					known++
				}
			}
			if known == replicas {
				break
			}
			if time.Now().After(knownBy) {
				log.Fatalf("failover: only %d/%d replicas ever reported", known, replicas)
			}
			time.Sleep(20 * time.Millisecond)
		}

		// Permanently kill the broker leading the updates partition those
		// edges landed on: endpoint closed, status reports stopped — to the
		// controller, the process is gone.
		target := int(graph.Hash64(1) % uint64(cfg.File.Samplers))
		leaderOf := func(part int) int {
			pm := fo.PartMap()
			return pm.Leader(wire.TopicUpdates, part, replicas)
		}
		victim := leaderOf(target)
		fmt.Printf("failover: killing broker %d (leader of %s/%d)\n", victim, wire.TopicUpdates, target)
		brokerReports[victim].Stop()
		brokerSrvs[victim].Close()

		promoteBy := time.Now().Add(30 * time.Second)
		for leaderOf(target) == victim {
			if time.Now().After(promoteBy) {
				log.Fatal("failover: controller never promoted a new leader")
			}
			time.Sleep(20 * time.Millisecond)
		}
		fmt.Printf("failover: %s/%d promoted to broker %d (map v%d)\n",
			wire.TopicUpdates, target, leaderOf(target), fo.PartMap().Version)

		// Zero lost acks: every quorum-acked record must flow through the
		// promoted leader into the serving tier.
		want := map[uint64]bool{200: true, 201: true, 202: true}
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(gateway + "/sample?q=0&seed=1")
			if err != nil {
				log.Fatal(err)
			}
			var out struct {
				Layers [][]uint64 `json:"layers"`
			}
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			exact := len(out.Layers) == 3 && len(out.Layers[1]) == len(want)
			if exact {
				for _, v := range out.Layers[1] {
					if !want[v] {
						exact = false
					}
				}
			}
			if exact {
				fmt.Printf("sample after failover: hop-1=%v\n", out.Layers[1])
				break
			}
			if time.Now().After(deadline) {
				log.Fatalf("failover: quorum-acked records never served (last layers=%v)", out.Layers)
			}
			time.Sleep(20 * time.Millisecond)
		}

		// Liveness after the promotion: fresh ingest lands on the new
		// leader and flows end to end with the old leader still dead.
		postRetry("/ingest/vertex", map[string]any{"id": 300, "type": "Item", "feature": []float32{3}})
		postRetry("/ingest/edge", map[string]any{"src": 1, "dst": 300, "type": "Click", "ts": 200})
		deadline = time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(gateway + "/sample?q=0&seed=1")
			if err != nil {
				log.Fatal(err)
			}
			var out struct {
				Layers [][]uint64 `json:"layers"`
			}
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			found := false
			if len(out.Layers) == 3 {
				for _, v := range out.Layers[1] {
					if v == 300 {
						found = true
					}
				}
			}
			if found {
				break
			}
			if time.Now().After(deadline) {
				log.Fatal("failover: post-failover ingest never materialized")
			}
			time.Sleep(20 * time.Millisecond)
		}
		fmt.Printf("failover drill complete (lost_acked=0 failovers=%d)\n", fo.Failovers.Value())
	}

	if *linger > 0 {
		fmt.Printf("lingering %s for ops scrapes\n", *linger)
		time.Sleep(*linger)
	}
}

// listen binds an ephemeral loopback port for the HTTP gateway.
func listen() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}
