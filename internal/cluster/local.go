// Package cluster wires Helios deployments: the broker, coordinator,
// sampling workers, serving workers, and the frontend router that sends
// each inference request to the serving worker owning its seed (§4.1).
//
// Local runs an M-sampler × N-server cluster inside one process — the
// harness used by the tests, benchmarks and examples. The cmd/ binaries
// deploy the same workers across processes over RPC.
package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"helios/internal/clock"
	"helios/internal/codec"
	"helios/internal/coord"
	"helios/internal/graph"
	"helios/internal/kvstore"
	"helios/internal/metrics"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/query"
	"helios/internal/sampler"
	"helios/internal/serving"
	"helios/internal/wire"
)

// LocalConfig sizes a Local cluster.
type LocalConfig struct {
	// Samplers (M) and Servers (N); both default to 1.
	Samplers, Servers int
	// ServerReplicas runs this many replicas of every serving partition
	// (§4.1 footnote: Helios allows "replicating the highly loaded serving
	// workers based on the ad-hoc skewness"). Replicas consume the same
	// sample queue independently, converge to identical caches, and the
	// frontend round-robins requests among them. Default 1.
	ServerReplicas int
	// Schema types the graph; required.
	Schema *graph.Schema
	// Queries are registered in order; their query IDs are their indices.
	Queries []query.Query
	// Broker options (memory-only by default).
	Broker mq.Options
	// Store returns the kvstore options for serving worker i; nil keeps
	// all caches memory-only.
	Store func(i int) kvstore.Options
	// Worker thread pools; zero values use worker defaults.
	PollThreads, SampleThreads, PublishThreads int
	UpdateThreads, ServeThreads                int
	// MailboxDepth bounds worker actor queues.
	MailboxDepth int
	// TTL expires reservoirs, features and cache entries; 0 disables.
	TTL time.Duration
	// Seed drives the randomized sampling strategies.
	Seed int64
	// Namespace prefixes topic names.
	Namespace string
	// Clock is the time source for every worker and for ingestion stamps;
	// nil defaults to the wall clock. Tests inject a fake so staleness and
	// latency assertions never sleep.
	Clock clock.Clock
	// Metrics receives every worker's metrics; nil gives each worker a
	// private registry.
	Metrics *obs.Registry
	// Tracer records request traces across the cluster's workers; nil
	// gives each worker a private tracer.
	Tracer *obs.Tracer
}

// Local is an in-process Helios cluster.
type Local struct {
	Broker *mq.Broker
	Coord  *coord.Coordinator
	// Samplers holds the sampling workers; Servers flattens every serving
	// replica (replicas of partition j are Servers[j*R : (j+1)*R]).
	Samplers []*sampler.Worker
	Servers  []*serving.Worker
	rr       []atomic.Uint64 // round-robin cursor per serving partition

	cfg          LocalConfig
	plans        []*query.Plan
	part         graph.Partitioner // sampling workers
	servPart     graph.Partitioner // serving workers
	updatesTopic mq.TopicHandle
	dirs         map[graph.EdgeType][2]bool // [out, in] needed per edge type
	seq          metrics.Counter
	ingested     metrics.Counter
	ownBroker    bool
}

// NewLocal builds and starts a cluster.
func NewLocal(cfg LocalConfig) (*Local, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("cluster: schema is required")
	}
	if cfg.Samplers <= 0 {
		cfg.Samplers = 1
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 1
	}
	if cfg.ServerReplicas <= 0 {
		cfg.ServerReplicas = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall()
	}
	c := &Local{
		Broker:    mq.NewBroker(cfg.Broker),
		Coord:     coord.New(cfg.Schema),
		cfg:       cfg,
		part:      graph.NewPartitioner(cfg.Samplers),
		servPart:  graph.NewPartitioner(cfg.Servers),
		dirs:      make(map[graph.EdgeType][2]bool),
		ownBroker: true,
	}
	for _, q := range cfg.Queries {
		plan, err := c.Coord.Register(q)
		if err != nil {
			c.Broker.Close()
			return nil, err
		}
		c.plans = append(c.plans, plan)
		for _, oh := range plan.OneHops {
			d := c.dirs[oh.Edge]
			if oh.Dir == graph.In {
				d[1] = true
			} else {
				d[0] = true
			}
			c.dirs[oh.Edge] = d
		}
	}

	var err error
	if c.updatesTopic, err = c.Broker.OpenTopic(cfg.Namespace+wire.TopicUpdates, cfg.Samplers); err != nil {
		c.Broker.Close()
		return nil, err
	}
	for i := 0; i < cfg.Samplers; i++ {
		w, err := sampler.New(sampler.Config{
			ID:             i,
			NumSamplers:    cfg.Samplers,
			NumServers:     cfg.Servers,
			Plans:          c.plans,
			Schema:         cfg.Schema,
			Broker:         c.Broker,
			Namespace:      cfg.Namespace,
			PollThreads:    cfg.PollThreads,
			SampleThreads:  cfg.SampleThreads,
			PublishThreads: cfg.PublishThreads,
			MailboxDepth:   cfg.MailboxDepth,
			TTL:            cfg.TTL,
			Seed:           cfg.Seed,
			Clock:          cfg.Clock,
			Metrics:        cfg.Metrics,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Samplers = append(c.Samplers, w)
	}
	c.rr = make([]atomic.Uint64, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		for r := 0; r < cfg.ServerReplicas; r++ {
			var store kvstore.Options
			if cfg.Store != nil {
				store = cfg.Store(i*cfg.ServerReplicas + r)
			}
			w, err := serving.New(serving.Config{
				ID:            i,
				NumServers:    cfg.Servers,
				Plans:         c.plans,
				Broker:        c.Broker,
				Namespace:     cfg.Namespace,
				Store:         store,
				UpdateThreads: cfg.UpdateThreads,
				ServeThreads:  cfg.ServeThreads,
				MailboxDepth:  cfg.MailboxDepth,
				TTL:           cfg.TTL,
				Clock:         cfg.Clock,
				Metrics:       cfg.Metrics,
				Tracer:        cfg.Tracer,
			})
			if err != nil {
				c.Close()
				return nil, err
			}
			c.Servers = append(c.Servers, w)
		}
	}
	for _, w := range c.Samplers {
		w.Start()
	}
	for _, w := range c.Servers {
		w.Start()
	}
	return c, nil
}

// Plans returns the registered plans (index = query ID).
func (c *Local) Plans() []*query.Plan { return c.plans }

// Ingest stamps and routes one graph update to the sampling partitions that
// need it (vertex owner, or edge origin owners per registered directions).
// A pre-assigned u.Trace survives the stamping, so callers can follow a
// traced update into the serving caches.
func (c *Local) Ingest(u graph.Update) error {
	u.Seq = uint64(c.seq.Value())
	c.seq.Inc()
	u.Ingested = c.cfg.Clock.Now().UnixNano()
	payload := codec.EncodeUpdate(u)
	switch u.Kind {
	case graph.UpdateVertex:
		c.ingested.Inc()
		_, err := c.updatesTopic.Append(c.part.Of(u.Vertex.ID), uint64(u.Vertex.ID), payload)
		return err
	case graph.UpdateEdge:
		d, relevant := c.dirs[u.Edge.Type]
		if !relevant {
			return nil // no registered query samples this edge type
		}
		c.ingested.Inc()
		var parts [2]int
		n := 0
		if d[0] {
			parts[n] = c.part.Of(u.Edge.Src)
			n++
		}
		if d[1] {
			p := c.part.Of(u.Edge.Dst)
			if n == 0 || parts[0] != p {
				parts[n] = p
				n++
			}
		}
		for i := 0; i < n; i++ {
			if _, err := c.updatesTopic.Append(parts[i], uint64(u.Edge.Src), payload); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("cluster: unknown update kind %d", u.Kind)
	}
}

// IngestBatch routes a batch of updates.
func (c *Local) IngestBatch(us []graph.Update) error {
	for _, u := range us {
		if err := c.Ingest(u); err != nil {
			return err
		}
	}
	return nil
}

// IngestedRecords counts updates accepted into the system.
func (c *Local) IngestedRecords() int64 { return c.ingested.Value() }

// Route returns a serving worker owning seed — the frontend's routing
// rule, round-robining across the partition's replicas.
func (c *Local) Route(seed graph.VertexID) *serving.Worker {
	p := c.servPart.Of(seed)
	r := int(c.rr[p].Add(1)) % c.cfg.ServerReplicas
	return c.Servers[p*c.cfg.ServerReplicas+r]
}

// Replicas returns every serving replica of the partition owning seed.
func (c *Local) Replicas(seed graph.VertexID) []*serving.Worker {
	p := c.servPart.Of(seed)
	return c.Servers[p*c.cfg.ServerReplicas : (p+1)*c.cfg.ServerReplicas]
}

// Sample executes a sampling query synchronously on the owning serving
// worker (frontend + local cache lookup path).
func (c *Local) Sample(qid query.ID, seed graph.VertexID) (*serving.Result, error) {
	return c.Route(seed).Sample(qid, seed)
}

// Submit routes an asynchronous request through the owning worker's serving
// pool.
func (c *Local) Submit(req serving.Request) {
	c.Route(req.Seed).Submit(req)
}

// WaitQuiesce blocks until every queue is drained and every pool idle for
// three consecutive probes, or the timeout expires. The subscription
// cascade converges in at most K rounds, so quiescence implies the caches
// hold the complete reachable sample/feature sets.
func (c *Local) WaitQuiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	stable := 0
	for time.Now().Before(deadline) {
		if c.idle() {
			stable++
			if stable >= 3 {
				return nil
			}
		} else {
			stable = 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("cluster: not quiescent after %v", timeout)
}

func (c *Local) idle() bool {
	for _, w := range c.Samplers {
		if w.Lag() != 0 || w.SubsLag() != 0 {
			return false
		}
		st := w.Stats()
		if st.SamplingDepth != 0 || st.PublishDepth != 0 {
			return false
		}
	}
	for _, w := range c.Servers {
		if w.Lag() != 0 {
			return false
		}
		st := w.Stats()
		if st.UpdateDepth != 0 || st.ServeDepth != 0 {
			return false
		}
	}
	return true
}

// EnableCheckpoints makes the coordinator checkpoint every sampling worker
// to dir each interval (§4.1: "periodically triggers checkpointing for
// fault tolerance"). onErr (may be nil) receives checkpoint failures.
func (c *Local) EnableCheckpoints(dir string, interval time.Duration, onErr func(error)) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return c.Coord.StartCheckpoints(interval, func() error {
		var firstErr error
		for i, w := range c.Samplers {
			if err := w.CheckpointFile(CheckpointPath(dir, i)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, onErr)
}

// CheckpointPath returns the checkpoint file EnableCheckpoints writes for
// sampling worker i.
func CheckpointPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("saw-%d.ckpt", i))
}

// Close stops workers and the broker.
func (c *Local) Close() {
	c.Coord.StopCheckpoints()
	for _, w := range c.Samplers {
		w.Stop()
	}
	for _, w := range c.Servers {
		w.Stop()
	}
	if c.ownBroker {
		c.Broker.Close()
	}
}
