// Package coord implements the Helios coordinator (§4.1): it registers
// user-specified sampling queries, decomposes each K-hop query into one-hop
// queries with their dependency DAG, tracks liveness in one lease table
// (lease.go), and periodically triggers checkpoints for fault tolerance.
package coord

import (
	"fmt"
	"sync"
	"time"

	"helios/internal/actor"
	"helios/internal/clock"
	"helios/internal/graph"
	"helios/internal/query"
)

// WorkerKind labels lease holders.
type WorkerKind string

const (
	// KindSampler identifies sampling workers.
	KindSampler WorkerKind = "sampler"
	// KindServer identifies serving workers.
	KindServer WorkerKind = "server"
	// KindFrontend identifies frontend gateways.
	KindFrontend WorkerKind = "frontend"
	// KindBroker identifies broker replicas: their per-partition
	// replication-status reports renew their leases, feeding the failover
	// controller's leader-death detection (failover.go).
	KindBroker WorkerKind = "broker"
)

// BrokerName is the lease name of broker replica i — both its
// replication-status reports and its telemetry renew this one lease.
func BrokerName(i int) string { return fmt.Sprintf("broker-%d", i) }

// Coordinator is the control-plane singleton. All methods are safe for
// concurrent use.
type Coordinator struct {
	mu     sync.RWMutex
	schema *graph.Schema
	plans  []*query.Plan
	nextID query.ID
	leases map[string]*leaseEntry
	clk    clock.Clock

	ckpt *actor.Loop
}

// New returns a coordinator over the given schema.
func New(schema *graph.Schema) *Coordinator {
	return &Coordinator{schema: schema, leases: make(map[string]*leaseEntry), clk: clock.Wall()}
}

// WithClock replaces the lease clock (wall by default), returning c for
// chaining. Tests inject a fake so death detection and re-admission run
// without sleeping. Set it before any lease is renewed.
func (c *Coordinator) WithClock(clk clock.Clock) *Coordinator {
	if clk != nil {
		c.mu.Lock()
		c.clk = clk
		c.mu.Unlock()
	}
	return c
}

// Schema returns the registered schema.
func (c *Coordinator) Schema() *graph.Schema { return c.schema }

// Register validates q, decomposes it (§5.1), assigns it an ID, and returns
// the plan. Plans must be registered before workers start; Helios fixes the
// query set at deployment time because the GNN model's sampling pattern is
// fixed by training (§1).
func (c *Coordinator) Register(q query.Query) (*query.Plan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	plan, err := query.Decompose(id, q, c.schema)
	if err != nil {
		return nil, err
	}
	c.nextID++
	c.plans = append(c.plans, plan)
	return plan, nil
}

// MustRegister is Register for static configuration.
func (c *Coordinator) MustRegister(q query.Query) *query.Plan {
	p, err := c.Register(q)
	if err != nil {
		panic(err)
	}
	return p
}

// Plans returns the registered plans in registration order.
func (c *Coordinator) Plans() []*query.Plan {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*query.Plan(nil), c.plans...)
}

// PlanByName finds a plan by its query name.
func (c *Coordinator) PlanByName(name string) (*query.Plan, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, p := range c.plans {
		if p.Query.Name == name {
			return p, true
		}
	}
	return nil, false
}

// StartCheckpoints invokes fn every interval until StopCheckpoints (§4.1:
// "periodically triggers checkpointing"). fn failures are reported through
// onErr (may be nil).
func (c *Coordinator) StartCheckpoints(interval time.Duration, fn func() error, onErr func(error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ckpt != nil {
		return fmt.Errorf("coord: checkpoints already running")
	}
	if interval <= 0 {
		return fmt.Errorf("coord: checkpoint interval %v", interval)
	}
	c.ckpt = actor.Every(interval, func() {
		if err := fn(); err != nil && onErr != nil {
			onErr(err)
		}
	})
	return nil
}

// StopCheckpoints halts the checkpoint loop.
func (c *Coordinator) StopCheckpoints() {
	c.mu.Lock()
	loop := c.ckpt
	c.mu.Unlock()
	if loop != nil {
		loop.Stop()
	}
}
