package coord

import (
	"sort"
	"time"
)

// The lease table is the coordinator's only record of who is alive. A
// holder renews its lease with a frame it already sends — a telemetry
// snapshot (monitor.Collector) or a replication-status report
// (Failover.Report) — and every frame declares the holder's own cadence:
// the holder grants its TTL, as with etcd leases. The table judges every
// holder by one fixed rule, so the failover controller, GET /cluster and
// the cluster.*_workers gauges always agree on membership.
const (
	// StaleCadences is how many cadences a lease may go unrenewed before
	// it is stale: the holder's last numbers are frozen, not current.
	StaleCadences = 3
	// DeadCadences is how many cadences a lease may go unrenewed before
	// its holder is dead: its partitions fail over and its death is
	// captured.
	DeadCadences = 6
)

// Health is a lease's standing under the lease rule.
type Health uint8

const (
	// Live leases were renewed within StaleCadences cadences.
	Live Health = iota
	// Stale leases missed more than StaleCadences cadences.
	Stale
	// Dead leases missed more than DeadCadences cadences.
	Dead
)

// Lease is one holder's entry in the lease table, judged at read time.
type Lease struct {
	Name string
	Kind WorkerKind
	// Every is the cadence the holder declared with its latest frame.
	Every time.Duration
	// Age is the time since that frame arrived (coordinator clock).
	Age    time.Duration
	Health Health
}

type leaseEntry struct {
	kind    WorkerKind
	every   time.Duration
	renewed time.Time
	latched bool // death announced by Sweep, not yet revived
}

func (e *leaseEntry) lease(name string, now time.Time) Lease {
	l := Lease{Name: name, Kind: e.kind, Every: e.every, Age: now.Sub(e.renewed)}
	switch {
	case l.Age > DeadCadences*e.every:
		l.Health = Dead
	case l.Age > StaleCadences*e.every:
		l.Health = Stale
	}
	return l
}

// Renew records one frame from the named holder, which declares that it
// sends one every `every` (> 0). The first frame grants the lease; a dead
// holder that renews is live again, in place.
func (c *Coordinator) Renew(name string, kind WorkerKind, every time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.leases[name]
	if e == nil {
		e = &leaseEntry{}
		c.leases[name] = e
	}
	e.kind, e.every, e.renewed = kind, every, c.clk.Now()
}

// Now reads the lease clock.
func (c *Coordinator) Now() time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.clk.Now()
}

// Leases returns every lease sorted by name, all judged at one clock
// reading.
func (c *Coordinator) Leases() []Lease {
	c.mu.RLock()
	defer c.mu.RUnlock()
	now := c.clk.Now()
	out := make([]Lease, 0, len(c.leases))
	for name, e := range c.leases {
		out = append(out, e.lease(name, now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lease returns the named holder's lease; ok is false for a holder that
// never renewed.
func (c *Coordinator) Lease(name string) (l Lease, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e := c.leases[name]
	if e == nil {
		return Lease{}, false
	}
	return e.lease(name, c.clk.Now()), true
}

// Sweep reports each membership transition once: holders that died since
// the previous Sweep, and holders announced dead that have renewed since.
// The collector's death scan calls it, so every death is logged and
// captured exactly once however often the table is read.
func (c *Coordinator) Sweep() (died, revived []Lease) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.Now()
	for name, e := range c.leases {
		l := e.lease(name, now)
		switch {
		case l.Health == Dead && !e.latched:
			e.latched = true
			died = append(died, l)
		case l.Health != Dead && e.latched:
			e.latched = false
			revived = append(revived, l)
		}
	}
	sort.Slice(died, func(i, j int) bool { return died[i].Name < died[j].Name })
	sort.Slice(revived, func(i, j int) bool { return revived[i].Name < revived[j].Name })
	return died, revived
}
