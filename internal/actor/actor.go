// Package actor provides the bounded-mailbox actor pools Helios workers are
// built from. The paper (§4.2, §4.3) isolates workload types — polling,
// sampling, publishing, cache updating, serving — onto distinct thread pools
// of a distributed actor framework so that bursts in one stage cannot starve
// another; pools here play that role, and the scale-up experiments
// (Fig. 13(a), Fig. 14(a)) vary their worker counts.
//
// Messages sent with the same key are handled by the same actor in FIFO
// order, which is how sampling workers serialize all updates touching one
// vertex without locks.
package actor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/graph"
	"helios/internal/metrics"
)

// Pool is a fixed set of actors consuming bounded mailboxes.
type Pool[T any] struct {
	name      string
	mailboxes []chan T
	handler   func(worker int, msg T)
	busy      atomic.Int64
	wg        sync.WaitGroup
	closed    atomic.Bool
	closeOnce sync.Once

	// Handled counts processed messages; Panics counts recovered handler
	// panics (the actor keeps running, matching supervisor semantics).
	Handled metrics.Counter
	Panics  metrics.Counter
}

// NewPool starts `workers` actors, each with a `mailbox`-deep queue,
// invoking handler for every message. handler receives the worker index so
// actors can own per-worker state (e.g. a private RNG) without locks.
func NewPool[T any](name string, workers, mailbox int, handler func(worker int, msg T)) *Pool[T] {
	if workers < 1 {
		panic(fmt.Sprintf("actor: pool %q needs ≥ 1 worker", name))
	}
	if mailbox < 1 {
		mailbox = 1
	}
	p := &Pool[T]{name: name, handler: handler}
	p.mailboxes = make([]chan T, workers)
	for i := range p.mailboxes {
		p.mailboxes[i] = make(chan T, mailbox)
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.run(i)
	}
	return p
}

func (p *Pool[T]) run(worker int) {
	defer p.wg.Done()
	for msg := range p.mailboxes[worker] {
		p.busy.Add(1)
		p.dispatch(worker, msg)
		p.busy.Add(-1)
	}
}

func (p *Pool[T]) dispatch(worker int, msg T) {
	defer func() {
		if r := recover(); r != nil {
			p.Panics.Inc()
		}
	}()
	p.handler(worker, msg)
	p.Handled.Inc()
}

// Workers returns the actor count.
func (p *Pool[T]) Workers() int { return len(p.mailboxes) }

// Send enqueues msg to the actor owning key, blocking while that actor's
// mailbox is full (backpressure toward the producer, which is how a
// sampling worker's polling threads slow down under reservoir-table
// contention rather than dropping updates). Send panics if the pool is
// closed — producers must be stopped first, mirroring the shutdown order
// of the workers.
func (p *Pool[T]) Send(key uint64, msg T) {
	p.mailboxes[p.WorkerFor(key)] <- msg
}

// TrySend enqueues without blocking and reports success.
func (p *Pool[T]) TrySend(key uint64, msg T) bool {
	select {
	case p.mailboxes[p.WorkerFor(key)] <- msg:
		return true
	default:
		return false
	}
}

// WorkerFor returns the actor index owning key. Keys are hashed so raw
// sequential IDs spread evenly, and so external state sharded by the same
// hash (the sampling worker's shards) agrees with message routing.
func (p *Pool[T]) WorkerFor(key uint64) int {
	return int(graph.Hash64(key) % uint64(len(p.mailboxes)))
}

// SendTo enqueues to an explicit worker index.
func (p *Pool[T]) SendTo(worker int, msg T) {
	p.mailboxes[worker] <- msg
}

// Depth returns the queued plus in-flight messages — zero means the pool is
// fully idle, which the cluster quiescence probe relies on.
func (p *Pool[T]) Depth() int {
	total := int(p.busy.Load())
	for _, mb := range p.mailboxes {
		total += len(mb)
	}
	return total
}

// Close stops accepting messages, drains the mailboxes, and waits for the
// actors to finish. Safe to call multiple times.
func (p *Pool[T]) Close() {
	p.closeOnce.Do(func() {
		p.closed.Store(true)
		for _, mb := range p.mailboxes {
			close(mb)
		}
		p.wg.Wait()
	})
}

// Loop runs a set of identical polling goroutines until Stop — the shape of
// the paper's "polling threads continuously fetch the latest updates".
type Loop struct {
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewLoop starts n goroutines running fn(worker) repeatedly until Stop. fn
// returning false also terminates that goroutine (e.g. on broker close).
func NewLoop(n int, fn func(worker int) bool) *Loop {
	l := &Loop{stop: make(chan struct{})}
	l.wg.Add(n)
	for i := 0; i < n; i++ {
		go func(worker int) {
			defer l.wg.Done()
			for {
				select {
				case <-l.stop:
					return
				default:
				}
				if !fn(worker) {
					return
				}
			}
		}(i)
	}
	return l
}

// Every starts one goroutine running fn once per interval until Stop — the
// shape of every periodic control-plane loop (telemetry reports, death
// scans, failover rounds, checkpoints). Stop interrupts the wait between
// runs, so it returns as soon as an in-progress fn does, and fn never runs
// after Stop returns. interval must be positive, as for time.NewTicker.
func Every(interval time.Duration, fn func()) *Loop {
	l := &Loop{stop: make(chan struct{})}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
			}
			// A tick and Stop can be ready together; Stop wins.
			select {
			case <-l.stop:
				return
			default:
			}
			fn()
		}
	}()
	return l
}

// Stop signals the loops and waits for them to exit. fn must return
// promptly (poll with a bounded wait) for Stop to complete.
func (l *Loop) Stop() {
	l.once.Do(func() {
		close(l.stop)
		l.wg.Wait()
	})
}
