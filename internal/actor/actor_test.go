package actor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolProcessesAll(t *testing.T) {
	var sum atomic.Int64
	p := NewPool("test", 4, 16, func(_ int, msg int64) {
		sum.Add(msg)
	})
	for i := int64(1); i <= 1000; i++ {
		p.Send(uint64(i), i)
	}
	p.Close()
	if sum.Load() != 1000*1001/2 {
		t.Fatalf("sum = %d", sum.Load())
	}
	if p.Handled.Value() != 1000 {
		t.Fatalf("handled = %d", p.Handled.Value())
	}
	if p.Workers() != 4 {
		t.Fatal("workers wrong")
	}
}

func TestPoolKeyOrdering(t *testing.T) {
	// Messages with the same key must be handled in send order.
	const perKey = 500
	var mu sync.Mutex
	got := map[uint64][]int{}
	p := NewPool("order", 8, 4, func(_ int, msg [2]int) {
		mu.Lock()
		got[uint64(msg[0])] = append(got[uint64(msg[0])], msg[1])
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for key := 0; key < 4; key++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < perKey; i++ {
				p.Send(uint64(k), [2]int{k, i})
			}
		}(key)
	}
	wg.Wait()
	p.Close()
	for key, seq := range got {
		if len(seq) != perKey {
			t.Fatalf("key %d: %d messages", key, len(seq))
		}
		for i, v := range seq {
			if v != i {
				t.Fatalf("key %d out of order at %d: %d", key, i, v)
			}
		}
	}
}

func TestPoolSameKeySameWorker(t *testing.T) {
	var mu sync.Mutex
	workers := map[uint64]map[int]bool{}
	p := NewPool("affinity", 7, 8, func(w int, key uint64) {
		mu.Lock()
		if workers[key] == nil {
			workers[key] = map[int]bool{}
		}
		workers[key][w] = true
		mu.Unlock()
	})
	for i := 0; i < 2000; i++ {
		key := uint64(i % 13)
		p.Send(key, key)
	}
	p.Close()
	for key, ws := range workers {
		if len(ws) != 1 {
			t.Fatalf("key %d handled by %d workers", key, len(ws))
		}
	}
}

func TestPoolPanicRecovery(t *testing.T) {
	var handled atomic.Int64
	p := NewPool("panicky", 1, 4, func(_ int, msg int) {
		if msg == 13 {
			panic("unlucky")
		}
		handled.Add(1)
	})
	for i := 0; i < 20; i++ {
		p.Send(0, i)
	}
	p.Close()
	if p.Panics.Value() != 1 {
		t.Fatalf("panics = %d", p.Panics.Value())
	}
	if handled.Load() != 19 {
		t.Fatalf("handled = %d (actor should survive a panic)", handled.Load())
	}
}

func TestTrySend(t *testing.T) {
	block := make(chan struct{})
	p := NewPool("full", 1, 1, func(_ int, _ int) {
		<-block
	})
	p.Send(0, 1) // picked up by the actor, which blocks
	time.Sleep(10 * time.Millisecond)
	p.Send(0, 2) // fills the mailbox
	if p.TrySend(0, 3) {
		t.Fatal("TrySend should fail on a full mailbox")
	}
	// One message queued plus one in flight (blocked in the handler).
	if p.Depth() != 2 {
		t.Fatalf("depth = %d", p.Depth())
	}
	close(block)
	p.Close()
}

func TestSendTo(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	p := NewPool("direct", 3, 4, func(w int, _ struct{}) {
		mu.Lock()
		seen[w]++
		mu.Unlock()
	})
	for i := 0; i < 9; i++ {
		p.SendTo(i%3, struct{}{})
	}
	p.Close()
	for w := 0; w < 3; w++ {
		if seen[w] != 3 {
			t.Fatalf("worker %d handled %d", w, seen[w])
		}
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool("idem", 2, 2, func(_ int, _ int) {})
	p.Close()
	p.Close() // must not panic
}

func TestNewPoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero workers should panic")
		}
	}()
	NewPool("bad", 0, 1, func(_ int, _ int) {})
}

func TestLoop(t *testing.T) {
	var ticks atomic.Int64
	l := NewLoop(3, func(_ int) bool {
		ticks.Add(1)
		time.Sleep(time.Millisecond)
		return true
	})
	time.Sleep(30 * time.Millisecond)
	l.Stop()
	after := ticks.Load()
	if after == 0 {
		t.Fatal("loop never ran")
	}
	time.Sleep(20 * time.Millisecond)
	if ticks.Load() != after {
		t.Fatal("loop kept running after Stop")
	}
	l.Stop() // idempotent
}

func TestLoopSelfTermination(t *testing.T) {
	var ran atomic.Int64
	l := NewLoop(1, func(_ int) bool {
		ran.Add(1)
		return false
	})
	time.Sleep(10 * time.Millisecond)
	if ran.Load() != 1 {
		t.Fatalf("ran = %d, want exactly 1", ran.Load())
	}
	l.Stop()
}

func TestEveryRunsPeriodically(t *testing.T) {
	var ran atomic.Int64
	l := Every(time.Millisecond, func() { ran.Add(1) })
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("ran %d times in 5s at a 1ms interval", ran.Load())
		}
		time.Sleep(time.Millisecond)
	}
	l.Stop()
	after := ran.Load()
	time.Sleep(20 * time.Millisecond)
	if ran.Load() != after {
		t.Fatal("fn ran after Stop returned")
	}
	l.Stop() // idempotent
}

// Stop must interrupt the wait between runs: with an hour-long interval it
// returns at once, and fn never runs at all.
func TestEveryStopInterruptsWait(t *testing.T) {
	var ran atomic.Int64
	l := Every(time.Hour, func() { ran.Add(1) })
	start := time.Now()
	l.Stop()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("Stop took %v with a 1h interval", took)
	}
	if ran.Load() != 0 {
		t.Fatalf("fn ran %d times", ran.Load())
	}
}

func BenchmarkPoolSend(b *testing.B) {
	p := NewPool("bench", 8, 1024, func(_ int, _ uint64) {})
	defer p.Close()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var key uint64
		for pb.Next() {
			p.Send(key, key)
			key++
		}
	})
}
