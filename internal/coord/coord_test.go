package coord

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/query"
	"helios/internal/sampling"
)

func testSchema() *graph.Schema {
	s := graph.NewSchema()
	acct := s.AddVertexType("Account")
	s.AddEdgeType("TransferTo", acct, acct)
	return s
}

func TestRegisterAssignsSequentialIDs(t *testing.T) {
	s := testSchema()
	c := New(s)
	q := query.NewBuilder(s, "Account").Out("TransferTo", 2, sampling.TopK).MustBuild("a")
	p1, err := c.Register(q)
	if err != nil {
		t.Fatal(err)
	}
	q2 := q
	q2.Name = "b"
	p2 := c.MustRegister(q2)
	if p1.QueryID != 0 || p2.QueryID != 1 {
		t.Fatalf("IDs: %d %d", p1.QueryID, p2.QueryID)
	}
	if len(c.Plans()) != 2 {
		t.Fatal("plans not recorded")
	}
	if p, ok := c.PlanByName("b"); !ok || p.QueryID != 1 {
		t.Fatal("PlanByName failed")
	}
	if _, ok := c.PlanByName("zzz"); ok {
		t.Fatal("unknown name resolved")
	}
	if c.Schema() != s {
		t.Fatal("schema accessor wrong")
	}
}

func TestRegisterInvalidQuery(t *testing.T) {
	s := testSchema()
	c := New(s)
	if _, err := c.Register(query.Query{}); err == nil {
		t.Fatal("empty query should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister should panic")
		}
	}()
	c.MustRegister(query.Query{})
}

func TestCheckpointLoop(t *testing.T) {
	c := New(testSchema())
	var calls, errs atomic.Int64
	err := c.StartCheckpoints(10*time.Millisecond, func() error {
		if calls.Add(1) == 2 {
			return errors.New("transient")
		}
		return nil
	}, func(error) { errs.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StartCheckpoints(time.Hour, func() error { return nil }, nil); err == nil {
		t.Fatal("double start should fail")
	}
	if err := New(testSchema()).StartCheckpoints(0, func() error { return nil }, nil); err == nil {
		t.Fatal("zero interval should fail")
	}
	time.Sleep(100 * time.Millisecond)
	c.StopCheckpoints()
	if calls.Load() < 3 {
		t.Fatalf("checkpoint fn called %d times", calls.Load())
	}
	if errs.Load() != 1 {
		t.Fatalf("error handler called %d times", errs.Load())
	}
	after := calls.Load()
	time.Sleep(50 * time.Millisecond)
	if calls.Load() != after {
		t.Fatal("checkpoints kept firing after stop")
	}
}

// Every periodic loop must stop without waiting out its interval, and
// must not run after Stop returns: with an hour-long interval, Stop
// returns at once and the loop body never runs.
func TestPeriodicLoopsStopPromptly(t *testing.T) {
	c := New(testSchema())
	var calls atomic.Int64
	if err := c.StartCheckpoints(time.Hour, func() error { calls.Add(1); return nil }, nil); err != nil {
		t.Fatal(err)
	}
	f := NewFailover(FailoverConfig{Coordinator: c, Peers: 3,
		Notify: func(int, mq.PartMap) error { calls.Add(1); return nil }})
	f.Start(time.Hour)

	start := time.Now()
	c.StopCheckpoints()
	f.Stop()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("stopping took %v with 1h intervals", took)
	}
	if calls.Load() != 0 {
		t.Fatalf("loop bodies ran %d times", calls.Load())
	}
}
