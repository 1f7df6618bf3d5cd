package coord

import (
	"testing"
	"time"

	"helios/internal/clock"
)

// TestLeaseStaleThenDead pins the lease rule: each holder is judged by the
// cadence it declared — stale past 3 missed cadences, dead past 6 — so a
// 100ms broker replica and a 1s worker silenced together die at 600ms and
// 6s respectively.
func TestLeaseStaleThenDead(t *testing.T) {
	clk := clock.NewFake()
	c := New(nil).WithClock(clk)
	c.Renew("broker-1", KindBroker, 100*time.Millisecond)
	c.Renew("server-0", KindServer, time.Second)

	health := func(name string) Health {
		t.Helper()
		l, ok := c.Lease(name)
		if !ok {
			t.Fatalf("no lease for %s", name)
		}
		return l.Health
	}
	steps := []struct {
		at             time.Duration // since the last renewal
		broker, server Health
	}{
		{0, Live, Live},
		{300 * time.Millisecond, Live, Live}, // exactly 3 cadences: not yet stale
		{301 * time.Millisecond, Stale, Live},
		{600 * time.Millisecond, Stale, Live},
		{601 * time.Millisecond, Dead, Live},
		{3 * time.Second, Dead, Live},
		{3*time.Second + 1, Dead, Stale},
		{6*time.Second + 1, Dead, Dead},
	}
	var elapsed time.Duration
	for _, st := range steps {
		clk.Advance(st.at - elapsed)
		elapsed = st.at
		if got := health("broker-1"); got != st.broker {
			t.Fatalf("at %v: broker-1 health %d, want %d", st.at, got, st.broker)
		}
		if got := health("server-0"); got != st.server {
			t.Fatalf("at %v: server-0 health %d, want %d", st.at, got, st.server)
		}
	}
	if _, ok := c.Lease("sampler-0"); ok {
		t.Fatal("a holder that never renewed has a lease")
	}
	ls := c.Leases()
	if len(ls) != 2 || ls[0].Name != "broker-1" || ls[1].Name != "server-0" ||
		ls[0].Kind != KindBroker || ls[1].Every != time.Second {
		t.Fatalf("leases = %+v", ls)
	}
}

// A holder that goes silent past the dead threshold and then renews must
// be re-admitted in place, and Sweep must report the death and the
// re-admission exactly once each.
func TestDeadWorkerReadmission(t *testing.T) {
	clk := clock.NewFake()
	c := New(nil).WithClock(clk)
	const every = 500 * time.Millisecond // dead after 3s of silence

	c.Renew("server-0", KindServer, every)
	c.Renew("server-1", KindServer, every)

	// server-1 goes silent; server-0 keeps renewing through the window.
	for i := 0; i < 7; i++ {
		clk.Advance(every)
		c.Renew("server-0", KindServer, every)
	}
	died, revived := c.Sweep()
	if len(died) != 1 || died[0].Name != "server-1" || len(revived) != 0 {
		t.Fatalf("sweep = died %+v revived %+v, want exactly server-1 dead", died, revived)
	}
	if died, revived = c.Sweep(); len(died) != 0 || len(revived) != 0 {
		t.Fatalf("second sweep repeated a transition: died %+v revived %+v", died, revived)
	}

	// The dead holder renews: live again on that frame, not quarantined,
	// and still one lease, not a duplicate registration.
	c.Renew("server-1", KindServer, every)
	if l, _ := c.Lease("server-1"); l.Health != Live || l.Age != 0 {
		t.Fatalf("re-admitted lease = %+v", l)
	}
	died, revived = c.Sweep()
	if len(died) != 0 || len(revived) != 1 || revived[0].Name != "server-1" {
		t.Fatalf("sweep after renewal = died %+v revived %+v", died, revived)
	}
	if ls := c.Leases(); len(ls) != 2 {
		t.Fatalf("leases after re-admission = %+v", ls)
	}
}
