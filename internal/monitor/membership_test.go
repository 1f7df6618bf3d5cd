package monitor

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"helios/internal/clock"
	"helios/internal/coord"
	"helios/internal/mq"
	"helios/internal/obs"
)

// TestMembershipAgreement renews leases for a sampler, a server, a
// frontend (telemetry, 1s cadence) and three broker replicas (replication
// reports, 250ms cadence), silences one of each kind step by step, and
// revives two of them. At every 250ms step the /cluster worker flags, the
// cluster.*_workers gauges and the failover controller's dead set must
// agree exactly with each other and with the lease rule (stale past 3
// missed cadences, dead past 6). Each death is logged and captured once,
// each re-admission logged once.
func TestMembershipAgreement(t *testing.T) {
	clk := clock.NewFake()
	leases := coord.New(nil).WithClock(clk)
	reg := obs.NewRegistry()
	var logs bytes.Buffer
	fr, err := NewFlightRecorder(t.TempDir(), 16, clk)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(leases, CollectorConfig{
		Interval: time.Second,
		Registry: reg,
		Recorder: fr,
		Logger:   obs.NewLogger(&logs, "test"),
	})
	f := coord.NewFailover(coord.FailoverConfig{Coordinator: leases, Peers: 3})

	const (
		step      = 250 * time.Millisecond
		telemetry = time.Second
		reports   = 250 * time.Millisecond
	)
	type holder struct {
		name        string
		every       time.Duration
		silentFrom  int // first step it does not renew at (-1: never)
		revivedAt   int // step it renews again (-1: never)
		lastRenewed time.Duration
	}
	holders := []*holder{
		{name: "sampler-0", every: telemetry, silentFrom: -1, revivedAt: -1},
		{name: "server-0", every: telemetry, silentFrom: 5, revivedAt: 40},
		{name: "frontend-0", every: telemetry, silentFrom: 9, revivedAt: -1},
		{name: coord.BrokerName(0), every: reports, silentFrom: -1, revivedAt: -1},
		{name: coord.BrokerName(1), every: reports, silentFrom: 2, revivedAt: 44},
		{name: coord.BrokerName(2), every: reports, silentFrom: -1, revivedAt: -1},
	}
	kinds := map[string]string{"sampler-0": "sampler", "server-0": "server", "frontend-0": "frontend"}
	// Broker i leads partition i of topic t by default; every replica
	// holds every partition.
	offsets := []mq.ReplEntry{{Topic: "t", Partition: 0, Next: 5}, {Topic: "t", Partition: 1, Next: 5}, {Topic: "t", Partition: 2, Next: 5}}

	var seq uint64
	for k := 0; k <= 52; k++ {
		now := time.Duration(k) * step
		if k > 0 {
			clk.Advance(step)
		}
		for i, h := range holders {
			silent := h.silentFrom >= 0 && k >= h.silentFrom && (h.revivedAt < 0 || k < h.revivedAt)
			if silent || now%h.every != 0 && k != h.revivedAt {
				continue
			}
			h.lastRenewed = now
			if h.every == reports {
				f.Report(i-3, reports, offsets)
				continue
			}
			seq++
			c.OnSnapshot(&WorkerSnapshot{Name: h.name, Kind: kinds[h.name], Seq: seq, StartNS: 1,
				NowNS: int64(now), EveryNS: int64(telemetry)})
		}
		f.Step()
		c.Tick()

		want := make(map[string]string)
		wantStale, wantDead := 0, 0
		var wantDeadBrokers []string
		for _, h := range holders {
			age := now - h.lastRenewed
			switch {
			case age > 6*h.every:
				want[h.name] = "dead"
				wantDead++
				if h.every == reports {
					wantDeadBrokers = append(wantDeadBrokers, h.name)
				}
			case age > 3*h.every:
				want[h.name] = "stale"
				wantStale++
			default:
				want[h.name] = "live"
			}
		}

		v := c.View()
		if len(v.Workers) != len(holders) {
			t.Fatalf("step %d: view lists %d workers, want %d", k, len(v.Workers), len(holders))
		}
		for _, w := range v.Workers {
			got := "live"
			if w.Dead {
				got = "dead"
			} else if w.Stale {
				got = "stale"
			}
			if got != want[w.Name] {
				t.Fatalf("step %d (t=%v): /cluster shows %s %s, lease rule says %s", k, now, w.Name, got, want[w.Name])
			}
		}
		g := reg.Snapshot().Gauges
		if g["cluster.workers"] != int64(len(holders)) || g["cluster.stale_workers"] != int64(wantStale) ||
			g["cluster.dead_workers"] != int64(wantDead) {
			t.Fatalf("step %d (t=%v): gauges workers/stale/dead = %d/%d/%d, want %d/%d/%d", k, now,
				g["cluster.workers"], g["cluster.stale_workers"], g["cluster.dead_workers"],
				len(holders), wantStale, wantDead)
		}
		var gotDeadBrokers []string
		for _, i := range f.DeadReplicas() {
			gotDeadBrokers = append(gotDeadBrokers, coord.BrokerName(i))
		}
		sort.Strings(wantDeadBrokers)
		if fmt.Sprint(gotDeadBrokers) != fmt.Sprint(wantDeadBrokers) {
			t.Fatalf("step %d (t=%v): failover dead set %v, lease rule says %v", k, now, gotDeadBrokers, wantDeadBrokers)
		}
		// The controller acts on that set: a dead leader's partition has
		// been promoted away by this step's round.
		if pm := f.PartMap(); want[coord.BrokerName(1)] == "dead" && pm.Leader("t", 1, 3) == 1 {
			t.Fatalf("step %d: dead broker-1 still leads t/1", k)
		}
	}

	// broker-1 last renewed at 250ms and was dead from 2s; server-0 and
	// frontend-0 last renewed at 1s and 2s and were dead past 7s and 8s.
	// Only the leader's death promotes anything.
	if f.Failovers.Value() != 1 {
		t.Fatalf("failovers = %d, want 1", f.Failovers.Value())
	}
	for _, name := range []string{"server-0", "frontend-0", coord.BrokerName(1)} {
		if n := countLines(logs.String(), "worker dead", name); n != 1 {
			t.Fatalf("%s death logged %d times, want 1", name, n)
		}
	}
	for name, want := range map[string]int{"server-0": 1, coord.BrokerName(1): 1, "frontend-0": 0, "sampler-0": 0} {
		if n := countLines(logs.String(), "worker re-admitted", name); n != want {
			t.Fatalf("%s re-admission logged %d times, want %d", name, n, want)
		}
	}
	paths, err := fr.List()
	if err != nil {
		t.Fatal(err)
	}
	var captured []string
	for _, p := range paths {
		doc, err := ReadCapture(p)
		if err != nil {
			t.Fatal(err)
		}
		if doc.Reason == "worker_death" {
			captured = append(captured, doc.Worker)
		}
	}
	sort.Strings(captured)
	if fmt.Sprint(captured) != fmt.Sprint([]string{coord.BrokerName(1), "frontend-0", "server-0"}) {
		t.Fatalf("death captures for %v, want one each for broker-1, frontend-0, server-0", captured)
	}
}

// countLines counts log lines carrying msg for the named worker.
func countLines(logs, msg, worker string) int {
	n := 0
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, `"`+msg+`"`) && strings.Contains(line, `"worker":"`+worker+`"`) {
			n++
		}
	}
	return n
}

// Stop must interrupt the wait between reports and death scans: with an
// hour-long interval both return at once, and neither loop runs.
func TestReporterAndCollectorStopPromptly(t *testing.T) {
	c := NewCollector(coord.New(nil), CollectorConfig{Interval: time.Hour})
	var reports int
	r := NewReporter(ReporterConfig{Name: "server-0", Kind: "server", Every: time.Hour,
		Sink: sinkFunc(func(*WorkerSnapshot) error { reports++; return nil })})
	c.Start()
	r.Start()
	start := time.Now()
	r.Stop()
	c.Stop()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("stopping took %v with 1h intervals", took)
	}
	if reports != 0 {
		t.Fatalf("reporter ran %d times", reports)
	}
}

type sinkFunc func(*WorkerSnapshot) error

func (f sinkFunc) Report(s *WorkerSnapshot) error { return f(s) }
