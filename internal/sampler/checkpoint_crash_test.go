package sampler

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"helios/internal/faultpoint"
	"helios/internal/graph"
	"helios/internal/mq"
	"helios/internal/query"
	"helios/internal/wire"
)

// TestTornCheckpointNeverLoaded proves the crash-safety contract of
// CheckpointFile: a crash mid-write (injected via the
// sampler.checkpoint.write faultpoint, which tears the temp file in half
// and aborts with no cleanup) must leave the previous checkpoint under
// path untouched, and the torn remnant must never be accepted by Restore.
func TestTornCheckpointNeverLoaded(t *testing.T) {
	defer faultpoint.Reset()
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	s, xfer := testSchema()
	plan := testPlan(t, s)
	newWorker := func() *Worker {
		w, err := New(Config{
			ID: 0, NumSamplers: 1, NumServers: 1,
			Plans: []*query.Plan{plan}, Schema: s, Broker: b, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := newWorker()
	w.Start()
	defer w.Stop()
	ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: 2, Type: xfer, Ts: 1})
	ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: 3, Type: xfer, Ts: 2})
	drainQuiesce(t, b, w)

	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")

	// A good checkpoint lands first.
	if err := w.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Now crash mid-write on the next attempt.
	faultpoint.ErrorOnce("sampler.checkpoint.write")
	if err := w.CheckpointFile(path); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("torn checkpoint write returned %v, want injected error", err)
	}

	// The published checkpoint is byte-identical to the pre-crash image.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(good) {
		t.Fatal("crash mid-write disturbed the published checkpoint")
	}

	// The torn temp file exists (the crash left it) but Restore refuses it.
	torn, err := os.ReadFile(path + ".tmp")
	if err != nil {
		t.Fatalf("expected a torn temp file: %v", err)
	}
	if len(torn) >= len(good) {
		t.Fatalf("temp file not torn: %d bytes vs %d full", len(torn), len(good))
	}
	w2 := newWorker()
	if err := w2.RestoreFile(path + ".tmp"); err == nil {
		t.Fatal("Restore accepted a torn checkpoint")
	}

	// The intact checkpoint still restores.
	w3 := newWorker()
	if err := w3.RestoreFile(path); err != nil {
		t.Fatalf("intact checkpoint failed to restore: %v", err)
	}
}

// TestCheckpointCoversQueuedPublishes: Checkpoint must not return while
// publishes caused by the events it covers still sit in the publish
// mailboxes or batch buffers — a crash right after it would restore state
// whose messages never reached serving. A slowed mq.append keeps the
// publish actors backlogged long after the sampling shards are done; with
// batching on, an hour-long linger parks the records in the buffers.
func TestCheckpointCoversQueuedPublishes(t *testing.T) {
	for _, batch := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			defer faultpoint.Reset()
			b := mq.NewBroker(mq.Options{})
			defer b.Close()
			w := newBatchingWorker(t, b, batch, time.Hour)
			w.Start()
			defer w.Stop()

			faultpoint.Delay("mq.append", -1, 30*time.Millisecond)
			const edges = 6
			for i := 0; i < edges; i++ {
				ingestEdge(t, b, 1, graph.Edge{Src: 1, Dst: graph.VertexID(i + 2), Type: 0, Ts: graph.Timestamp(i + 1)})
			}
			deadline := time.Now().Add(5 * time.Second)
			for w.Lag() != 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if err := w.Checkpoint(io.Discard); err != nil {
				t.Fatal(err)
			}
			samples, _ := b.Topic(wire.TopicSamples)
			subs, _ := b.Topic(wire.TopicSubs)
			gotSamples, gotSubs := samples.NextOffset(0), subs.NextOffset(0)

			// Stop drains and flushes whatever is still queued.
			faultpoint.Reset()
			w.Stop()
			// Every update pushes a fresh seed snapshot to serving; the
			// subscription deltas on the subs topic are all direct
			// consequences of the updates, so none may arrive later.
			if gotSamples < edges {
				t.Fatalf("samples topic held %d records at checkpoint, want >= %d", gotSamples, edges)
			}
			if want := subs.NextOffset(0); gotSubs != want {
				t.Fatalf("subs topic held %d records at checkpoint, %d after quiescence", gotSubs, want)
			}
		})
	}
}
