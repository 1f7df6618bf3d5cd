package frontend

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"helios/internal/graph"
	"helios/internal/wire"
)

// TestIngestRejectsNonFiniteFeature: a NaN or ±Inf feature value is
// refused before it reaches the broker, with a typed error the HTTP
// gateway maps to 400.
func TestIngestRejectsNonFiniteFeature(t *testing.T) {
	fe := newCoalesceFrontend(t)
	inf := float32(math.Inf(1))
	for _, bad := range [][]float32{{1, float32(math.NaN())}, {inf}, {-inf, 2}} {
		err := fe.Ingest(graph.NewVertexUpdate(graph.Vertex{ID: 1, Feature: bad}))
		if !errors.Is(err, ErrNonFiniteFeature) {
			t.Fatalf("feature %v: err %v, want ErrNonFiniteFeature", bad, err)
		}
		if got := httpStatus(err); got != http.StatusBadRequest {
			t.Fatalf("feature %v: HTTP status %d, want 400", bad, got)
		}
	}
	if n := fe.updates.NextOffset(fe.part.Of(1)); n != 0 {
		t.Fatalf("rejected updates reached the broker: next offset %d", n)
	}
	if err := fe.Ingest(graph.NewVertexUpdate(graph.Vertex{ID: 1, Feature: []float32{1, 2}})); err != nil {
		t.Fatalf("finite feature refused: %v", err)
	}
}

// TestSampleEncodeFailureIs500: an answer JSON cannot encode (a NaN
// feature that reached the cache without passing the gateway) is a 500,
// never a 200 with an empty body.
func TestSampleEncodeFailureIs500(t *testing.T) {
	fe, b := newCoalesceDeployment(t)
	gateway := httptest.NewServer(fe.Handler())
	defer gateway.Close()
	samples, ok := b.Topic(wire.TopicSamples)
	if !ok {
		t.Fatal("samples topic missing")
	}
	m := wire.Message{Kind: wire.KindFeatureUpdate, Vertex: 1, Feature: []float32{float32(math.NaN())}}
	if _, err := samples.Append(0, 1, wire.Encode(&m)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(gateway.URL + "/sample?q=0&seed=1")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusInternalServerError:
			return
		case resp.StatusCode != http.StatusOK:
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		case len(body) == 0:
			t.Fatal("unencodable answer returned as an empty 200")
		case time.Now().After(deadline):
			t.Fatalf("NaN feature never reached the answer: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
