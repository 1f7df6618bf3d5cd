package main

// The load process's side of the gateway: open-loop request streams,
// the bulk load, freshness probes, and the capacity searches.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/graph"
)

// senders bounds the goroutines (and connections) of one request stream:
// one per core, as an application tier on this host would have.
var senders = runtime.NumCPU()

// gateway issues the workload's HTTP calls against the SUT.
type gateway struct {
	base string
	in   *inputs
}

// newClient returns a client with its own pool of at most n connections.
func newClient(n int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
	}}
}

// outcome is what one request reported.
type outcome struct {
	ok    bool
	bytes int    // body bytes, excluding the per-request trace ID
	trace uint64 // /sample only
}

// sampleCall performs GET /sample for seed and checks the answer's
// structure: status 200, well-formed JSON, and layer 0 holding the seed.
// The full comparison with the reference runs in the verification pass.
func (g *gateway) sampleCall(ctx context.Context, hc *http.Client, seed graph.VertexID, buf *bytes.Buffer) outcome {
	body, status, err := g.get(ctx, hc, seed, buf)
	if err != nil || status != http.StatusOK || !json.Valid(body) {
		return outcome{}
	}
	prefix := `{"layers":[[` + strconv.FormatUint(uint64(seed), 10) + `]`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return outcome{}
	}
	id, ok := traceID(body[max(0, len(body)-tailKeep):])
	if !ok {
		return outcome{}
	}
	return outcome{ok: true, bytes: len(body) - len(strconv.FormatUint(id, 16)), trace: id}
}

func (g *gateway) get(ctx context.Context, hc *http.Client, seed graph.VertexID, buf *bytes.Buffer) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		g.base+"/sample?q=0&seed="+strconv.FormatUint(uint64(seed), 10), nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), resp.StatusCode, nil
}

// fetch returns the decoded answer for seed and its size in bytes,
// excluding the per-request trace ID.
func (g *gateway) fetch(ctx context.Context, hc *http.Client, seed graph.VertexID) (*answer, int, error) {
	var buf bytes.Buffer
	body, status, err := g.get(ctx, hc, seed, &buf)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("seed %d: status %d", seed, status)
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, 0, fmt.Errorf("seed %d: %w", seed, err)
	}
	return &a, len(body) - len(a.Trace), nil
}

// post sends one update and reports whether the gateway accepted it.
func (g *gateway) post(ctx context.Context, hc *http.Client, path string, body []byte) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusAccepted
}

// edgeBody and vertexBody render the gateway's ingest JSON. Type names
// come from the dataset spec and need no escaping; floats print in their
// shortest float32 form, so the gateway decodes the exact value.
func (g *gateway) edgeBody(e graph.Edge) []byte {
	b := []byte(`{"src":`)
	b = strconv.AppendUint(b, uint64(e.Src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendUint(b, uint64(e.Dst), 10)
	b = append(b, `,"type":"`...)
	b = append(b, g.in.edgeTypeName(e.Type)...)
	b = append(b, `","ts":`...)
	b = strconv.AppendInt(b, int64(e.Ts), 10)
	b = append(b, `,"weight":`...)
	b = strconv.AppendFloat(b, float64(e.Weight), 'g', -1, 32)
	return append(b, '}')
}

func (g *gateway) vertexBody(v graph.Vertex) []byte {
	b := []byte(`{"id":`)
	b = strconv.AppendUint(b, uint64(v.ID), 10)
	b = append(b, `,"type":"`...)
	b = append(b, g.in.vertexTypeName(v.Type)...)
	b = append(b, `","feature":[`...)
	for i, f := range v.Feature {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(f), 'g', -1, 32)
	}
	return append(b, "]}"...)
}

// bulkLoad sends every loaded update through the gateway from `senders`
// closed-loop senders and returns the number refused.
func (g *gateway) bulkLoad(ctx context.Context) int {
	hc := newClient(senders)
	defer hc.CloseIdleConnections()
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(g.in.load) || ctx.Err() != nil {
					return
				}
				u := g.in.load[i]
				var ok bool
				if u.Kind == graph.UpdateVertex {
					ok = g.post(ctx, hc, "/ingest/vertex", g.vertexBody(u.Vertex))
				} else {
					ok = g.post(ctx, hc, "/ingest/edge", g.edgeBody(u.Edge))
				}
				if !ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(failed.Load())
}

// verify fetches every seed of the fixed verification set and compares
// each answer with the reference. It returns the incorrect answers and
// the bytes the answers took.
func (g *gateway) verify(ctx context.Context) ([]error, int64) {
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	var errs []error
	var total int64
	for _, seed := range g.in.verify {
		a, n, err := g.fetch(ctx, hc, seed)
		if err == nil {
			err = g.in.check(seed, a)
		}
		if err != nil {
			errs = append(errs, err)
		}
		total += int64(n)
	}
	return errs, total
}

// sent is one open-loop request's timing, all relative to the stream's
// start: when it was due, when it completed, how long it waited for a
// free sender (conn) and how late the generator itself ran (late).
type sent struct {
	due, end       time.Duration
	connWait, late time.Duration
	outcome
}

func (r sent) latency() time.Duration { return r.end - r.due }

// openLoop issues count requests, request i due at start + i/rate, from
// `senders` goroutines, each owning one connection of a private pool. A
// request whose sender is still busy at its due time waits (connWait);
// a sender that wakes after the due time is late. Latency runs from the
// due time either way. It stops scheduling when ctx ends, letting requests
// in flight finish; requests not sent are not returned.
func openLoop(ctx context.Context, rate float64, count int, do func(ctx context.Context, hc *http.Client, i int) outcome) []sent {
	reqCtx := context.WithoutCancel(ctx)
	hc := newClient(senders)
	defer hc.CloseIdleConnections()
	out := make([]sent, count)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var freeAt time.Duration
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				due := time.Duration(float64(i) * float64(time.Second) / rate)
				r := sent{due: due}
				if wait := freeAt - due; wait > 0 {
					r.connWait = wait
				}
				ready := max(due, freeAt)
				if d := ready - time.Since(start); d > 0 {
					select {
					case <-ctx.Done():
						return
					case <-time.After(d):
					}
				}
				r.late = time.Since(start) - ready
				r.outcome = do(reqCtx, hc, i)
				r.end = time.Since(start)
				freeAt = r.end
				out[i] = r
			}
		}()
	}
	wg.Wait()
	// A cancelled stream may leave unsent indices between sent ones.
	kept := out[:0]
	for _, r := range out {
		if r.end > 0 {
			kept = append(kept, r)
		}
	}
	return kept
}

// queryStream returns the open-loop body issuing /sample for seeds in
// order, starting at offset off of the seed sequence.
func (g *gateway) queryStream(off int) func(ctx context.Context, hc *http.Client, i int) outcome {
	var bufs sync.Pool
	return func(ctx context.Context, hc *http.Client, i int) outcome {
		buf, _ := bufs.Get().(*bytes.Buffer)
		if buf == nil {
			buf = new(bytes.Buffer)
		}
		defer bufs.Put(buf)
		return g.sampleCall(ctx, hc, g.in.seeds[(off+i)%len(g.in.seeds)], buf)
	}
}

// ingestStream returns the open-loop body posting the ingest stream's
// edges from position *pos on (shared by every phase that ingests, so no
// edge is sent twice).
func (g *gateway) ingestStream(pos *atomic.Int64) func(ctx context.Context, hc *http.Client, i int) outcome {
	return func(ctx context.Context, hc *http.Client, i int) outcome {
		j := int(pos.Add(1) - 1)
		if j >= len(g.in.stream) {
			return outcome{}
		}
		return outcome{ok: g.post(ctx, hc, "/ingest/edge", g.edgeBody(g.in.stream[j]))}
	}
}

// probe is one freshness measurement: from the ingest call to the first
// answer for its source whose first-hop cell holds a timestamp at least
// the probe's.
type probe struct {
	fresh time.Duration
	seen  bool
	polls int // /sample calls made for it
}

// Freshness probing parameters: the pause between probes, the spread of
// the first poll's offset, and when a probe counts as lost. A pending
// probe's source is re-queried back to back, so visibility is seen to
// within one query; offsetting the first poll by a fraction of a query
// (spread evenly over probes) turns that step into an even smear, so the
// median does not jump between "seen by poll one" and "by poll two".
const (
	probeGap     = 40 * time.Millisecond
	probeDither  = 2 * time.Millisecond
	probeTimeout = 2 * time.Second
)

// probes runs freshness probes one at a time until ctx ends, on its own
// connection, and returns them.
func (g *gateway) probes(ctx context.Context, next *atomic.Int64) []probe {
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	var out []probe
	var buf bytes.Buffer
	for ctx.Err() == nil {
		i := int(next.Add(1) - 1)
		e := g.in.probes[i%len(g.in.probes)]
		start := time.Now()
		p := probe{}
		if g.post(ctx, hc, "/ingest/edge", g.edgeBody(e)) {
			frac := math.Mod(float64(i)*0.6180339887, 1)
			time.Sleep(time.Duration(frac * float64(probeDither)))
			for time.Since(start) < probeTimeout && ctx.Err() == nil {
				body, status, err := g.get(ctx, hc, e.Src, &buf)
				p.polls++
				if err == nil && status == http.StatusOK && holdsNewer(body, e.Ts) {
					p.fresh, p.seen = time.Since(start), true
					break
				}
			}
		}
		if ctx.Err() != nil && !p.seen {
			break // cut off by the phase end, not lost
		}
		out = append(out, p)
		select {
		case <-ctx.Done():
		case <-time.After(probeGap):
		}
	}
	return out
}

// holdsNewer reports whether an answer's first-hop edges include a
// timestamp at or above ts.
func holdsNewer(body []byte, ts graph.Timestamp) bool {
	var a struct {
		Edges []struct {
			Hop int   `json:"hop"`
			Ts  int64 `json:"ts"`
		} `json:"edges"`
	}
	if json.Unmarshal(body, &a) != nil {
		return false
	}
	for _, e := range a.Edges {
		if e.Hop == 0 && e.Ts >= int64(ts) {
			return true
		}
	}
	return false
}
