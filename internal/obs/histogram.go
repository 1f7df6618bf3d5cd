package obs

import (
	"sync/atomic"
	"time"

	"helios/internal/clock"
	"helios/internal/metrics"
)

// Histogram is an exponential-bucket latency histogram with *trace
// exemplars*: alongside the lock-free bucket counters (internal/metrics,
// ~4.6% relative error per bucket) each bucket remembers the most recent
// traced observation that landed in it — its trace ID, exact value and
// observation timestamp. That is the join key the tail-attribution story
// needs: /metrics says p99 moved, the p99 bucket's exemplar names a trace
// ID, and /traces resolves that ID to a per-stage span breakdown.
//
// Observe is safe for concurrent use. Untraced observations (trace 0) pay
// only the base histogram's atomic increments; the exemplar store and any
// attached SLO accounting run only when a trace ID or SLO is present, so
// untraced hot-path traffic never reads the clock here.
type Histogram struct {
	base metrics.Histogram
	// clk stamps exemplars and SLO windows. Stored via atomic.Value so
	// WithClock can race a concurrent Observe (registries are shared).
	clk       atomic.Value           // clock.Clock
	slos      atomic.Pointer[[]*SLO] // copy-on-attach
	exemplars [metrics.NumBuckets]atomic.Pointer[exemplarRec]
}

// exemplarRec is the per-bucket exemplar cell. A whole-struct pointer swap
// keeps the three fields consistent without a lock.
type exemplarRec struct {
	trace uint64
	value int64
	ts    int64
}

// NewHistogram returns an exemplar histogram on the wall clock.
func NewHistogram() *Histogram { return &Histogram{} }

// WithClock sets the clock used to timestamp exemplars and rotate SLO
// windows, returning h for chaining. Tests inject a fake so exemplar
// replacement is deterministic.
func (h *Histogram) WithClock(clk clock.Clock) *Histogram {
	if clk != nil {
		h.clk.Store(clk)
	}
	return h
}

func (h *Histogram) now() int64 {
	if c, ok := h.clk.Load().(clock.Clock); ok {
		return c.Now().UnixNano()
	}
	return time.Now().UnixNano()
}

// AttachSLO routes every observation (traced or not) into s's rolling
// good/bad accounting, so one Observe on the hot path feeds both the
// histogram and the burn-rate math. An attached SLO with the same Name is
// replaced, so re-targeting an objective never double-counts.
func (h *Histogram) AttachSLO(s *SLO) {
	if s == nil {
		return
	}
	for {
		cur := h.slos.Load()
		var old []*SLO
		if cur != nil {
			old = *cur
		}
		next := make([]*SLO, 0, len(old)+1)
		for _, have := range old {
			if have == s {
				return
			}
			if have.Name != s.Name {
				next = append(next, have)
			}
		}
		next = append(next, s)
		if h.slos.CompareAndSwap(cur, &next) {
			return
		}
	}
}

// Observe records one sample (nanoseconds). A nonzero trace installs the
// sample as the exemplar of its bucket, replacing whatever traced sample
// landed there before (latest-wins).
func (h *Histogram) Observe(v int64, trace uint64) {
	h.base.Record(v)
	var slos []*SLO
	if p := h.slos.Load(); p != nil {
		slos = *p
	}
	if trace == 0 && len(slos) == 0 {
		return
	}
	now := h.now()
	for _, s := range slos {
		s.observe(v, now)
	}
	if trace != 0 {
		h.exemplars[metrics.BucketIndex(v)].Store(&exemplarRec{trace: trace, value: v, ts: now})
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.base.Count() }

// Quantile returns an upper bound on the q-quantile.
func (h *Histogram) Quantile(q float64) int64 { return h.base.Quantile(q) }

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.base.Max() }

// Exemplar is one traced observation pinned to a histogram bucket, in the
// shape served by /metrics?format=json.
type Exemplar struct {
	// Trace is the hex trace ID — the key to look up on /traces.
	Trace string `json:"trace"`
	// Value is the exact observed sample in nanoseconds.
	Value int64 `json:"value_ns"`
	// TS is when the sample was observed (clock nanoseconds).
	TS int64 `json:"ts_ns"`
	// LE is the upper bound of the bucket the sample landed in.
	LE int64 `json:"le_ns"`
}

// ExemplarNear returns the exemplar of the bucket closest to the
// q-quantile (searching outward from the quantile's bucket), so callers
// can ask "which trace looked like the p99" even when the exact p99
// bucket holds no traced sample.
func (h *Histogram) ExemplarNear(q float64) (Exemplar, bool) {
	if h.base.Count() == 0 {
		return Exemplar{}, false
	}
	at := metrics.BucketIndex(h.base.Quantile(q))
	if rec := h.exemplars[at].Load(); rec != nil {
		return exemplarOut(rec, at), true
	}
	for d := 1; d < metrics.NumBuckets; d++ {
		for _, idx := range [2]int{at - d, at + d} {
			if idx < 0 || idx >= metrics.NumBuckets {
				continue
			}
			if rec := h.exemplars[idx].Load(); rec != nil {
				return exemplarOut(rec, idx), true
			}
		}
	}
	return Exemplar{}, false
}

func exemplarOut(rec *exemplarRec, idx int) Exemplar {
	return Exemplar{
		Trace: TraceHex(rec.trace),
		Value: rec.value,
		TS:    rec.ts,
		LE:    metrics.BucketBound(idx),
	}
}

// HistSnapshot is a point-in-time summary of an exemplar histogram:
// tail quantiles through p999 plus every bucket exemplar currently held.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	Max   int64   `json:"max"`
	// P99Exemplar is the hex trace ID of the exemplar nearest the p99
	// bucket — the one-hop link from a tail quantile to /traces.
	P99Exemplar string `json:"p99_exemplar,omitempty"`
	// Exemplars lists the held bucket exemplars in ascending bucket order.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot summarizes the histogram and its exemplars.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.base.Count(),
		Mean:  h.base.Mean(),
		P50:   h.base.Quantile(0.50),
		P90:   h.base.Quantile(0.90),
		P99:   h.base.Quantile(0.99),
		P999:  h.base.Quantile(0.999),
		Max:   h.base.Max(),
	}
	for idx := 0; idx < metrics.NumBuckets; idx++ {
		if rec := h.exemplars[idx].Load(); rec != nil {
			s.Exemplars = append(s.Exemplars, exemplarOut(rec, idx))
		}
	}
	if ex, ok := h.ExemplarNear(0.99); ok {
		s.P99Exemplar = ex.Trace
	}
	return s
}

// Reset zeroes the histogram and drops all exemplars. Not atomic with
// respect to concurrent Observe; for use between experiment phases.
func (h *Histogram) Reset() {
	h.base.Reset()
	for i := range h.exemplars {
		h.exemplars[i].Store(nil)
	}
}
