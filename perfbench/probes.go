package main

// Timing wrappers the traced run puts around the program's public
// surfaces: every mq.Bus handed to a component, and the gateway handler.
// Each records only while enabled, so one traced process can also run a
// phase with recording off and report the wrappers' overhead.

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/mq"
)

// durations is an append-only list of call times in nanoseconds.
type durations struct {
	mu sync.Mutex
	ns []int64
}

func (d *durations) add(v int64) {
	d.mu.Lock()
	d.ns = append(d.ns, v)
	d.mu.Unlock()
}

func (d *durations) take() []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.ns
	d.ns = nil
	return out
}

// busProbe accumulates one caller's queue traffic.
type busProbe struct {
	enabled                          atomic.Bool
	appends, appendRecs, appendBytes atomic.Int64
	polls, emptyPolls, pollRecs      atomic.Int64
	appendNS, pollNS                 durations
}

// busReport summarises a busProbe over one phase.
type busReport struct {
	Appends, AppendRecords, AppendBytes int64
	Polls, EmptyPolls, PollRecords      int64
	AppendNS, PollNS                    quantiles
}

func (p *busProbe) reset() {
	p.report()
}

func (p *busProbe) report() busReport {
	return busReport{
		Appends: p.appends.Swap(0), AppendRecords: p.appendRecs.Swap(0), AppendBytes: p.appendBytes.Swap(0),
		Polls: p.polls.Swap(0), EmptyPolls: p.emptyPolls.Swap(0), PollRecords: p.pollRecs.Swap(0),
		AppendNS: quantilesOf(p.appendNS.take()), PollNS: quantilesOf(p.pollNS.take()),
	}
}

type probedBus struct {
	mq.Bus
	p *busProbe
}

func (b *probedBus) OpenTopic(name string, partitions int) (mq.TopicHandle, error) {
	t, err := b.Bus.OpenTopic(name, partitions)
	if err != nil {
		return nil, err
	}
	return &probedTopic{TopicHandle: t, p: b.p}, nil
}

type probedTopic struct {
	mq.TopicHandle
	p *busProbe
}

// timed runs one append call, recording it when the probe is enabled.
func (t *probedTopic) timed(recs int, bytes int64, call func() (int64, error)) (int64, error) {
	if !t.p.enabled.Load() {
		return call()
	}
	start := time.Now()
	off, err := call()
	t.p.appendNS.add(time.Since(start).Nanoseconds())
	t.p.appends.Add(1)
	t.p.appendRecs.Add(int64(recs))
	t.p.appendBytes.Add(bytes)
	return off, err
}

func (t *probedTopic) Append(partition int, key uint64, value []byte) (int64, error) {
	return t.timed(1, int64(len(value)), func() (int64, error) {
		return t.TopicHandle.Append(partition, key, value)
	})
}

func (t *probedTopic) AppendBatch(partition int, recs []mq.BatchRecord) (int64, error) {
	var n int64
	for _, r := range recs {
		n += int64(len(r.Value))
	}
	return t.timed(len(recs), n, func() (int64, error) {
		return t.TopicHandle.AppendBatch(partition, recs)
	})
}

func (t *probedTopic) AppendByKey(key uint64, value []byte) (int64, error) {
	return t.timed(1, int64(len(value)), func() (int64, error) {
		return t.TopicHandle.AppendByKey(key, value)
	})
}

func (t *probedTopic) OpenConsumer(partition int, from int64) mq.Cursor {
	return &probedCursor{Cursor: t.TopicHandle.OpenConsumer(partition, from), p: t.p}
}

type probedCursor struct {
	mq.Cursor
	p *busProbe
}

func (c *probedCursor) Poll(max int, wait time.Duration) ([]mq.Record, error) {
	if !c.p.enabled.Load() {
		return c.Cursor.Poll(max, wait)
	}
	start := time.Now()
	recs, err := c.Cursor.Poll(max, wait)
	c.p.pollNS.add(time.Since(start).Nanoseconds())
	c.p.polls.Add(1)
	c.p.pollRecs.Add(int64(len(recs)))
	if len(recs) == 0 {
		c.p.emptyPolls.Add(1)
	}
	return recs, err
}

// handlerProbe times every gateway call. For /sample it also keeps the
// trace ID the frontend wrote into the answer, so the call joins its
// frontend trace and the load process's own timing.
type handlerProbe struct {
	next    http.Handler
	enabled atomic.Bool

	mu      sync.Mutex
	samples []handlerCall
	ingest  []int64
}

type handlerCall struct {
	trace uint64
	ns    int64
}

func (h *handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.enabled.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	tw := &tailWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(tw, r)
	ns := time.Since(start).Nanoseconds()
	h.mu.Lock()
	defer h.mu.Unlock()
	switch r.URL.Path {
	case "/sample":
		if id, ok := traceID(tw.tail); ok {
			h.samples = append(h.samples, handlerCall{trace: id, ns: ns})
		}
	case "/ingest/edge":
		h.ingest = append(h.ingest, ns)
	}
}

func (h *handlerProbe) reset() {
	h.mu.Lock()
	h.samples, h.ingest = nil, nil
	h.mu.Unlock()
}

func (h *handlerProbe) sampleCalls() []handlerCall {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]handlerCall(nil), h.samples...)
}

func (h *handlerProbe) ingestNS() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.ingest...)
}

// tailWriter keeps the last bytes written, where the answer's trace field
// sits.
type tailWriter struct {
	http.ResponseWriter
	tail []byte
}

const tailKeep = 256

func (t *tailWriter) Write(b []byte) (int, error) {
	if len(b) >= tailKeep {
		t.tail = append(t.tail[:0], b[len(b)-tailKeep:]...)
	} else {
		t.tail = append(t.tail, b...)
		if len(t.tail) > tailKeep {
			t.tail = t.tail[len(t.tail)-tailKeep:]
		}
	}
	return t.ResponseWriter.Write(b)
}

var traceKey = []byte(`"trace":"`)

// traceID extracts the hex trace ID from the tail of a /sample answer.
func traceID(body []byte) (uint64, bool) {
	i := bytes.LastIndex(body, traceKey)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(traceKey):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return 0, false
	}
	id, err := strconv.ParseUint(string(rest[:j]), 16, 64)
	return id, err == nil
}
