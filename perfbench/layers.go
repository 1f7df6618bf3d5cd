package main

// Per-layer metrics of the traced run and the stage accounting that closes
// every traced request.
//
// A traced /sample request's end-to-end time (from its due time to the
// answer) splits into self-times that sum to it exactly:
//
//	load.conn_wait     waiting for a free sender/connection
//	load.late          the generator waking after the request was ready
//	unattributed       client send to answer, minus the gateway handler
//	                   (HTTP client, loopback, net/http outside the handler)
//	frontend.http_self gateway handler minus the frontend.request span
//	                   (query parsing, admission, JSON encoding)
//	rpc.transport      frontend.request minus the serving spans
//	serving.queue_wait, serving.khop, serving.feature
//
// Each is a span minus the child spans it contains. A request "closes"
// when none of them is negative, i.e. every child span lies inside its
// parent; the count that does not is published as trace.unclosed.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"helios/internal/obs"
)

// layerMetric documents one per-layer metric: its unit and the end-to-end
// metric (and workload) it should move. BENCHMARK.json lists the same
// names and units.
type layerMetric struct {
	name, unit, moves string
}

var layerTable = []layerMetric{
	{"frontend.http_ms.p50", "ms", "query_p50_ms.* and sustained_qps on read-taobao (fixed cost) and read-inter (37 KB JSON)"},
	{"frontend.http_ms.p99", "ms", "query_p99_ms.* on read-*"},
	{"frontend.http_self_ms.p50", "ms", "query_p50_ms.* on read-*; not freshness"},
	{"frontend.http_self_ms.p99", "ms", "query_p99_ms.* on read-*"},
	{"frontend.resp_bytes_per_query", "bytes", "query_p50_ms.* and sustained_qps on read-inter"},
	{"frontend.request_ms.p50", "ms", "query_p50_ms.* on read-*"},
	{"frontend.request_ms.p99", "ms", "query_p99_ms.* on read-*"},
	{"frontend.admission_ms.p99", "ms", "query_p99_ms.* on read-*"},
	{"frontend.ingest_http_ms.p50", "ms", "sustained_ingest_ups on mixed-inter"},
	{"frontend.ingest_http_ms.p99", "ms", "sustained_ingest_ups on mixed-inter"},
	{"rpc.transport_ms.p50", "ms", "query_p50_ms.* on read-taobao"},
	{"rpc.transport_ms.p99", "ms", "query_p99_ms.* on read-taobao"},
	{"rpc.serving_frames_per_query", "count", "query_p50_ms.* on read-taobao"},
	{"rpc.broker_frames_per_update", "count", "setup_s and sustained_ingest_ups"},
	{"serving.queue_wait_ms.p50", "ms", "query_p50_ms.high on read-*"},
	{"serving.queue_wait_ms.p99", "ms", "query_p99_ms.high on read-*"},
	{"serving.khop_ms.p50", "ms", "query_p50_ms.* and sustained_qps on read-inter; little on read-taobao"},
	{"serving.khop_ms.p99", "ms", "query_p99_ms.* on read-inter"},
	{"serving.feature_ms.p50", "ms", "query_p50_ms.* and sustained_qps on read-inter; little on read-taobao"},
	{"serving.feature_ms.p99", "ms", "query_p99_ms.* on read-inter"},
	{"serving.encode_ms.p50", "ms", "query_p50_ms.* on read-inter"},
	{"serving.encode_ms.p99", "ms", "query_p99_ms.* on read-inter"},
	{"serving.sample_miss_ratio", "ratio", "none: a property of the dataset (half the sample lookups miss on read-taobao)"},
	{"serving.applied_per_update", "count", "setup_s and sustained_ingest_ups"},
	{"serving.update_depth_max", "count", "freshness_p99_ms and sustained_ingest_ups on mixed-inter"},
	{"serving.lag_max", "count", "freshness_p99_ms and sustained_ingest_ups on mixed-inter"},
	{"serving.ingest_to_apply_ms.p50", "ms", "freshness_p50_ms on mixed-inter"},
	{"serving.ingest_to_apply_ms.p99", "ms", "freshness_p99_ms on mixed-inter"},
	{"serving.cache_bytes_per_entry", "bytes", "heap_mb"},
	{"kvstore.gets_per_query", "count", "query_p50_ms.* and sustained_qps on read-inter (158/query), not read-taobao (7/query)"},
	{"kvstore.get_ns.p50", "ns", "query_p50_ms.* and sustained_qps on read-inter"},
	{"kvstore.get_ns.p99", "ns", "query_p99_ms.* on read-inter"},
	{"mq.append_ms.frontend.p50", "ms", "sustained_ingest_ups and setup_s"},
	{"mq.append_ms.frontend.p99", "ms", "freshness_p99_ms on mixed-inter"},
	{"mq.append_ms.sampler.p50", "ms", "freshness_p50_ms and sustained_ingest_ups on mixed-inter; setup_s"},
	{"mq.append_ms.sampler.p99", "ms", "freshness_p99_ms on mixed-inter"},
	{"mq.poll_ms.sampler.p50", "ms", "freshness_p50_ms on mixed-inter (poll wake-up)"},
	{"mq.poll_ms.sampler.p99", "ms", "freshness_p99_ms on mixed-inter"},
	{"mq.poll_ms.serving.p50", "ms", "freshness_p50_ms on mixed-inter (poll wake-up)"},
	{"mq.poll_ms.serving.p99", "ms", "freshness_p99_ms on mixed-inter"},
	{"mq.appends_per_update", "count", "setup_s and sustained_ingest_ups (gateway routing; deterministic)"},
	{"mq.pipeline_appends_per_update", "count", "setup_s and sustained_ingest_ups (every caller; varies with subscription timing)"},
	{"mq.append_bytes_per_update", "bytes", "setup_s and sustained_ingest_ups"},
	{"mq.records_per_poll", "count", "setup_s and sustained_ingest_ups"},
	{"mq.empty_poll_ratio", "ratio", "freshness_p50_ms on mixed-inter; no change on read-*"},
	{"mq.backlog_max", "count", "freshness_p99_ms and sustained_ingest_ups on mixed-inter"},
	{"sampler.refresh_us.p50", "us", "sustained_ingest_ups and setup_s"},
	{"sampler.refresh_us.p99", "us", "freshness_p99_ms on mixed-inter"},
	{"sampler.admit_ratio", "ratio", "none: a property of the stream (TopK admits every newer edge)"},
	{"sampler.msgs_per_update", "count", "sustained_ingest_ups and setup_s"},
	{"sampler.depth_max", "count", "setup_s and freshness_p99_ms"},
	{"runtime.allocs_per_query", "count", "sustained_qps and query_p99_ms.high"},
	{"runtime.alloc_bytes_per_query", "bytes", "sustained_qps and query_p99_ms.high"},
	{"runtime.alloc_bytes_per_update", "bytes", "sustained_ingest_ups and setup_s"},
	{"runtime.gc_cpu_fraction", "ratio", "sustained_qps and query_p99_ms.high"},
	{"sut.cpu_ms_per_query", "ms", "sustained_qps (least noisy work measure on a shared host)"},
	{"sut.cpu_ms_per_update", "ms", "sustained_ingest_ups and setup_s"},
	{"unattributed_ms.p50", "ms", "residual every layer claim must not hide in"},
	{"unattributed_ms.p99", "ms", "residual every layer claim must not hide in"},
	{"load.late_ms.p99", "ms", "run validity"},
	{"load.conn_wait_ms.p99", "ms", "run validity; grows as query_p99_ms.* does"},
	{"trace.overhead_pct", "%", "run validity"},
	{"trace.requests", "count", "run validity: traced requests joined across processes"},
	{"trace.unclosed", "count", "run validity: requests whose stage accounting does not close"},
	{"sustained_qps", "req/s", "end-to-end query capacity; moves with other tenants' CPU use on a shared host, too noisy to bound"},
	{"sustained_ingest_ups", "updates/s", "end-to-end ingest capacity; moves with other tenants' CPU use on a shared host, too noisy to bound"},
	{"query_p50_ms.high", "ms", "end-to-end median at the high rate; moves with other tenants' CPU use on a shared host, too noisy to bound"},
	{"query_p99_ms.low", "ms", "end-to-end tail at the low rate; too noisy on a shared 2-core host to bound"},
	{"query_p99_ms.high", "ms", "end-to-end tail at the high rate; too noisy on a shared 2-core host to bound"},
	{"freshness_p99_ms", "ms", "end-to-end freshness tail; too noisy on a shared 2-core host to bound"},
	{"query_fail_ratio", "ratio", "every query metric: a failure misses every limit"},
	{"ingest_fail_ratio", "ratio", "freshness and sustained_ingest_ups: a lost probe misses every limit"},
}

func layerUnit(name string) string {
	for _, l := range layerTable {
		if l.name == name {
			return l.unit
		}
	}
	return ""
}

// layerMetrics fills m from the traced run: the setup (bulk load) report,
// the verification pass (deterministic work counters), and the low phase
// run with the wrappers off (plain) and on (low).
func layerMetrics(m map[string]metric, in *inputs, setup, verify *phaseReport, verifyBytes int64, plain, low *phase) {
	set := func(name string, v float64) { m[name] = metric{v, layerUnit(name)} }
	set2 := func(prefix string, q quantiles, scale float64) {
		set(prefix+".p50", float64(q.P50)/scale)
		set(prefix+".p99", float64(q.P99)/scale)
	}
	stage := func(rep *phaseReport, name, prefix string, scale float64) {
		h := rep.Stages[name]
		set(prefix+".p50", float64(h.P50)/scale)
		set(prefix+".p99", float64(h.P99)/scale)
	}

	// Per-request stage accounting over the traced low phase.
	byID := make(map[uint64]sampleRecord, len(low.samples))
	for _, r := range low.samples {
		byID[r.TraceID] = r
	}
	var http, self, req, rpcT, qw, khop, feat, unattr []int64
	unclosed := 0
	for _, q := range low.queries {
		rec, ok := byID[q.trace]
		if !q.ok || !ok || rec.Trace == nil {
			continue
		}
		client := (q.latency() - q.connWait - q.late).Nanoseconds()
		h, t := rec.HandlerNS, rec.Trace.Total
		spans := map[string]int64{}
		var sum int64
		for _, s := range rec.Trace.Spans {
			spans[s.Name] += s.Dur
			sum += s.Dur
		}
		if h > client || t > h || sum != t {
			unclosed++
		}
		http = append(http, h)
		self = append(self, h-t)
		req = append(req, t)
		rpcT = append(rpcT, spans[obs.StageFrontendRPC])
		qw = append(qw, spans[obs.StageServingQueueWait])
		khop = append(khop, spans[obs.StageServingKHop])
		feat = append(feat, spans[obs.StageServingFeature])
		unattr = append(unattr, client-h)
	}
	set("trace.requests", float64(len(http)))
	set("trace.unclosed", float64(unclosed))
	set2("frontend.http_ms", quantilesOf(http), 1e6)
	set2("frontend.http_self_ms", quantilesOf(self), 1e6)
	set2("frontend.request_ms", quantilesOf(req), 1e6)
	set2("rpc.transport_ms", quantilesOf(rpcT), 1e6)
	set2("serving.queue_wait_ms", quantilesOf(qw), 1e6)
	set2("serving.khop_ms", quantilesOf(khop), 1e6)
	set2("serving.feature_ms", quantilesOf(feat), 1e6)
	set2("unattributed_ms", quantilesOf(unattr), 1e6)
	var late, wait []int64
	for _, q := range low.queries {
		late = append(late, q.late.Nanoseconds())
		wait = append(wait, q.connWait.Nanoseconds())
	}
	set("load.late_ms.p99", ms(quantilesOf(late).P99))
	set("load.conn_wait_ms.p99", ms(quantilesOf(wait).P99))
	p50 := func(ph *phase) float64 { return float64(quantilesOf(latencies(ph.queries)).P50) }
	set("trace.overhead_pct", 100*(p50(low)-p50(plain))/p50(plain))

	// Registry stages (bucket upper bounds) over the low phase.
	lr := low.rep
	set("frontend.admission_ms.p99", ms(lr.Stages[obs.StageFrontendAdmission].P99))
	stage(lr, obs.StageServingEncode, "serving.encode_ms", 1e6)
	stage(lr, obs.StageKVGet, "kvstore.get_ns", 1)
	// serving.cache_apply records now − ingest time at apply: it is the
	// ingest-to-apply lag, published under that name, not an apply cost.
	stage(lr, obs.StageServingCacheApply, "serving.ingest_to_apply_ms", 1e6)
	stage(setup, obs.StageSamplerRefresh, "sampler.refresh_us", 1e3)

	// Deterministic work counters over the verification pass.
	nv := float64(len(in.verify))
	set("kvstore.gets_per_query", ratio(float64(verify.SampleHits+verify.SampleMisses+verify.FeatureHits+verify.FeatureMisses), float64(verify.Served)))
	set("rpc.serving_frames_per_query", ratio(float64(verify.ServingFrames), nv))
	set("frontend.resp_bytes_per_query", ratio(float64(verifyBytes), nv))
	set("serving.sample_miss_ratio", ratio(float64(verify.SampleMisses), float64(verify.SampleHits+verify.SampleMisses)))

	// The update path over the bulk load.
	nu := float64(len(in.load))
	var appends, appendBytes, polls, pollRecs int64
	for _, b := range setup.Bus {
		appends += b.AppendRecords
		appendBytes += b.AppendBytes
		polls += b.Polls
		pollRecs += b.PollRecords
	}
	set("mq.appends_per_update", ratio(float64(setup.Bus["frontend"].AppendRecords), nu))
	set("mq.pipeline_appends_per_update", ratio(float64(appends), nu))
	set("mq.append_bytes_per_update", ratio(float64(appendBytes), nu))
	set("mq.records_per_poll", ratio(float64(pollRecs), float64(polls)))
	set("rpc.broker_frames_per_update", ratio(float64(setup.BrokerFrames), nu))
	set("serving.applied_per_update", ratio(float64(setup.Applied), nu))
	set("serving.cache_bytes_per_entry", ratio(float64(setup.CacheBytes), float64(setup.CacheEntries)))
	set("sampler.admit_ratio", ratio(float64(setup.Admissions), float64(setup.EdgesOffered)))
	set("sampler.msgs_per_update", ratio(float64(setup.Msgs), float64(setup.Updates)))
	set("sampler.depth_max", float64(setup.SamplerDepthMax))
	set("runtime.alloc_bytes_per_update", ratio(float64(setup.AllocBytes), nu))
	set("sut.cpu_ms_per_update", ratio(float64(setup.CPUNS)/1e6, nu))

	// The update path and the process at steady state: the low phase.
	set("serving.update_depth_max", float64(lr.UpdateDepthMax))
	set("serving.lag_max", float64(lr.ServingLagMax))
	set("mq.backlog_max", float64(lr.MQBacklogMax))
	set2("frontend.ingest_http_ms", quantilesOf(lr.IngestHandlerNS), 1e6)
	var lPolls, lEmpty int64
	for _, b := range lr.Bus {
		lPolls += b.Polls
		lEmpty += b.EmptyPolls
	}
	set("mq.empty_poll_ratio", ratio(float64(lEmpty), float64(lPolls)))
	for _, caller := range []string{"frontend", "sampler"} {
		b := lr.Bus[caller]
		set2("mq.append_ms."+caller, b.AppendNS, 1e6)
	}
	for _, caller := range []string{"sampler", "serving"} {
		b := lr.Bus[caller]
		set2("mq.poll_ms."+caller, b.PollNS, 1e6)
	}
	nq := float64(len(low.queries) + low.polls)
	set("runtime.allocs_per_query", ratio(float64(lr.Allocs), nq))
	set("runtime.alloc_bytes_per_query", ratio(float64(lr.AllocBytes), nq))
	set("runtime.gc_cpu_fraction", ratio(lr.GCCPU, lr.TotalCPU))
	set("sut.cpu_ms_per_query", ratio(float64(lr.CPUNS)/1e6, nq))
}

// spanRecord is one traced request as written to the span file.
type spanRecord struct {
	DueNS      int64      `json:"due_ns"`
	LatencyNS  int64      `json:"latency_ns"`
	ConnWaitNS int64      `json:"conn_wait_ns"`
	LateNS     int64      `json:"late_ns"`
	HandlerNS  int64      `json:"handler_ns"`
	Trace      *obs.Trace `json:"trace"`
}

// writeSpans writes every traced request of the low phase, joined across
// the two processes, as JSON lines next to the benchmark binary, and
// returns the file's path.
func writeSpans(name string, seed int64, low *phase) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	path := filepath.Join(filepath.Dir(exe), fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	byID := make(map[uint64]sampleRecord, len(low.samples))
	for _, r := range low.samples {
		byID[r.TraceID] = r
	}
	enc := json.NewEncoder(f)
	for _, q := range low.queries {
		rec, ok := byID[q.trace]
		if !q.ok || !ok {
			continue
		}
		if err := enc.Encode(spanRecord{
			DueNS: q.due.Nanoseconds(), LatencyNS: q.latency().Nanoseconds(),
			ConnWaitNS: q.connWait.Nanoseconds(), LateNS: q.late.Nanoseconds(),
			HandlerNS: rec.HandlerNS, Trace: rec.Trace,
		}); err != nil {
			return "", err
		}
	}
	return path, f.Close()
}
