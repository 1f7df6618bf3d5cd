package main

// The system under test: one unreplicated broker behind its RPC server,
// two sampling workers, two serving workers each behind its own RPC
// server, and the frontend's HTTP gateway — wired as the cmd/ binaries
// wire them, with their defaults (no coalescing, no admission limits, no
// replication), inside one child process. The binaries' heartbeats,
// telemetry reporters, ops listeners and loggers are left out. A second
// loopback listener serves the control surface the load process drives
// phases through; it never carries workload traffic.
//
// With -trace the harness also wraps every mq.Bus it hands out and the
// gateway handler, keeps a large trace ring, and reports per-phase layer
// counters. Without it, nothing is wrapped.

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"helios/internal/deploy"
	"helios/internal/frontend"
	"helios/internal/mq"
	"helios/internal/obs"
	"helios/internal/rpc"
	"helios/internal/sampler"
	"helios/internal/serving"
)

// Registry stages the traced run reads (bucket upper bounds).
var sutStages = []string{
	obs.StageFrontendRequest, obs.StageFrontendAdmission, obs.StageServingEncode,
	obs.StageKVGet, obs.StageSamplerRefresh, obs.StageServingCacheApply,
}

type sut struct {
	cfg    *deploy.Config
	traced bool
	reg    *obs.Registry
	tracer *obs.Tracer

	broker    *mq.Broker
	brokerSrv *rpc.Server
	buses     []mq.Bus
	samplers  []*sampler.Worker
	servers   []*serving.Worker
	servSrvs  []*rpc.Server
	fe        *frontend.Frontend
	gw        *http.Server

	probes  map[string]*busProbe // by caller; traced only
	handler *handlerProbe        // traced only
	// lagCalls counts Lag/SubsLag reads the harness makes: each is one
	// broker RPC frame, subtracted from the broker's frame count.
	lagCalls atomic.Int64

	mu    sync.Mutex
	phase *phaseState
}

func runSUT(args []string) error {
	fs := flag.NewFlagSet("sut", flag.ContinueOnError)
	config := fs.String("config", "", "cluster configuration JSON")
	traced := fs.Bool("trace", false, "wrap layers and keep every trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := deploy.Parse([]byte(*config))
	if err != nil {
		return err
	}
	s := &sut{cfg: cfg, traced: *traced, reg: obs.NewRegistry()}
	if err := s.start(); err != nil {
		s.stop()
		return err
	}
	defer s.stop()

	ctlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	quit := make(chan struct{})
	var quitOnce sync.Once
	ctl := &http.Server{Handler: s.control(func() { quitOnce.Do(func() { close(quit) }) })}
	go ctl.Serve(ctlLn)
	defer ctl.Close()
	fmt.Printf("READY %s %s\n", s.gw.Addr, ctlLn.Addr())

	// The parent holds our stdin open; EOF means it is gone, so exit.
	go func() {
		//lint:allow droppederror reason=any return, EOF or error, means the parent is gone
		_, _ = bufio.NewReader(os.Stdin).ReadString('\n')
		quitOnce.Do(func() { close(quit) })
	}()
	<-quit
	return nil
}

func (s *sut) bus(caller string) (mq.Bus, error) {
	rb, err := mq.DialBroker(s.brokerSrv.Addr(), 0)
	if err != nil {
		return nil, err
	}
	s.buses = append(s.buses, rb)
	if !s.traced {
		return rb, nil
	}
	p := s.probes[caller]
	if p == nil {
		p = &busProbe{}
		s.probes[caller] = p
	}
	return &probedBus{Bus: rb, p: p}, nil
}

func (s *sut) start() error {
	if s.traced {
		s.tracer = obs.NewTracer(1<<16, 16)
		s.probes = map[string]*busProbe{}
	} else {
		s.tracer = obs.NewTracer(0, 0)
	}
	s.broker = mq.NewBroker(mq.Options{})
	s.broker.RegisterMetrics(s.reg)
	rpc.RegisterMetrics(s.reg)
	s.brokerSrv = rpc.NewServer()
	mq.ServeBroker(s.broker, s.brokerSrv)
	if _, err := s.brokerSrv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	f := s.cfg.File
	for i := 0; i < f.Samplers; i++ {
		bus, err := s.bus("sampler")
		if err != nil {
			return err
		}
		w, err := sampler.New(sampler.Config{
			ID: i, NumSamplers: f.Samplers, NumServers: f.Servers,
			Plans: s.cfg.Plans, Schema: s.cfg.Schema, Broker: bus,
			TTL: s.cfg.TTL, Seed: 1, Metrics: s.reg,
		})
		if err != nil {
			return err
		}
		w.Start()
		s.samplers = append(s.samplers, w)
	}
	var addrs []string
	for i := 0; i < f.Servers; i++ {
		bus, err := s.bus("serving")
		if err != nil {
			return err
		}
		w, err := serving.New(serving.Config{
			ID: i, NumServers: f.Servers, Plans: s.cfg.Plans, Broker: bus,
			TTL: s.cfg.TTL, Metrics: s.reg, Tracer: obs.NewTracer(0, 0),
		})
		if err != nil {
			return err
		}
		w.Start()
		s.servers = append(s.servers, w)
		srv := rpc.NewServer()
		serving.ServeRPC(w, srv)
		s.servSrvs = append(s.servSrvs, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs = append(addrs, addr)
	}
	bus, err := s.bus("frontend")
	if err != nil {
		return err
	}
	if s.fe, err = frontend.New(s.cfg, bus, addrs); err != nil {
		return err
	}
	s.fe.UseObs(nil, s.reg, s.tracer)
	s.fe.SetOverload(frontend.Overload{LagProbeEvery: 250 * time.Millisecond})
	s.fe.SetBatching(1, time.Millisecond)
	var h http.Handler = s.fe.Handler()
	if s.traced {
		s.handler = &handlerProbe{next: h}
		h = s.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.gw = &http.Server{Handler: h, Addr: ln.Addr().String()}
	go s.gw.Serve(ln)
	return nil
}

// stop tears the topology down in dependency order: gateway, frontend,
// serving endpoints and workers, samplers, bus clients, broker.
func (s *sut) stop() {
	if s.gw != nil {
		s.gw.Close()
	}
	if s.fe != nil {
		s.fe.Close()
	}
	for _, srv := range s.servSrvs {
		srv.Close()
	}
	for _, w := range s.servers {
		w.Stop()
	}
	for _, w := range s.samplers {
		w.Stop()
	}
	for _, b := range s.buses {
		b.Close()
	}
	if s.brokerSrv != nil {
		s.brokerSrv.Close()
	}
	if s.broker != nil {
		s.broker.Close()
	}
}

// backlog is one reading of the update path's queues.
type backlog struct {
	samplerLag, samplerDepth, servingLag, updateDepth int64
}

func (b backlog) total() int64 {
	return b.samplerLag + b.samplerDepth + b.servingLag + b.updateDepth
}

func (s *sut) readBacklog() backlog {
	var b backlog
	for _, w := range s.samplers {
		b.samplerLag += w.Lag() + w.SubsLag()
		st := w.Stats()
		b.samplerDepth += int64(st.SamplingDepth + st.PublishDepth)
	}
	for _, w := range s.servers {
		b.servingLag += w.Lag()
		b.updateDepth += int64(w.Stats().UpdateDepth)
	}
	s.lagCalls.Add(int64(2*len(s.samplers) + len(s.servers)))
	return b
}

// quiesce waits until every update-path queue has been empty for three
// consecutive reads.
func (s *sut) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for stable := 0; stable < 3; {
		if time.Now().After(deadline) {
			return fmt.Errorf("not quiescent after %v", timeout)
		}
		if s.readBacklog().total() == 0 {
			stable++
		} else {
			stable = 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// counters is a point-in-time read of every counter a phase report
// differences.
type counters struct {
	wall                                             time.Time
	cpuNS                                            int64
	allocs, allocBytes                               uint64
	gcCPU, totalCPU                                  float64
	applied, served, sHits, sMiss, fHits, fMiss      int64
	updates, edgesOffered, admissions, msgs          int64
	servingFrames, brokerFrames, lagCalls, feUpdates int64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func (s *sut) readCounters() counters {
	c := counters{wall: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		ms[i].Name = n
	}
	metrics.Read(ms)
	c.allocs, c.allocBytes = ms[0].Value.Uint64(), ms[1].Value.Uint64()
	c.gcCPU, c.totalCPU = ms[2].Value.Float64(), ms[3].Value.Float64()
	for _, w := range s.servers {
		st := w.Stats()
		c.applied += st.Applied
		c.served += st.Served
		c.sHits += st.SampleHits
		c.sMiss += st.SampleMisses
		c.fHits += st.FeatureHits
		c.fMiss += st.FeatureMisses
	}
	for _, w := range s.samplers {
		st := w.Stats()
		c.updates += st.UpdatesProcessed
		c.edgesOffered += st.EdgesOffered
		c.admissions += st.Admissions
		c.msgs += st.SnapshotsSent + st.FeaturesSent + st.SubDeltasSent
	}
	for _, srv := range s.servSrvs {
		c.servingFrames += srv.Requests.Value()
	}
	c.brokerFrames = s.brokerSrv.Requests.Value()
	c.lagCalls = s.lagCalls.Load()
	c.feUpdates = s.fe.Updates.Value()
	return c
}

// phaseState is an open phase: its starting counters and the watcher
// recording backlog maxima.
type phaseState struct {
	start counters
	stop  chan struct{}
	done  chan struct{}
	max   backlog
	maxMQ int64
}

// phaseReport is what /phase/stop returns: counter deltas over the phase,
// backlog maxima from the 10ms watcher, and (traced) layer timings.
type phaseReport struct {
	WallNS                                       int64
	CPUNS                                        int64
	Allocs, AllocBytes                           uint64
	GCCPU, TotalCPU                              float64
	Applied, Served, SampleHits, SampleMisses    int64
	FeatureHits, FeatureMisses                   int64
	Updates, EdgesOffered, Admissions, Msgs      int64
	ServingFrames, BrokerFrames, FrontendUpdates int64
	SamplerDepthMax, ServingLagMax               int64
	UpdateDepthMax, MQBacklogMax                 int64
	EndBacklog                                   int64
	CacheBytes, CacheEntries                     int64
	Stages                                       map[string]obs.HistSnapshot
	Bus                                          map[string]busReport
	IngestHandlerNS                              []int64
}

// mqBacklog is the largest unconsumed-record count over every partition
// of every topic, read from the broker itself (end offset minus the
// consumers' last commit).
func (s *sut) mqBacklog() int64 {
	var worst int64
	for _, name := range s.broker.Topics() {
		t, ok := s.broker.Topic(name)
		if !ok {
			continue
		}
		for p := 0; p < t.NumPartitions(); p++ {
			c := t.CommittedOffset(p)
			if c < 0 {
				c = 0
			}
			if d := t.EndOffset(p) - c; d > worst {
				worst = d
			}
		}
	}
	return worst
}

// takePhase detaches the open phase, if any, and stops its watcher.
func (s *sut) takePhase() *phaseState {
	s.mu.Lock()
	ph := s.phase
	s.phase = nil
	s.mu.Unlock()
	if ph != nil {
		close(ph.stop)
		<-ph.done
	}
	return ph
}

func (s *sut) startPhase() {
	s.takePhase()
	for _, name := range sutStages {
		s.reg.Stage(name).Reset()
	}
	for _, p := range s.probes {
		p.reset()
	}
	if s.handler != nil {
		s.handler.reset()
	}
	ph := &phaseState{start: s.readCounters(), stop: make(chan struct{}), done: make(chan struct{})}
	s.mu.Lock()
	s.phase = ph
	s.mu.Unlock()
	go func() {
		defer close(ph.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ph.stop:
				return
			case <-t.C:
			}
			b := s.readBacklog()
			ph.max.samplerDepth = max(ph.max.samplerDepth, b.samplerDepth)
			ph.max.servingLag = max(ph.max.servingLag, b.servingLag)
			ph.max.updateDepth = max(ph.max.updateDepth, b.updateDepth)
			ph.maxMQ = max(ph.maxMQ, s.mqBacklog())
		}
	}()
}

func (s *sut) stopPhase() (*phaseReport, error) {
	ph := s.takePhase()
	if ph == nil {
		return nil, fmt.Errorf("no phase open")
	}
	end := s.readCounters()
	a := ph.start
	r := &phaseReport{
		WallNS: end.wall.Sub(a.wall).Nanoseconds(), CPUNS: end.cpuNS - a.cpuNS,
		Allocs: end.allocs - a.allocs, AllocBytes: end.allocBytes - a.allocBytes,
		GCCPU: end.gcCPU - a.gcCPU, TotalCPU: end.totalCPU - a.totalCPU,
		Applied: end.applied - a.applied, Served: end.served - a.served,
		SampleHits: end.sHits - a.sHits, SampleMisses: end.sMiss - a.sMiss,
		FeatureHits: end.fHits - a.fHits, FeatureMisses: end.fMiss - a.fMiss,
		Updates: end.updates - a.updates, EdgesOffered: end.edgesOffered - a.edgesOffered,
		Admissions: end.admissions - a.admissions, Msgs: end.msgs - a.msgs,
		ServingFrames:   end.servingFrames - a.servingFrames,
		BrokerFrames:    (end.brokerFrames - a.brokerFrames) - (end.lagCalls - a.lagCalls),
		FrontendUpdates: end.feUpdates - a.feUpdates,
		SamplerDepthMax: ph.max.samplerDepth, ServingLagMax: ph.max.servingLag,
		UpdateDepthMax: ph.max.updateDepth, MQBacklogMax: ph.maxMQ,
		EndBacklog: s.readBacklog().total(),
		Stages:     map[string]obs.HistSnapshot{},
	}
	for _, w := range s.servers {
		r.CacheBytes += w.CacheBytes()
		n, err := w.CacheEntries()
		if err != nil {
			return nil, err
		}
		r.CacheEntries += int64(n)
	}
	for _, name := range sutStages {
		h := s.reg.Stage(name).Snapshot()
		h.Exemplars, h.P99Exemplar = nil, ""
		r.Stages[name] = h
	}
	if s.traced {
		r.Bus = map[string]busReport{}
		for caller, p := range s.probes {
			r.Bus[caller] = p.report()
		}
		r.IngestHandlerNS = s.handler.ingestNS()
	}
	return r, nil
}

// sampleRecord is one traced /sample call as the SUT saw it: the gateway
// handler's duration and the frontend trace, keyed by the trace ID the
// answer carried back to the load process.
type sampleRecord struct {
	TraceID   uint64     `json:"trace_id"`
	HandlerNS int64      `json:"handler_ns"`
	Trace     *obs.Trace `json:"trace,omitempty"`
}

// sampleRecords returns every recorded /sample handler call with its
// frontend trace, joined by the trace ID the handler saw in the answer.
func (s *sut) sampleRecords() []sampleRecord {
	byID := map[uint64]obs.Trace{}
	for _, tr := range s.tracer.Recent() {
		if tr.Op == "sample" {
			byID[tr.ID] = tr
		}
	}
	calls := s.handler.sampleCalls()
	out := make([]sampleRecord, 0, len(calls))
	for _, c := range calls {
		rec := sampleRecord{TraceID: c.trace, HandlerNS: c.ns}
		if tr, ok := byID[c.trace]; ok {
			rec.Trace = &tr
		}
		out = append(out, rec)
	}
	return out
}

func (s *sut) control(quit func()) http.Handler {
	mux := http.NewServeMux()
	reply := func(w http.ResponseWriter, v any, err error) {
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc("POST /quiesce", func(w http.ResponseWriter, r *http.Request) {
		d, err := time.ParseDuration(r.URL.Query().Get("timeout"))
		if err != nil {
			d = time.Minute
		}
		reply(w, struct{}{}, s.quiesce(d))
	})
	mux.HandleFunc("GET /backlog", func(w http.ResponseWriter, r *http.Request) {
		reply(w, map[string]int64{"total": s.readBacklog().total()}, nil)
	})
	mux.HandleFunc("POST /phase/start", func(w http.ResponseWriter, r *http.Request) {
		s.startPhase()
		reply(w, struct{}{}, nil)
	})
	mux.HandleFunc("POST /phase/stop", func(w http.ResponseWriter, r *http.Request) {
		rep, err := s.stopPhase()
		reply(w, rep, err)
	})
	mux.HandleFunc("POST /heap", func(w http.ResponseWriter, r *http.Request) {
		runtime.GC()
		ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(ms)
		reply(w, map[string]uint64{"live_bytes": ms[0].Value.Uint64()}, nil)
	})
	mux.HandleFunc("POST /tracing", func(w http.ResponseWriter, r *http.Request) {
		if s.handler == nil {
			reply(w, nil, fmt.Errorf("not a traced run"))
			return
		}
		on, err := strconv.ParseBool(r.URL.Query().Get("on"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.handler.enabled.Store(on)
		for _, p := range s.probes {
			p.enabled.Store(on)
		}
		reply(w, struct{}{}, nil)
	})
	mux.HandleFunc("GET /samples", func(w http.ResponseWriter, r *http.Request) {
		if s.handler == nil {
			reply(w, nil, fmt.Errorf("not a traced run"))
			return
		}
		reply(w, s.sampleRecords(), nil)
	})
	mux.HandleFunc("POST /quit", func(w http.ResponseWriter, r *http.Request) {
		reply(w, struct{}{}, nil)
		quit()
	})
	return mux
}

// ctlClient is the load process's handle on the SUT's control surface.
type ctlClient struct {
	base string
	hc   *http.Client
}

func (c *ctlClient) call(ctx context.Context, method, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("control %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, err := io.ReadAll(io.LimitReader(resp.Body, 512))
		if err != nil {
			return fmt.Errorf("control %s: %s: %w", path, resp.Status, err)
		}
		return fmt.Errorf("control %s: %s: %s", path, resp.Status, msg)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
