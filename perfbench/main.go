// Command perfbench is the repository's end-to-end benchmark. It starts
// the real topology (broker, samplers, serving workers, HTTP gateway) in a
// child process and drives it open-loop over HTTP from this one, the way
// an application would: GET /sample and POST /ingest/edge.
//
//	perfbench --workload read-taobao --seed 1 --seconds 28 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// taken in a separate run of the same workload, seed and rates.
// Run it through run.sh, which builds it inside the checkout.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Limits a capacity step must meet, the generator-lateness bound past
// which a run is invalid, and the windows a latency phase's median is
// taken over. The capacity limits use medians and throughput, not tails:
// on a shared 2-core host a p99 limit measures other tenants' CPU bursts.
const (
	queryP50Limit  = 10 * time.Millisecond
	freshnessLimit = time.Second
	keepUpSlack    = 0.05
	backlogSlack   = 250 * time.Millisecond
	lateLimit      = 50 * time.Millisecond
	windows        = 16
)

// errInvalid marks a run whose generator fell behind its own schedule.
var errInvalid = errors.New("run invalid")

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		if err := runSUT(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sut:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "read-inter", "workload: read-inter, read-taobao, mixed-inter, or all three in turn")
	seed := flag.Int64("seed", 1, "workload seed: dataset, query seeds and ingest stream")
	seconds := flag.Int("seconds", 28, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = []string{"read-inter", "read-taobao", "mixed-inter"}
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok || *seconds < 1 {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", n)
			os.Exit(2)
		}
	}
	go watchdog(len(names))
	for _, n := range names {
		res, err := run(workloads[n], *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			if errors.Is(err, errInvalid) {
				os.Exit(3)
			}
			os.Exit(1)
		}
		out, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
}

// runDeadline bounds one workload's run; past it, or on SIGINT/SIGTERM,
// the benchmark kills the system under test and exits without a result.
const runDeadline = 170 * time.Second

// running is the system under test of the current run, if any.
var running atomic.Pointer[sutProc]

func watchdog(runs int) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", s)
	case <-time.After(time.Duration(runs) * runDeadline):
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", time.Duration(runs)*runDeadline)
	}
	if p := running.Load(); p != nil {
		//lint:allow droppederror reason=exiting anyway; a process that is already gone needs no kill
		_ = p.cmd.Process.Kill()
		<-p.copied
	}
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sutProc is the running system under test.
type sutProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	copied chan struct{}
	g      *gateway
	ctl    *ctlClient
}

func spawnSUT(in *inputs, traced bool) (*sutProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "sut", "-config", in.config, "-trace="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &sutProc{cmd: cmd, stdin: stdin, copied: make(chan struct{})}
	running.Store(p)
	ready := make(chan []string, 1)
	go func() {
		defer close(p.copied)
		r := bufio.NewReader(stdout)
		line, err := r.ReadString('\n')
		if err != nil {
			line = "" // exited before it was ready
		}
		ready <- strings.Fields(line)
		if _, err := io.Copy(os.Stderr, r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: system under test output:", err)
		}
	}()
	select {
	case f := <-ready:
		if len(f) == 3 && f[0] == "READY" {
			p.g = &gateway{base: "http://" + f[1], in: in}
			p.ctl = &ctlClient{base: "http://" + f[2], hc: &http.Client{}}
			return p, nil
		}
	case <-time.After(30 * time.Second):
	}
	p.close()
	return nil, fmt.Errorf("system under test did not start")
}

// close asks the SUT to quit, then waits for it, killing it if it hangs.
func (p *sutProc) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if p.ctl != nil {
		if err := p.ctl.call(ctx, http.MethodPost, "/quit", nil); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err) // closing stdin below stops it too
		}
	}
	p.stdin.Close()
	exited := make(chan struct{})
	go func() {
		<-p.copied
		if err := p.cmd.Wait(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: system under test:", err)
		}
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		//lint:allow droppederror reason=the wait below reports how it ended
		_ = p.cmd.Process.Kill()
		<-exited
	}
}

// setup starts a SUT, bulk-loads the dataset through its gateway and waits
// for the update path to drain. In a traced run the load is one phase.
func setup(ctx context.Context, in *inputs, traced bool) (*sutProc, time.Duration, *phaseReport, error) {
	start := time.Now()
	p, err := spawnSUT(in, traced)
	if err != nil {
		return nil, 0, nil, err
	}
	var rep *phaseReport
	if traced {
		if err := p.ctl.call(ctx, http.MethodPost, "/tracing?on=true", nil); err != nil {
			p.close()
			return nil, 0, nil, err
		}
		if err := p.ctl.call(ctx, http.MethodPost, "/phase/start", nil); err != nil {
			p.close()
			return nil, 0, nil, err
		}
	}
	if refused := p.g.bulkLoad(ctx); refused > 0 {
		p.close()
		return nil, 0, nil, fmt.Errorf("bulk load: %d updates refused", refused)
	}
	loaded := time.Since(start)
	if err := p.ctl.call(ctx, http.MethodPost, "/quiesce?timeout=120s", nil); err != nil {
		p.close()
		return nil, 0, nil, err
	}
	took := time.Since(start)
	fmt.Fprintf(os.Stderr, "perfbench: setup: loaded in %v, quiescent after %v\n", loaded, took)
	if traced {
		rep = new(phaseReport)
		if err := p.ctl.call(ctx, http.MethodPost, "/phase/stop", rep); err != nil {
			p.close()
			return nil, 0, nil, err
		}
	}
	return p, took, rep, nil
}

// phase is one fixed-rate latency phase: `rate` queries/s for d, with
// freshness probes beside them and, in mixed workloads, the background
// ingest stream the caller keeps running.
type phase struct {
	queries []sent
	probes  []probe
	polls   int
	rep     *phaseReport
	samples []sampleRecord
}

type bench struct {
	wl        workloadDef
	in        *inputs
	p         *sutProc
	seedOff   int
	streamPos atomic.Int64
	probeNext atomic.Int64
	attempted int
	failed    int
}

func (b *bench) queryCount(rate float64, d time.Duration) int {
	return max(1, int(rate*d.Seconds()))
}

// runPhase runs queries at rate for d with probes alongside.
func (b *bench) runPhase(ctx context.Context, rate float64, d time.Duration, report bool) (*phase, error) {
	if report {
		if err := b.p.ctl.call(ctx, http.MethodPost, "/phase/start", nil); err != nil {
			return nil, err
		}
	}
	ph := &phase{}
	pctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ph.probes = b.p.g.probes(pctx, &b.probeNext)
	}()
	n := b.queryCount(rate, d)
	ph.queries = openLoop(ctx, rate, n, b.p.g.queryStream(b.seedOff))
	b.seedOff += n
	cancel()
	wg.Wait()
	if report {
		ph.rep = new(phaseReport)
		if err := b.p.ctl.call(ctx, http.MethodPost, "/phase/stop", ph.rep); err != nil {
			return nil, err
		}
		if err := b.p.ctl.call(ctx, http.MethodGet, "/samples", &ph.samples); err != nil {
			return nil, err
		}
	}
	b.count(ph.queries)
	for _, p := range ph.probes {
		ph.polls += p.polls
		b.attempted++
		if !p.seen {
			b.failed++
		}
	}
	return ph, nil
}

func (b *bench) count(rs []sent) {
	b.attempted += len(rs)
	b.failed += failures(rs)
}

// search bisects ladder for the highest rate a step sustains. A step
// reports its load: the worst of its criteria as a share of that
// criterion's limit, so at most 1 passes (+Inf for a failed request). A
// step fails only when a second try confirms it, so a momentary stall on
// a shared host does not end the search. The result interpolates linearly
// in load between the highest passing and the lowest failing rate, which
// smooths the ladder's spacing out of the reported figure; when even the
// lowest rate fails, it is that step's measured throughput.
func search(ladder []float64, step func(rate float64) (load, got float64, err error)) (float64, error) {
	lo, hi := -1, len(ladder)
	var loadLo, loadHi, floor float64
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		load, got, err := step(ladder[mid])
		if err == nil && load > 1 {
			load, got, err = step(ladder[mid])
		}
		if err != nil {
			return 0, err
		}
		if mid == 0 {
			floor = got
		}
		if load <= 1 {
			lo, loadLo = mid, max(load, 0)
		} else {
			hi, loadHi = mid, load
		}
	}
	switch {
	case lo < 0:
		return floor, nil
	case hi == len(ladder) || math.IsInf(loadHi, 1):
		return ladder[lo], nil
	}
	t := (1 - loadLo) / (loadHi - loadLo)
	return ladder[lo] + t*(ladder[hi]-ladder[lo]), nil
}

// throughput is completed requests per second over a step.
func throughput(rs []sent) float64 {
	var last time.Duration
	for _, r := range rs {
		last = max(last, r.end)
	}
	return ratio(float64(len(rs)), last.Seconds())
}

// keepUp measures how far a step's answers fell behind its schedule: the
// offered rate over the achieved throughput, less one, as a share of
// keepUpSlack. A stall shorter than that share of the step only delays the
// last answers; an overload makes every answer later.
func keepUp(rs []sent, rate float64) float64 {
	return (rate/throughput(rs) - 1) / keepUpSlack
}

// failedLoad is the load of a step in which a request failed.
var failedLoad = math.Inf(1)

// queryStep offers rate queries/s for d. Its load is the worse of the
// median against queryP50Limit and keepUp.
func (b *bench) queryStep(ctx context.Context, rate float64, d time.Duration) (float64, float64, error) {
	n := b.queryCount(rate, d)
	rs := openLoop(ctx, rate, n, b.p.g.queryStream(b.seedOff))
	b.seedOff += n
	b.count(rs)
	load := failedLoad
	if failures(rs) == 0 {
		q := quantilesOf(latencies(rs))
		load = max(float64(q.P50)/float64(queryP50Limit), keepUp(rs, rate))
	}
	return load, throughput(rs), ctx.Err()
}

// ingestStep offers rate edges/s for d beside the low query stream and
// the probes. Its load is the worst of keepUp, the slowest probe against
// freshnessLimit, and the SUT's update backlog at the end of the step
// against backlogSlack of arrivals. The SUT drains before the next step.
func (b *bench) ingestStep(ctx context.Context, rate float64, d time.Duration) (float64, float64, error) {
	var wg sync.WaitGroup
	var qs []sent
	var probes []probe
	pctx, cancel := context.WithCancel(ctx)
	wg.Add(2)
	go func() {
		defer wg.Done()
		n := b.queryCount(b.wl.low, d)
		qs = openLoop(ctx, b.wl.low, n, b.p.g.queryStream(b.seedOff))
	}()
	go func() {
		defer wg.Done()
		probes = b.p.g.probes(pctx, &b.probeNext)
	}()
	us := openLoop(ctx, rate, b.queryCount(rate, d), b.p.g.ingestStream(&b.streamPos))
	var backlog map[string]int64
	err := b.p.ctl.call(ctx, http.MethodGet, "/backlog", &backlog)
	cancel()
	wg.Wait()
	b.seedOff += len(qs)
	b.count(qs)
	b.count(us)
	if err != nil {
		return 0, 0, err
	}
	load := max(keepUp(us, rate), float64(backlog["total"])/(rate*backlogSlack.Seconds()))
	if failures(us) > 0 || failures(qs) > 0 {
		load = failedLoad
	}
	for _, p := range probes {
		b.attempted++
		if !p.seen {
			b.failed++
			load = failedLoad
		}
		load = max(load, float64(p.fresh)/float64(freshnessLimit))
	}
	if err := b.p.ctl.call(ctx, http.MethodPost, "/quiesce?timeout=30s", nil); err != nil {
		return 0, 0, err
	}
	return load, throughput(us), ctx.Err()
}

// run executes one benchmark run, measuring for about d: the untraced run
// the low phase; the traced run shorter low and high phases, a traced low
// phase, and the two capacity searches (steps of d/50, four to eight
// steps each).
func run(wl workloadDef, seed int64, d time.Duration, traced bool) (*result, error) {
	ctx := context.Background()
	in, err := makeInputs(wl, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d: %d updates loaded, %d-edge ingest stream\n",
		wl.name, seed, len(in.load), len(in.stream))
	p, setupTook, setupRep, err := setup(ctx, in, traced)
	if err != nil {
		return nil, err
	}
	defer p.close()
	b := &bench{wl: wl, in: in, p: p}

	var heap map[string]uint64
	if err := p.ctl.call(ctx, http.MethodPost, "/heap", &heap); err != nil {
		return nil, err
	}
	if traced {
		if err := p.ctl.call(ctx, http.MethodPost, "/phase/start", nil); err != nil {
			return nil, err
		}
	}
	errs, verifyBytes := p.g.verify(ctx)
	incorrect := len(errs)
	for _, e := range errs[:min(len(errs), 5)] {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect answer:", e)
	}
	var verifyRep phaseReport
	if traced {
		if err := p.ctl.call(ctx, http.MethodPost, "/phase/stop", &verifyRep); err != nil {
			return nil, err
		}
	}
	b.attempted += len(in.verify)
	b.failed += incorrect

	// The background ingest stream runs through the query phases.
	bgCtx, stopBG := context.WithCancel(ctx)
	var bg []sent
	var bgWG sync.WaitGroup
	bgStart := time.Now()
	if wl.ingest > 0 {
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			bg = openLoop(bgCtx, wl.ingest, len(in.stream), p.g.ingestStream(&b.streamPos))
		}()
	}
	var bgDone []sent
	stopBackground := func() {
		stopBG()
		bgWG.Wait()
		b.count(bg)
		bgDone = append(bgDone, bg...)
		bg = nil
	}
	defer stopBackground()

	// The untraced run spends its whole time on the low phase. The traced
	// run gives untraced low and high phases a quarter each, then runs a
	// traced low phase and the capacity searches.
	lowD, highD, stepD := d, d/4, d/50
	if traced {
		lowD = d / 4
		if err := p.ctl.call(ctx, http.MethodPost, "/tracing?on=false", nil); err != nil {
			return nil, err
		}
	}
	res := &result{Metrics: map[string]metric{}}
	low, err := b.runPhase(ctx, wl.low, lowD, false)
	if err != nil {
		return nil, err
	}
	high := &phase{}
	if traced {
		if high, err = b.runPhase(ctx, wl.high, highD, false); err != nil {
			return nil, err
		}
	}
	// Every fixed-rate stream's generator, the background ingest's too,
	// must have kept to its schedule until the phases ended. The traced
	// run keeps the ingest stream going through its query capacity search,
	// whose overloaded steps may delay it, so only the ingest sends due
	// before the phases ended are judged.
	phasesEnd := time.Since(bgStart)
	if !traced {
		stopBackground()
	}
	for _, ph := range []*phase{low, high} {
		if err := checkLate(ph.queries); err != nil {
			return nil, err
		}
	}
	probes := append(low.probes, high.probes...)
	fmt.Fprintf(os.Stderr, "perfbench: low %d queries, high %d, %d probes\n",
		len(low.queries), len(high.queries), len(probes))
	m := res.Metrics
	if !traced {
		m["setup_s"] = metric{setupTook.Seconds(), "s"}
		m["heap_mb"] = metric{float64(heap["live_bytes"]) / 1e6, "MB"}
		m["query_p50_ms.low"] = metric{ms(windowedP50(latencies(low.queries), windows)), "ms"}
		m["freshness_p50_ms"] = metric{ms(windowedP50(freshNS(probes), windows)), "ms"}
	} else {
		if err := p.ctl.call(ctx, http.MethodPost, "/tracing?on=true", nil); err != nil {
			return nil, err
		}
		tl, err := b.runPhase(ctx, wl.low, lowD, true)
		if err != nil {
			return nil, err
		}
		if err := p.ctl.call(ctx, http.MethodPost, "/tracing?on=false", nil); err != nil {
			return nil, err
		}
		qcap, err := search(wl.qLadder, func(r float64) (float64, float64, error) { return b.queryStep(ctx, r, stepD) })
		if err != nil {
			return nil, err
		}
		stopBackground()
		ucap, err := search(ingestLadder, func(r float64) (float64, float64, error) { return b.ingestStep(ctx, r, stepD) })
		if err != nil {
			return nil, err
		}
		layerMetrics(m, in, setupRep, &verifyRep, verifyBytes, low, tl)
		path, err := writeSpans(wl.name, seed, tl)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintln(os.Stderr, "perfbench: traced requests written to", path)
		m["sustained_qps"] = metric{qcap, "req/s"}
		m["sustained_ingest_ups"] = metric{ucap, "updates/s"}
		m["query_p50_ms.high"] = metric{ms(windowedP50(latencies(high.queries), windows)), "ms"}
		m["query_p99_ms.low"] = metric{ms(quantilesOf(latencies(low.queries)).P99), "ms"}
		m["query_p99_ms.high"] = metric{ms(quantilesOf(latencies(high.queries)).P99), "ms"}
		m["freshness_p99_ms"] = metric{ms(quantilesOf(freshNS(probes)).P99), "ms"}
		all := append(append(append([]sent(nil), low.queries...), high.queries...), tl.queries...)
		m["query_fail_ratio"] = metric{ratio(float64(failures(all)), float64(len(all))), "ratio"}
		lost := 0
		for _, p := range append(probes, tl.probes...) {
			if !p.seen {
				lost++
			}
		}
		ingests := len(bgDone) + len(probes) + len(tl.probes)
		m["ingest_fail_ratio"] = metric{ratio(float64(failures(bgDone)+lost), float64(ingests)), "ratio"}
	}
	if err := checkLate(dueBefore(bgDone, phasesEnd)); err != nil {
		return nil, err
	}
	res.Correct = incorrect == 0
	res.Attempted, res.Failed = b.attempted, b.failed
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("workload %s seed %d trace %v: %d attempted, %d failed, %d incorrect of %d verified\n",
		wl.name, seed, traced, res.Attempted, res.Failed, incorrect, len(in.verify))
	for _, k := range keys {
		fmt.Printf("  %-36s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// checkLate fails a fixed-rate phase whose generator ran behind schedule.
func checkLate(rs []sent) error {
	late := make([]int64, len(rs))
	for i, r := range rs {
		late[i] = r.late.Nanoseconds()
	}
	if q := quantilesOf(late); time.Duration(q.P99) > lateLimit {
		return fmt.Errorf("%w: generator p99 lateness %v exceeds %v", errInvalid, time.Duration(q.P99), lateLimit)
	}
	return nil
}

// dueBefore returns the requests of rs due before t.
func dueBefore(rs []sent, t time.Duration) []sent {
	var out []sent
	for _, r := range rs {
		if r.due < t {
			out = append(out, r)
		}
	}
	return out
}

// freshNS lists the probes' freshness in order; a lost probe misses every
// limit.
func freshNS(ps []probe) []int64 {
	vs := make([]int64, len(ps))
	for i, p := range ps {
		vs[i] = p.fresh.Nanoseconds()
		if !p.seen {
			vs[i] = math.MaxInt64
		}
	}
	return vs
}
