package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// harness starts it as the system under test.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		if err := runSUT(os.Args[2:]); err != nil {
			os.Stderr.WriteString("sut: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func checkNamed(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	for _, w := range want {
		got, ok := res.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s not reported", w.Name)
			continue
		}
		if got.Unit != w.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
}

// TestBenchmarkSelf runs a short read-inter untraced once and traced
// twice with one seed: every metric BENCHMARK.json names must print with
// its unit, every layer metric must be documented in layerTable, and the
// deterministic work counters must repeat exactly.
func TestBenchmarkSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the full topology three times")
	}
	f := readBenchFile(t)
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" {
			t.Errorf("workload %q: unknown or without a reason", w.Name)
		}
	}
	if len(f.PerLayer) != len(layerTable) {
		t.Errorf("BENCHMARK.json lists %d layer metrics, layerTable %d", len(f.PerLayer), len(layerTable))
	}
	for _, l := range f.PerLayer {
		if layerUnit(l.Name) != l.Unit {
			t.Errorf("layer metric %s: layerTable unit %q, BENCHMARK.json %q", l.Name, layerUnit(l.Name), l.Unit)
		}
	}

	wl := workloads["read-inter"]
	const seed, d = 7, 4 * time.Second
	e2e, err := run(wl, seed, d, false)
	if err != nil {
		t.Fatal(err)
	}
	checkNamed(t, e2e, f.EndToEnd)

	var runs []*result
	for i := 0; i < 2; i++ {
		res, err := run(wl, seed, d, true)
		if err != nil {
			t.Fatal(err)
		}
		checkNamed(t, res, f.PerLayer)
		if n := res.Metrics["trace.unclosed"].Value; n != 0 {
			t.Errorf("%v traced requests do not close", n)
		}
		runs = append(runs, res)
	}
	for _, name := range []string{
		"kvstore.gets_per_query", "frontend.resp_bytes_per_query",
		"rpc.serving_frames_per_query", "mq.appends_per_update",
	} {
		a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
		if a != b || a == 0 {
			t.Errorf("%s: %v then %v, want one nonzero value", name, a, b)
		}
	}
}
