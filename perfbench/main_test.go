package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"ldplfs/internal/iostats"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

func tiny(workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.1, trace: trace,
		tiny: true, iters: 2, setups: 1, overhead: 0.1}
}

func runTiny(t *testing.T, cfg config) (result, error, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if res.metrics != nil {
		printJSON(&out, res)
	}
	return res, err, out.String()
}

// The Go catalog and BENCHMARK.json must name the same workloads and
// the same metrics with the same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, workloadNames)
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark %d", c.name, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.name, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

// Every workload, at a tiny size, reports every metric with its unit,
// untraced and traced, and the traced layers separate by workload.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err, out := runTiny(t, tiny(wl, trace))
			if err != nil || !res.correct {
				t.Fatalf("%s trace=%v: err %v correct %v\n%s", wl, trace, err, res.correct, out)
			}
			if res.failed != 0 {
				// Failed operations are a measured outcome, not a
				// benchmark fault.
				t.Logf("%s trace=%v: %d of %d ops failed", wl, trace, res.failed, res.attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			last := out[strings.LastIndex(strings.TrimSpace(out), "\n")+1:]
			var line struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(last), &line); err != nil || !line.Correct {
				t.Fatalf("%s trace=%v: last line %q: %v", wl, trace, last, err)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: no metric %s", wl, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s has unit %q, want %q", wl, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", wl, d.name, m.Value)
				}
			}
			if trace {
				checkLayers(t, wl, res.metrics)
			}
		}
	}
}

// checkLayers asserts the traced run's layer separation: mpi, mpiio
// and the driver only on the checkpoint, the service only on the
// gateway, and one flattened-index build per restart iteration.
func checkLayers(t *testing.T, wl string, m map[string]float64) {
	t.Helper()
	only := map[string]string{"mpiio.": "n1_checkpoint", "mpi.": "n1_checkpoint",
		"driver.": "n1_checkpoint", "service.": "gateway_qos"}
	for prefix, owner := range only {
		var sum float64
		for name, v := range m {
			if strings.HasPrefix(name, prefix) {
				sum += v
			}
		}
		if (wl == owner) != (sum != 0) {
			t.Errorf("%s: %s* metrics sum to %v", wl, prefix, sum)
		}
	}
	for _, name := range []string{"posix.backend_ops", "plfs.read.count"} {
		if m[name] <= 0 {
			t.Errorf("%s: %s = %v, want > 0", wl, name, m[name])
		}
	}
	if wl == "restart_tools" && m["readcache.flattened_builds"] < 2 {
		t.Errorf("restart_tools: %v flattened builds over 2 iterations", m["readcache.flattened_builds"])
	}
	if wl == "restart_tools" && m["shim.calls.read"] <= 0 {
		t.Errorf("restart_tools: no shim reads traced")
	}
}

// Flipping one byte of a read-back fails the run.
func TestFlippedByteFailsRun(t *testing.T) {
	for _, wl := range workloadNames {
		cfg := tiny(wl, false)
		cfg.corrupt = true
		res, err, out := runTiny(t, cfg)
		if res.correct || !errors.Is(err, errMismatch) {
			t.Errorf("%s: corrupt read-back gave correct=%v err=%v\n%s", wl, res.correct, err, out)
		}
	}
}

// Tracing must not change what reaches the backends: a fixed-seed
// iteration issues the same backend operations and vector segments,
// counted below the tracing layer, with tracing on and off.
func TestTracingKeepsBackendOps(t *testing.T) {
	for _, wl := range workloadNames {
		// The checkpoint's two ranks run separate plfs instances whose
		// opens and closes race, so even two untraced runs of it differ
		// by a few backend operations. It alone is run up to five times
		// per mode, and passes once both modes have produced the same
		// counts; every other workload must match on its first run.
		rounds := 1
		if wl == "n1_checkpoint" {
			rounds = 5
		}
		seen := [2]map[[2]int64]bool{{}, {}}
		match := false
		for round := 0; round < rounds && !match; round++ {
			for i, trace := range []bool{false, true} {
				cfg := tiny(wl, trace)
				cfg.iters, cfg.overhead = 1, 0
				probe := iostats.NewPlane()
				cfg.probe = probe
				if res, err, out := runTiny(t, cfg); err != nil || !res.correct {
					t.Fatalf("%s trace=%v: %v\n%s", wl, trace, err, out)
				}
				l := probe.Layer("posix")
				got := [2]int64{l.Counter("backend_ops").Load(), l.Counter("vector_segments").Load()}
				seen[i][got] = true
				match = match || seen[1-i][got]
			}
		}
		if !match {
			t.Errorf("%s: backend ops/segments untraced %v, traced %v", wl, seen[0], seen[1])
		}
	}
}

// The posix wrapper hands a vector to the backend as one operation.
func TestTracedFSForwardsVectors(t *testing.T) {
	probe := iostats.NewPlane()
	fs := newTracer().wrapFS(posix.NewInstrumentFS(posix.NewMemFS(), probe))
	fd, err := fs.Open("/f", posix.O_CREAT|posix.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	bufs := [][]byte{[]byte("ab"), []byte("cd"), []byte("ef")}
	if n, err := posix.Pwritev(fs, fd, bufs, 0); n != 6 || err != nil {
		t.Fatalf("pwritev: %d %v", n, err)
	}
	if n, err := posix.Preadv(fs, fd, bufs, 0); n != 6 || err != nil {
		t.Fatalf("preadv: %d %v", n, err)
	}
	l := probe.Layer("posix")
	if ops, segs := l.Counter("backend_ops").Load(), l.Counter("vector_segments").Load(); ops != 2 || segs != 6 {
		t.Errorf("backend saw %d ops carrying %d segments, want 2 and 6", ops, segs)
	}
}

// The driver wrapper exposes exactly the vector capabilities of the
// file it wraps.
func TestTracedDriverForwardsVectors(t *testing.T) {
	mem := posix.NewMemFS()
	for _, c := range []struct {
		name   string
		driver mpiio.Driver
		vector bool
	}{
		{"plfs", mpiio.NewPLFSDriver(plfs.New(mem), nil), true},
		{"ufs", mpiio.NewUFS(posix.NewDispatch(mem)), false},
	} {
		df, err := newTracer().wrapDriver(c.driver, 0).Open("/"+c.name, mpiio.ModeCreate|mpiio.ModeRdwr, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, w := df.(mpiio.VectorWriter)
		_, r := df.(mpiio.VectorReader)
		if w != c.vector || r != c.vector {
			t.Errorf("%s: wrapped file VectorWriter=%v VectorReader=%v, want %v", c.name, w, r, c.vector)
		}
		df.Close()
	}
}
