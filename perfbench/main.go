// Command perfbench is the repository benchmark. It runs the real
// LDPLFS stack in one process over real files in a fresh directory
// under .bench_tmp/, checks every byte it reads back, and prints its
// metrics by name and unit, ending with one JSON line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	n1_checkpoint  2 ranks, collective strided writes then reads of one
//	               shared file through mpiio -> ufs -> LDPLFS -> plfs
//	restart_tools  a cold restart of a many-writer container with the
//	               unmodified cp and cat through a fresh preload
//	gateway_qos    two tenants of an in-process plfsd: an open-loop
//	               reader and a closed-loop writer on one store
//
// Every workload reports every end-to-end metric:
//
//	                n1_checkpoint        restart_tools        gateway_qos
//	write_mbps      K WriteAll           cp of the container  batch: one write
//	read_mbps       K ReadAll            cat of the container gold: one read of a
//	                                                          burst, batch idle
//	open_ms         a fresh process opens the file and reads its first byte;
//	                gateway_qos: gold over the wire
//	read_p50_us     one ReadAll call     one chunk of cat     one gold read, send
//	                                                          to reply, plus time
//	                                                          held by a late reply
//	peak_rss_mb     peak resident set of an iteration, median over iterations
//	setup_s         median of several set-ups
//
// Rates and open times are medians over iterations (gateway_qos: over
// single writes and reads).
// Read latency above the median is printed, and reported by the traced
// run as read.p95_us and read.p99_us (medians of the percentiles of
// blocks of at least 1000 reads), but it is not an end-to-end metric:
// on gateway_qos every percentile from the 75th up moved by a sixth to
// a third between runs of the same code on a 2-CPU virtual machine.
// Failed operations are counted, not hidden: the result's "failed" of
// "attempted" is the failed share.
//
// --trace 0 reports the end-to-end metrics, measured untraced; --trace 1
// reports the per-layer metrics from a traced measurement. Either way a
// shorter pass in the other mode follows, and the difference between the
// two is printed as the tracing overhead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ldplfs/internal/iostats"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	tiny     bool    // self-test sizes
	iters    int     // fixed iteration count; 0 runs for seconds
	setups   int     // least set-ups timed for setup_s
	overhead float64 // seconds of the opposite-mode pass; 0 skips it
	corrupt  bool    // flip one byte of a read-back before verifying it
	// probe, when set, counts backend operations below the tracing
	// layer (posix.InstrumentFS), the same with tracing on and off.
	probe iostats.Collector
}

// workload is one benchmark scenario. iterate records into a; it
// counts failed operations there and returns an error only when a
// read-back does not match what was written.
type workload interface {
	sizes() string
	setup(dir string) error
	teardown()
	iterate(tr *tracer, a *acc) error
	// period is the least time from one iteration's start to the next
	// (0: back to back). The idle rest stands for the application's
	// compute between checkpoints; it also bounds the synced bytes a
	// run pushes to the disk.
	period() time.Duration
}

var workloadNames = []string{"n1_checkpoint", "restart_tools", "gateway_qos"}

func newWorkload(cfg config, tr *tracer) workload {
	switch cfg.workload {
	case "n1_checkpoint":
		return newCheckpoint(cfg, tr)
	case "restart_tools":
		return newRestart(cfg, tr)
	case "gateway_qos":
		return newGateway(cfg, tr)
	}
	return nil
}

// acc accumulates one measurement pass.
type acc struct {
	attempted, failed int64
	errs              []string
	write, read       []float64 // MB/s, one per iteration or cycle
	open              []float64 // ms
	readLat           []float64 // µs
	latBlocks         [][]float64
	genLate           []float64 // µs
	rss               []float64 // MB, peak of each iteration
}

// latBlock is the least number of read latencies in one block of a
// tail estimate: a block's p99 then has at least ten samples beyond it.
const latBlock = 1000

// addReadLat records one iteration's read latencies. Consecutive
// iterations fill blocks of at least latBlock samples each.
func (a *acc) addReadLat(lat []float64) {
	a.readLat = append(a.readLat, lat...)
	if n := len(a.latBlocks); n == 0 || len(a.latBlocks[n-1]) >= latBlock {
		a.latBlocks = append(a.latBlocks, nil)
	}
	n := len(a.latBlocks) - 1
	a.latBlocks[n] = append(a.latBlocks[n], lat...)
}

// readTail is the median of the full blocks' q-quantiles — robust to
// one disturbed stretch of a run — or the pooled q-quantile when no
// block is full.
func (a *acc) readTail(q float64) float64 {
	var qs []float64
	for _, b := range a.latBlocks {
		if len(b) >= latBlock {
			qs = append(qs, quantile(b, q))
		}
	}
	if len(qs) == 0 {
		return quantile(a.readLat, q)
	}
	return median(qs)
}

// op counts one attempted operation and reports whether it succeeded.
func (a *acc) op(err error) bool {
	a.attempted++
	if err == nil {
		return true
	}
	a.failed++
	a.note(err)
	return false
}

// note keeps the first few failure messages for the report.
func (a *acc) note(err error) {
	if len(a.errs) < 5 {
		a.errs = append(a.errs, err.Error())
	}
}

func mbps(bytes int64, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / (float64(ns) / 1e9)
}

// errMismatch marks a read-back that differs from what was written.
var errMismatch = errors.New("read-back mismatch")

// errHung marks an iteration that outlived its deadline.
var errHung = errors.New("iteration exceeded its deadline")

// iterDeadline bounds one iteration, so a stuck collective becomes a
// reported failure instead of a hung run.
const iterDeadline = 60 * time.Second

// result is what a run reports.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
	units             map[string]string
}

func main() {
	cfg := config{setups: 5}
	var seed int64
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics untraced, 1 = per-layer metrics traced")
	flag.Parse()
	cfg.seed, cfg.trace = uint64(seed), traceFlag == 1
	cfg.overhead = min(3, max(1, cfg.seconds/5))
	if newWorkload(cfg, nil) == nil || traceFlag < 0 || traceFlag > 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload one of", workloadNames, "and --trace 0|1")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res.metrics == nil {
			os.Exit(1)
		}
	}
	printJSON(os.Stdout, res)
	if !res.correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it and reports. A set-up failure
// returns an error and no metrics; a mismatch or a hang returns the
// error with metrics and correct=false.
func run(cfg config, out io.Writer) (result, error) {
	res := result{units: map[string]string{}}
	tr := newTracer()
	w := newWorkload(cfg, tr)
	if err := os.MkdirAll(".bench_tmp", 0o755); err != nil {
		return res, err
	}
	root, err := os.MkdirTemp(".bench_tmp", cfg.workload+"-")
	if err != nil {
		return res, err
	}
	if root, err = filepath.Abs(root); err != nil {
		return res, err
	}
	defer os.RemoveAll(root)
	header(out, cfg, w, root)

	// In a timed run, short set-ups repeat until a second has gone into
	// them, so their median rests on more samples. A run of fixed
	// iterations sets up exactly cfg.setups times.
	var setups []float64
	var spent float64
	more := func(i int) bool { return cfg.iters == 0 && i < 5*cfg.setups && spent < 1 }
	for i := 0; i < max(1, cfg.setups) || more(i); i++ {
		if i > 0 {
			w.teardown()
		}
		dir := filepath.Join(root, fmt.Sprintf("setup%d", i))
		start := now()
		if err := w.setup(dir); err != nil {
			w.teardown()
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, float64(now()-start)/1e9)
		spent += setups[i]
	}

	a, runErr := measure(w, cfg.trace, cfg.seconds, cfg.iters, tr, cfg.iters == 0)
	res.correct = runErr == nil
	res.attempted, res.failed = a.attempted, a.failed
	if errors.Is(runErr, errHung) {
		res.attempted++
		res.failed++
	}
	e2e := endToEndValues(a, median(setups))
	if cfg.trace {
		res.metrics = tr.layerMetrics(a)
		for _, d := range perLayer {
			res.units[d.name] = d.unit
		}
	} else {
		res.metrics = e2e
		for _, d := range endToEnd {
			res.units[d.name] = d.unit
		}
	}
	report(out, cfg, a, setups, e2e)
	if runErr != nil {
		// A hung iteration may still hold the store; leave it be.
		if !errors.Is(runErr, errHung) {
			w.teardown()
		}
		return res, runErr
	}
	if cfg.overhead > 0 {
		b, err := measure(w, !cfg.trace, cfg.overhead, min(cfg.iters, 1), tr, false)
		if err != nil {
			res.correct = false
			if !errors.Is(err, errHung) {
				w.teardown()
			}
			return res, err
		}
		other := endToEndValues(b, median(setups))
		traced, plain := e2e, other
		if !cfg.trace {
			traced, plain = other, e2e
		}
		for _, d := range endToEnd[1:] {
			fmt.Fprintf(out, "overhead %-14s traced %12.3f untraced %12.3f delta %+12.3f %s\n",
				d.name, traced[d.name], plain[d.name], traced[d.name]-plain[d.name], d.unit)
		}
	}
	w.teardown()
	return res, nil
}

// measure runs iterations for seconds (or exactly iters of them),
// after one discarded warm-up iteration if warm is set.
func measure(w workload, traced bool, seconds float64, iters int, tr *tracer, warm bool) (*acc, error) {
	if !traced {
		tr = nil
	}
	if warm {
		if err := bounded(w, tr, &acc{}); err != nil {
			return &acc{}, err
		}
	}
	if tr != nil {
		tr.begin()
	}
	a := &acc{}
	rss := startRSS()
	defer rss.stop()
	start := now()
	for i := 0; ; i++ {
		if iters > 0 && i >= iters {
			break
		}
		if iters == 0 && i >= 2 && float64(now()-start)/1e9 >= seconds {
			break
		}
		begin := time.Now()
		rss.take()
		if err := bounded(w, tr, a); err != nil {
			return a, err
		}
		a.rss = append(a.rss, rss.take())
		time.Sleep(time.Until(begin.Add(w.period())))
	}
	return a, nil
}

// rssSampler tracks the peak resident set between takes, sampling
// /proc/self/statm every few milliseconds. The process's lifetime peak
// would be set by set-up; the per-iteration peak is what a user of the
// steady state sees.
type rssSampler struct {
	peak atomic.Int64
	quit chan struct{}
	done chan struct{}
}

const rssEvery = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	b := pages * int64(os.Getpagesize())
	for {
		p := s.peak.Load()
		if b <= p || s.peak.CompareAndSwap(p, b) {
			return
		}
	}
}

// take returns the peak in MB since the last take and starts a new one.
func (s *rssSampler) take() float64 {
	s.sample()
	return float64(s.peak.Swap(0)) / 1e6
}

func (s *rssSampler) stop() {
	close(s.quit)
	<-s.done
}

// bounded runs one iteration under iterDeadline. Each starts from a
// collected heap, so garbage from earlier iterations neither triggers
// a collection inside this one's timed phases nor lifts its peak.
func bounded(w workload, tr *tracer, a *acc) error {
	runtime.GC()
	done := make(chan error, 1)
	go func() { done <- w.iterate(tr, a) }()
	select {
	case err := <-done:
		return err
	case <-time.After(iterDeadline):
		return errHung
	}
}

// endToEndValues turns a pass into the end-to-end metrics.
func endToEndValues(a *acc, setup float64) map[string]float64 {
	return map[string]float64{
		"setup_s":     setup,
		"write_mbps":  median(a.write),
		"read_mbps":   median(a.read),
		"open_ms":     median(a.open),
		"read_p50_us": quantile(a.readLat, 0.5),
		"peak_rss_mb": median(a.rss),
	}
}

func header(out io.Writer, cfg config, w workload, dir string) {
	commit := os.Getenv("LDBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Fprintf(out, "env workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "env gomaxprocs=%d nproc=%d go=%s commit=%s llc=%dMiB tmpdir_fs=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit, llcBytes()>>20, fsType(dir))
	fmt.Fprintf(out, "env sizes: %s\n", w.sizes())
}

func report(out io.Writer, cfg config, a *acc, setups []float64, e2e map[string]float64) {
	fmt.Fprintf(out, "setups %d: %v s\n", len(setups), setups)
	fmt.Fprintf(out, "ops attempted %d failed %d failed_share %.6f\n", a.attempted, a.failed, ratio(float64(a.failed), float64(a.attempted)))
	for _, e := range a.errs {
		fmt.Fprintln(out, "failure:", e)
	}
	fmt.Fprintf(out, "samples write %d read %d open %d read_latency %d\n", len(a.write), len(a.read), len(a.open), len(a.readLat))
	fmt.Fprintf(out, "read latency p95 %.1f us p99 %.1f us (medians over blocks)\n", a.readTail(0.95), a.readTail(0.99))
	if len(a.genLate) > 0 {
		fmt.Fprintf(out, "generator late p50 %.1f us p99 %.1f us over %d requests\n",
			quantile(a.genLate, 0.5), quantile(a.genLate, 0.99), len(a.genLate))
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	for _, d := range endToEnd {
		fmt.Fprintf(out, "e2e (%s) %-14s %14.4f %s\n", mode, d.name, e2e[d.name], d.unit)
	}
}

func printJSON(out io.Writer, res result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for name, v := range res.metrics {
		metrics[name] = value{v, res.units[name]}
		fmt.Fprintf(out, "metric %-36s %16.4f %s\n", name, v, res.units[name])
	}
	attempted := max(res.attempted, 1)
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, attempted, res.failed, metrics})
	fmt.Fprintln(out, string(b))
}

// llcBytes is the size of the largest (last-level) cache, from sysfs.
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		raw, err := os.ReadFile(dir + "size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	if best == 0 {
		best = 32 << 20
	}
	return best
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
