package main

// Boundary tracing. Every span is taken from the benchmark's own code,
// around the calls it makes into a layer's public surface:
//
//	mpiio   WriteAll/ReadAll, timed by the checkpoint workload
//	driver  a wrapping mpiio.Driver between mpiio and the UFS driver
//	shim    a timing layer installed over the preloaded posix.Dispatch
//	posix   a timing posix.FS over a posix.InstrumentFS over every
//	        OSFS backend
//	plfs, readcache, mpiio counters, service tenants
//	        read from the iostats plane the stack already reports to
//
// A layer's self time is its span minus the part of that interval its
// child spans cover; spans of the children are logged as intervals
// while a parent is open and folded into a union when it closes.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ldplfs/internal/iostats"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/posix"
)

// epoch anchors every timestamp on the monotonic clock.
var epoch = time.Now()

// now returns nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// samples is a mutex-guarded list of durations in nanoseconds.
type samples struct {
	mu sync.Mutex
	ns []int64
}

func (s *samples) add(d int64) {
	s.mu.Lock()
	s.ns = append(s.ns, d)
	s.mu.Unlock()
}

// quantileUs returns the q-quantile in microseconds.
func (s *samples) quantileUs(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := make([]float64, len(s.ns))
	for i, d := range s.ns {
		v[i] = float64(d) / 1e3
	}
	return quantile(v, q)
}

func (s *samples) reset() {
	s.mu.Lock()
	s.ns = s.ns[:0]
	s.mu.Unlock()
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks; 0 for an empty list. v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// intervals logs child spans while a parent span is open and reports
// how much of the parent's interval they cover. Parents sharing one log
// never overlap in time: a rank's collectives run one after another,
// and the UNIX tools issue one shim call at a time.
type intervals struct {
	open atomic.Int32
	mu   sync.Mutex
	iv   [][2]int64
}

// add logs the child span [start, end) if a parent is open.
func (l *intervals) add(start, end int64) {
	if l == nil || l.open.Load() == 0 {
		return
	}
	l.mu.Lock()
	l.iv = append(l.iv, [2]int64{start, end})
	l.mu.Unlock()
}

// begin opens a parent span and returns its mark in the log.
func (l *intervals) begin() int {
	l.mu.Lock()
	mark := len(l.iv)
	l.mu.Unlock()
	l.open.Add(1)
	return mark
}

// end closes the parent span [start, stop) opened at mark and returns
// the nanoseconds of it covered by the children logged since.
func (l *intervals) end(mark int, start, stop int64) int64 {
	l.open.Add(-1)
	l.mu.Lock()
	iv := append([][2]int64(nil), l.iv[mark:]...)
	l.iv = l.iv[:mark]
	l.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered int64
	cur := start
	for _, s := range iv {
		a, b := max(s[0], cur), min(s[1], stop)
		if b > a {
			covered += b - a
			cur = b
		}
	}
	return covered
}

// span accumulates one boundary: calls, busy and self time, latencies.
type span struct {
	calls atomic.Int64
	busy  atomic.Int64
	self  atomic.Int64
	lat   samples
}

func (s *span) observe(d, covered int64) {
	s.calls.Add(1)
	s.busy.Add(d)
	s.self.Add(d - covered)
	s.lat.add(d)
}

func (s *span) reset() {
	s.calls.Store(0)
	s.busy.Store(0)
	s.self.Store(0)
	s.lat.reset()
}

// tracer holds every per-layer measurement of a traced run.
type tracer struct {
	plane *iostats.Plane
	base  iostats.Snapshot // plane state when measurement began

	mpiioWrite, mpiioRead span
	ranks                 [ckptRanks]intervals // driver spans under each rank's collectives
	barrierWait           atomic.Int64

	driver      span
	driverBytes atomic.Int64

	shim      [numShimOps]atomic.Int64
	shimSpan  span // every shim call
	shimRead  samples
	shimOpen  samples
	underShim intervals // posix spans under the shim

	posix posixStats

	client  map[string]*samples // gateway client ops by name
	genLate samples
}

func newTracer() *tracer {
	t := &tracer{plane: iostats.NewPlane(), client: map[string]*samples{}}
	for _, op := range clientOps {
		t.client[op] = &samples{}
	}
	return t
}

// clientOps are the gateway client operations the tracer times.
var clientOps = []string{"open", "read", "create", "write", "sync"}

// begin forgets everything recorded so far (set-up, warm-up) and
// snapshots the plane so its counters are reported as differences.
func (t *tracer) begin() {
	t.base = t.plane.Snapshot()
	t.mpiioWrite.reset()
	t.mpiioRead.reset()
	t.barrierWait.Store(0)
	t.driver.reset()
	t.driverBytes.Store(0)
	for i := range t.shim {
		t.shim[i].Store(0)
	}
	t.shimSpan.reset()
	t.shimRead.reset()
	t.shimOpen.reset()
	t.posix.reset()
	for _, s := range t.client {
		s.reset()
	}
	t.genLate.reset()
}

// --- posix: a timing wrapper over each backend -----------------------------

// posixStats is shared by every wrapped backend of a store. Operation,
// segment and byte counts come from the posix.InstrumentFS stacked
// under the wrapper; it adds the time spent in the backends.
type posixStats struct {
	busy, fsync atomic.Int64
}

func (p *posixStats) reset() {
	p.busy.Store(0)
	p.fsync.Store(0)
}

// tracedFS times every call into inner and logs each as a child span of
// the shim call above it, if any. It forwards the optional
// posix.VectorFS capability, so the layers above batch exactly as they
// would over the bare backend.
type tracedFS struct {
	inner posix.FS
	st    *posixStats
	up    *intervals // the shim's child log
}

var (
	_ posix.FS       = (*tracedFS)(nil)
	_ posix.VectorFS = (*tracedFS)(nil)
)

// wrapFS stacks a posix.InstrumentFS reporting to the tracer's plane
// over inner, and the timing wrapper over that.
func (t *tracer) wrapFS(inner posix.FS) *tracedFS {
	return &tracedFS{inner: posix.NewInstrumentFS(inner, t.plane), st: &t.posix, up: &t.underShim}
}

// Unwrap lets capability probes see through the wrapper, as they do
// through posix.InstrumentFS.
func (f *tracedFS) Unwrap() posix.FS { return f.inner }

func (f *tracedFS) done(start int64) int64 {
	end := now()
	f.st.busy.Add(end - start)
	f.up.add(start, end)
	return end - start
}

func (f *tracedFS) Open(path string, flags int, mode uint32) (int, error) {
	s := now()
	fd, err := f.inner.Open(path, flags, mode)
	f.done(s)
	return fd, err
}

func (f *tracedFS) Close(fd int) error {
	s := now()
	err := f.inner.Close(fd)
	f.done(s)
	return err
}

func (f *tracedFS) Read(fd int, p []byte) (int, error) {
	s := now()
	n, err := f.inner.Read(fd, p)
	f.done(s)
	return n, err
}

func (f *tracedFS) Write(fd int, p []byte) (int, error) {
	s := now()
	n, err := f.inner.Write(fd, p)
	f.done(s)
	return n, err
}

func (f *tracedFS) Pread(fd int, p []byte, off int64) (int, error) {
	s := now()
	n, err := f.inner.Pread(fd, p, off)
	f.done(s)
	return n, err
}

func (f *tracedFS) Pwrite(fd int, p []byte, off int64) (int, error) {
	s := now()
	n, err := f.inner.Pwrite(fd, p, off)
	f.done(s)
	return n, err
}

func (f *tracedFS) Preadv(fd int, bufs [][]byte, off int64) (int64, error) {
	s := now()
	n, err := posix.Preadv(f.inner, fd, bufs, off)
	f.done(s)
	return n, err
}

func (f *tracedFS) Pwritev(fd int, bufs [][]byte, off int64) (int64, error) {
	s := now()
	n, err := posix.Pwritev(f.inner, fd, bufs, off)
	f.done(s)
	return n, err
}

func (f *tracedFS) Lseek(fd int, offset int64, whence int) (int64, error) {
	s := now()
	n, err := f.inner.Lseek(fd, offset, whence)
	f.done(s)
	return n, err
}

func (f *tracedFS) Fsync(fd int) error {
	s := now()
	err := f.inner.Fsync(fd)
	f.st.fsync.Add(f.done(s))
	return err
}

func (f *tracedFS) Ftruncate(fd int, size int64) error {
	s := now()
	err := f.inner.Ftruncate(fd, size)
	f.done(s)
	return err
}

func (f *tracedFS) Fstat(fd int) (posix.Stat, error) {
	s := now()
	st, err := f.inner.Fstat(fd)
	f.done(s)
	return st, err
}

func (f *tracedFS) Stat(path string) (posix.Stat, error) {
	s := now()
	st, err := f.inner.Stat(path)
	f.done(s)
	return st, err
}

func (f *tracedFS) Truncate(path string, size int64) error {
	s := now()
	err := f.inner.Truncate(path, size)
	f.done(s)
	return err
}

func (f *tracedFS) Unlink(path string) error {
	s := now()
	err := f.inner.Unlink(path)
	f.done(s)
	return err
}

func (f *tracedFS) Mkdir(path string, mode uint32) error {
	s := now()
	err := f.inner.Mkdir(path, mode)
	f.done(s)
	return err
}

func (f *tracedFS) Rmdir(path string) error {
	s := now()
	err := f.inner.Rmdir(path)
	f.done(s)
	return err
}

func (f *tracedFS) Readdir(path string) ([]posix.DirEntry, error) {
	s := now()
	ents, err := f.inner.Readdir(path)
	f.done(s)
	return ents, err
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	s := now()
	err := f.inner.Rename(oldpath, newpath)
	f.done(s)
	return err
}

func (f *tracedFS) Access(path string, mode int) error {
	s := now()
	err := f.inner.Access(path, mode)
	f.done(s)
	return err
}

// --- driver: a wrapping ADIO driver between mpiio and ufs ------------------

// tracedDriver times every call mpiio makes into its driver and logs
// each as a child span of the rank's open collective.
type tracedDriver struct {
	inner mpiio.Driver
	t     *tracer
	log   *intervals
}

func (t *tracer) wrapDriver(inner mpiio.Driver, rank int) mpiio.Driver {
	return &tracedDriver{inner: inner, t: t, log: &t.ranks[rank]}
}

func (d *tracedDriver) Name() string { return d.inner.Name() }

func (d *tracedDriver) done(start, bytes int64) {
	end := now()
	d.t.driver.observe(end-start, 0)
	d.t.driverBytes.Add(bytes)
	d.log.add(start, end)
}

func (d *tracedDriver) Open(path string, amode int, rank int) (mpiio.DriverFile, error) {
	s := now()
	df, err := d.inner.Open(path, amode, rank)
	d.done(s, 0)
	if err != nil {
		return nil, err
	}
	return wrapDriverFile(&tracedFile{inner: df, d: d}), nil
}

func (d *tracedDriver) Delete(path string) error {
	s := now()
	err := d.inner.Delete(path)
	d.done(s, 0)
	return err
}

type tracedFile struct {
	inner mpiio.DriverFile
	d     *tracedDriver
}

// wrapDriverFile exposes exactly the optional vector capabilities the
// wrapped file has, so mpiio's aggregators take the same path traced
// and untraced.
func wrapDriverFile(f *tracedFile) mpiio.DriverFile {
	_, w := f.inner.(mpiio.VectorWriter)
	_, r := f.inner.(mpiio.VectorReader)
	switch {
	case w && r:
		return tracedFileWR{f}
	case w:
		return tracedFileW{f}
	case r:
		return tracedFileR{f}
	}
	return f
}

func (f *tracedFile) PreadAt(p []byte, off int64) (int, error) {
	s := now()
	n, err := f.inner.PreadAt(p, off)
	f.d.done(s, int64(n))
	return n, err
}

func (f *tracedFile) PwriteAt(p []byte, off int64) (int, error) {
	s := now()
	n, err := f.inner.PwriteAt(p, off)
	f.d.done(s, int64(n))
	return n, err
}

func (f *tracedFile) Size() (int64, error) {
	s := now()
	n, err := f.inner.Size()
	f.d.done(s, 0)
	return n, err
}

func (f *tracedFile) Truncate(size int64) error {
	s := now()
	err := f.inner.Truncate(size)
	f.d.done(s, 0)
	return err
}

func (f *tracedFile) Sync() error {
	s := now()
	err := f.inner.Sync()
	f.d.done(s, 0)
	return err
}

func (f *tracedFile) Close() error {
	s := now()
	err := f.inner.Close()
	f.d.done(s, 0)
	return err
}

func (f *tracedFile) pwritev(segs []mpiio.Segment, buf []byte) (int, error) {
	s := now()
	n, err := f.inner.(mpiio.VectorWriter).PwritevAt(segs, buf)
	f.d.done(s, int64(n))
	return n, err
}

func (f *tracedFile) preadv(segs []mpiio.Segment, buf []byte) (int, error) {
	s := now()
	n, err := f.inner.(mpiio.VectorReader).PreadvAt(segs, buf)
	f.d.done(s, int64(n))
	return n, err
}

type tracedFileW struct{ *tracedFile }

func (f tracedFileW) PwritevAt(segs []mpiio.Segment, buf []byte) (int, error) {
	return f.pwritev(segs, buf)
}

type tracedFileR struct{ *tracedFile }

func (f tracedFileR) PreadvAt(segs []mpiio.Segment, buf []byte) (int, error) {
	return f.preadv(segs, buf)
}

type tracedFileWR struct{ *tracedFile }

func (f tracedFileWR) PwritevAt(segs []mpiio.Segment, buf []byte) (int, error) {
	return f.pwritev(segs, buf)
}

func (f tracedFileWR) PreadvAt(segs []mpiio.Segment, buf []byte) (int, error) {
	return f.preadv(segs, buf)
}

// --- shim: a timing layer over the preloaded dispatch ----------------------

// Shim call classes reported as shim.calls.<op>.
const (
	shOpen = iota
	shClose
	shRead
	shWrite
	shPread
	shPwrite
	shLseek
	shFsync
	shFstat
	shStat
	shUnlink
	shOther
	numShimOps
)

var shimOpNames = [numShimOps]string{"open", "close", "read", "write", "pread",
	"pwrite", "lseek", "fsync", "fstat", "stat", "unlink", "other"}

// shimCall opens a shim span; its returned func closes it.
func (t *tracer) shimCall(op int, lat *samples) func() {
	mark := t.underShim.begin()
	start := now()
	return func() {
		end := now()
		d := end - start
		t.shim[op].Add(1)
		t.shimSpan.observe(d, t.underShim.end(mark, start, end))
		if lat != nil {
			lat.add(d)
		}
	}
}

// traceDispatch installs the timing layer over d the way a second
// LD_PRELOAD library stacks over LDPLFS: it captures the current
// bindings and rebinds every symbol to a timed call into them.
func (t *tracer) traceDispatch(d *posix.Dispatch) {
	prev := d.Snapshot()
	d.OpenFn = func(path string, flags int, mode uint32) (int, error) {
		defer t.shimCall(shOpen, &t.shimOpen)()
		return prev.OpenFn(path, flags, mode)
	}
	d.CloseFn = func(fd int) error {
		defer t.shimCall(shClose, nil)()
		return prev.CloseFn(fd)
	}
	d.ReadFn = func(fd int, p []byte) (int, error) {
		defer t.shimCall(shRead, &t.shimRead)()
		return prev.ReadFn(fd, p)
	}
	d.WriteFn = func(fd int, p []byte) (int, error) {
		defer t.shimCall(shWrite, nil)()
		return prev.WriteFn(fd, p)
	}
	d.PreadFn = func(fd int, p []byte, off int64) (int, error) {
		defer t.shimCall(shPread, &t.shimRead)()
		return prev.PreadFn(fd, p, off)
	}
	d.PwriteFn = func(fd int, p []byte, off int64) (int, error) {
		defer t.shimCall(shPwrite, nil)()
		return prev.PwriteFn(fd, p, off)
	}
	d.LseekFn = func(fd int, offset int64, whence int) (int64, error) {
		defer t.shimCall(shLseek, nil)()
		return prev.LseekFn(fd, offset, whence)
	}
	d.FsyncFn = func(fd int) error {
		defer t.shimCall(shFsync, nil)()
		return prev.FsyncFn(fd)
	}
	d.FtruncateFn = func(fd int, size int64) error {
		defer t.shimCall(shOther, nil)()
		return prev.FtruncateFn(fd, size)
	}
	d.FstatFn = func(fd int) (posix.Stat, error) {
		defer t.shimCall(shFstat, nil)()
		return prev.FstatFn(fd)
	}
	d.StatFn = func(path string) (posix.Stat, error) {
		defer t.shimCall(shStat, nil)()
		return prev.StatFn(path)
	}
	d.TruncateFn = func(path string, size int64) error {
		defer t.shimCall(shOther, nil)()
		return prev.TruncateFn(path, size)
	}
	d.UnlinkFn = func(path string) error {
		defer t.shimCall(shUnlink, nil)()
		return prev.UnlinkFn(path)
	}
	d.MkdirFn = func(path string, mode uint32) error {
		defer t.shimCall(shOther, nil)()
		return prev.MkdirFn(path, mode)
	}
	d.RmdirFn = func(path string) error {
		defer t.shimCall(shOther, nil)()
		return prev.RmdirFn(path)
	}
	d.ReaddirFn = func(path string) ([]posix.DirEntry, error) {
		defer t.shimCall(shOther, nil)()
		return prev.ReaddirFn(path)
	}
	d.RenameFn = func(oldpath, newpath string) error {
		defer t.shimCall(shOther, nil)()
		return prev.RenameFn(oldpath, newpath)
	}
	d.AccessFn = func(path string, mode int) error {
		defer t.shimCall(shOther, nil)()
		return prev.AccessFn(path, mode)
	}
}

// --- the plane: counters and log2 histograms, reported as differences ------

// planeView is the plane's change since tracer.begin.
type planeView struct {
	now, base iostats.Snapshot
}

func (t *tracer) view() planeView { return planeView{now: t.plane.Snapshot(), base: t.base} }

func findLayer(s iostats.Snapshot, name string) *iostats.LayerSnapshot {
	for i := range s.Layers {
		if s.Layers[i].Name == name {
			return &s.Layers[i]
		}
	}
	return nil
}

func findOp(l *iostats.LayerSnapshot, op string) iostats.OpSnapshot {
	if l != nil {
		for _, o := range l.Ops {
			if o.Op == op {
				return o
			}
		}
	}
	return iostats.OpSnapshot{}
}

// counter returns the growth of a named counter on a layer.
func (v planeView) counter(layer, name string) float64 {
	val := func(s iostats.Snapshot) int64 {
		if l := findLayer(s, layer); l != nil {
			for _, c := range l.Counters {
				if c.Name == name {
					return c.Value
				}
			}
		}
		return 0
	}
	return float64(val(v.now) - val(v.base))
}

// op returns the growth of one op row: count, bytes, latency buckets.
func (v planeView) op(layer, op string) iostats.OpSnapshot {
	a, b := findOp(findLayer(v.now, layer), op), findOp(findLayer(v.base, layer), op)
	a.Count -= b.Count
	a.Bytes -= b.Bytes
	a.Lat.Count -= b.Lat.Count
	for i := range a.Lat.Buckets {
		a.Lat.Buckets[i] -= b.Lat.Buckets[i]
	}
	return a
}

// histQuantileUs estimates the q-quantile of a log2 latency histogram
// in microseconds, interpolating linearly inside the bucket the rank
// falls in (bucket i holds [2^(i-1), 2^i) ns).
func histQuantileUs(h iostats.HistSnapshot, q float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			if i == 0 {
				return 0
			}
			lo := math.Ldexp(1, i-1)
			frac := (rank - seen) / float64(n)
			return (lo + frac*lo) / 1e3
		}
		seen += float64(n)
	}
	return math.Ldexp(1, len(h.Buckets)) / 1e3
}
