package main

// restart_tools: Table II on a restart. Set-up writes a many-writer N-1
// container at least as large as the host's last-level cache, on a
// replica-2 layout over three directories. Each iteration starts a new
// process image — a fresh LDPLFS preload over a new plfs instance, so
// every PLFS cache is cold — opens the container to its first byte, and
// runs the unmodified cp and cat over it.

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"ldplfs/internal/core"
	"ldplfs/internal/harness"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
	"ldplfs/internal/unixtools"
)

type restart struct {
	cfg     config
	tr      *tracer
	size    int64
	block   int64
	writers int

	dir    string
	pat    *pattern
	stores [2]posix.FS // untraced, traced
	iter   int
}

const restartSrc = "ckpt"

// coldOpens is how many cold opens to the first byte each iteration of
// n1_checkpoint and restart_tools times: one open is too short and too
// variable a sample to take alone.
const coldOpens = 5

func newRestart(cfg config, tr *tracer) *restart {
	w := &restart{cfg: cfg, tr: tr, block: 16 << 10, writers: 64}
	// At least the last-level cache, so a cat cannot be served from it;
	// bounded so a host with a huge cache still fits a run in minutes.
	w.size = min(max((llcBytes()+(1<<20)-1)&^(1<<20-1), 64<<20), 1<<30)
	if cfg.tiny {
		w.size, w.block = 2<<20, 4<<10
	}
	return w
}

func (w *restart) sizes() string {
	return fmt.Sprintf("container %d MiB from %d writer pids in %d KiB strided blocks, replica-2 over 3 OSFS dirs",
		w.size>>20, w.writers, w.block>>10)
}

func (w *restart) setup(dir string) error {
	w.dir = dir
	var err error
	if w.stores, err = newStores(dir, "replica-2", 3, w.cfg, w.tr); err != nil {
		return err
	}
	w.pat = newPattern(w.cfg.seed)
	return writeContainer(w.stores[0], harness.BackendDir+"/"+restartSrc, w.size, w.block, w.writers, w.pat)
}

func (w *restart) period() time.Duration { return 0 }

func (w *restart) teardown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// catCheck is cat's standard output: it times the gap before every
// chunk cat produces (one read through the shim) and spot-checks each
// chunk's ends against the pattern. The copy is checked in full.
type catCheck struct {
	pat  *pattern
	off  int64
	last int64
	lat  []float64
	err  error
}

func (c *catCheck) Write(p []byte) (int, error) {
	c.lat = append(c.lat, float64(now()-c.last)/1e3)
	k := min(len(p), 64)
	if c.err == nil {
		if err := c.pat.check(c.off, p[:k]); err != nil {
			c.err = err
		} else if err := c.pat.check(c.off+int64(len(p)-k), p[len(p)-k:]); err != nil {
			c.err = err
		}
	}
	c.off += int64(len(p))
	c.last = now()
	return len(p), nil
}

func (w *restart) iterate(tr *tracer, a *acc) error {
	w.iter++
	store := w.stores[0]
	var opts []plfs.Option
	if tr != nil {
		store = w.stores[1]
		opts = append(opts, plfs.WithStats(tr.plane))
	}
	src := harness.MountPoint + "/" + restartSrc
	dstName := fmt.Sprintf("copy.%d", w.iter)
	dst := harness.MountPoint + "/" + dstName

	// Each cold open is a new process image: a fresh preload over a new
	// plfs instance opens the container and reads its first byte.
	for i := 0; i < coldOpens; i++ {
		took, err := w.coldOpen(store, opts, tr)
		if errors.Is(err, errMismatch) {
			return err
		}
		if !a.op(err) {
			return nil
		}
		a.open = append(a.open, ms(took))
	}
	d, ld, err := w.preload(store, opts, tr)
	if !a.op(err) {
		return nil
	}
	defer ld.Unload()

	// Each tool starts from a collected heap, as a fresh process would.
	runtime.GC()
	start := now()
	copied, err := unixtools.Cp(d, src, dst)
	if err == nil && copied != w.size {
		err = fmt.Errorf("cp copied %d of %d bytes", copied, w.size)
	}
	cpNs := now() - start
	if a.op(err) {
		a.write = append(a.write, mbps(w.size, cpNs))
	}

	runtime.GC()
	cat := &catCheck{pat: w.pat, last: now()}
	start = cat.last
	catted, err := unixtools.Cat(d, src, cat)
	if err == nil && catted != w.size {
		err = fmt.Errorf("cat produced %d of %d bytes", catted, w.size)
	}
	catNs := now() - start
	if a.op(err) {
		a.read = append(a.read, mbps(w.size, catNs))
		a.addReadLat(cat.lat)
	}
	if cat.err != nil {
		return fmt.Errorf("%w: cat: %v", errMismatch, cat.err)
	}
	runtime.GC()
	err = w.verifyCopy(harness.BackendDir + "/" + dstName)
	if errors.Is(err, errMismatch) {
		return err
	}
	a.op(err)
	return nil
}

// preload starts a process image: a dispatch over store with LDPLFS
// preloaded on a new plfs instance, and the timing layer over it when
// tracing.
func (w *restart) preload(store posix.FS, opts []plfs.Option, tr *tracer) (*posix.Dispatch, *core.LDPLFS, error) {
	d := posix.NewDispatch(store)
	ld, err := core.Preload(d, core.Config{
		Mounts: []core.Mount{{Point: harness.MountPoint, Backend: harness.BackendDir}},
		Pid:    7,
		Plfs:   plfs.New(store, opts...),
	})
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		tr.traceDispatch(d)
	}
	return d, ld, nil
}

// coldOpen opens the container to its first byte in a fresh process
// image and returns the time that took.
func (w *restart) coldOpen(store posix.FS, opts []plfs.Option, tr *tracer) (int64, error) {
	d, ld, err := w.preload(store, opts, tr)
	if err != nil {
		return 0, err
	}
	defer ld.Unload()
	var first [1]byte
	start := now()
	fd, err := d.Open(harness.MountPoint+"/"+restartSrc, posix.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	n, err := d.Read(fd, first[:])
	took := now() - start
	d.Close(fd)
	if err == nil && n != 1 {
		err = fmt.Errorf("first read returned %d bytes", n)
	}
	if err == nil && w.pat.check(0, first[:]) != nil {
		err = fmt.Errorf("%w: first byte of the container", errMismatch)
	}
	return took, err
}

// verifyCopy checks the copy byte for byte through an untraced plfs
// instance of its own, then removes it. A mismatch wraps errMismatch;
// any other error is a failed operation.
func (w *restart) verifyCopy(path string) error {
	fs := plfs.New(w.stores[0])
	defer fs.Unlink(path)
	f, err := fs.Open(path, posix.O_RDONLY, 99, 0)
	if err != nil {
		return err
	}
	defer f.Close(99)
	buf := make([]byte, 4<<20)
	for off := int64(0); off < w.size; {
		n, err := f.Read(buf[:min(int64(len(buf)), w.size-off)], off)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("copy ends at byte %d of %d", off, w.size)
		}
		if w.cfg.corrupt {
			buf[n/2] ^= 1
		}
		if err := w.pat.check(off, buf[:n]); err != nil {
			return fmt.Errorf("%w: copy: %v", errMismatch, err)
		}
		off += int64(n)
	}
	return nil
}
