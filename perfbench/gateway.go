package main

// gateway_qos: remote I/O through plfsd. An in-process gateway on
// loopback serves two tenants over one store through exactly two
// client connections: "gold" (priority 0) reads 256 KiB at seeded
// offsets of a closed, pre-written container on an open loop at a fixed
// rate, and "batch" (priority 1) writes one fresh container as each of
// gold's windows starts: a closed-loop run of writes, sync, close and
// unlink. Gold's latency is timed from send to reply, plus the time a
// late previous reply held the read back past its due time.

import (
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"time"

	"ldplfs/internal/core"
	"ldplfs/internal/harness"
	"ldplfs/internal/iostats"
	"ldplfs/internal/posix"
	"ldplfs/internal/service"
	"ldplfs/internal/service/client"
)

const (
	gwIO   = 64 << 10  // bytes per batch write
	goldIO = 256 << 10 // bytes per gold read
	// goldRate is gold's open-loop request rate. Its 2.5 ms gap lets
	// the sender sleep until each read is due: Go's timers wake a
	// millisecond late on sleeps shorter than that, and a sender that
	// spins instead holds one of the two CPUs the server needs.
	goldRate = 400.0
	// batchWrites is the batch writer's run of writes per container.
	batchWrites = 64
	// goldOpens is how many times gold opens its container to the first
	// byte after each window's reads, outside their schedule.
	goldOpens = 10
	// goldBurst is how many reads gold sends back to back after each
	// window, once the batch writer is idle: its read rate over the wire.
	goldBurst = 16
)

type gateway struct {
	cfg      config
	tr       *tracer
	goldSize int64
	window   time.Duration

	dir  string
	pat  *pattern
	rng  *rand.Rand
	inst [2]*gwInstance // untraced, traced
	wbuf []byte
	bbuf []byte // gold's burst reads, verified after the clock
	seq  int
}

// gwInstance is one gateway with its listener and two connections.
type gwInstance struct {
	srv    *service.Server
	served chan error
	gold   *client.Conn
	batch  *client.Conn
	conns  []net.Conn
	goldFd int
}

func newGateway(cfg config, tr *tracer) *gateway {
	w := &gateway{cfg: cfg, tr: tr, goldSize: 64 << 20, window: 500 * time.Millisecond}
	if cfg.tiny {
		w.goldSize, w.window = 4<<20, 50*time.Millisecond
	}
	return w
}

func (w *gateway) period() time.Duration { return 0 }

func (w *gateway) sizes() string {
	return fmt.Sprintf("gold container %d MiB, gold %g req/s x %d KiB per %v window, batch one container of %d x %d KiB per window, mod-3 over 3 OSFS dirs",
		w.goldSize>>20, goldRate, goldIO>>10, w.window, batchWrites, gwIO>>10)
}

func (w *gateway) setup(dir string) error {
	w.dir = dir
	stores, err := newStores(dir, "mod-n", 3, w.cfg, w.tr)
	if err != nil {
		return err
	}
	w.pat = newPattern(w.cfg.seed)
	w.rng = rand.New(rand.NewPCG(w.cfg.seed, 0x676f6c64))
	w.wbuf = w.pat.at(0, gwIO)
	w.bbuf = make([]byte, goldBurst*goldIO)
	if err := writeContainer(stores[0], harness.BackendDir+"/gold", w.goldSize, gwIO, 8, w.pat); err != nil {
		return err
	}
	for mode := range w.inst {
		var plane *iostats.Plane
		if mode == 1 {
			plane = w.tr.plane
		}
		inst, err := w.start(stores[mode], plane)
		if err != nil {
			return err
		}
		w.inst[mode] = inst
	}
	return nil
}

// start serves a gateway over store on loopback, connects both tenants
// and warms gold's index and descriptors with untimed reads.
func (w *gateway) start(store posix.FS, plane *iostats.Plane) (*gwInstance, error) {
	g, err := service.NewGateway(service.Config{
		Backend: store,
		Mounts:  []core.Mount{{Point: harness.MountPoint, Backend: harness.BackendDir}},
		Tenants: []service.TenantConfig{
			{Name: "gold", Priority: 0},
			{Name: "batch", Priority: 1},
		},
		Plane: plane,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inst := &gwInstance{srv: service.NewServer(g), served: make(chan error, 1)}
	go func() { inst.served <- inst.srv.Serve(ln) }()
	for _, tenant := range []string{"gold", "batch"} {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			inst.stop()
			return nil, err
		}
		inst.conns = append(inst.conns, nc)
		nc.SetDeadline(time.Now().Add(iterDeadline))
		c, err := client.New(nc, tenant)
		if err != nil {
			inst.stop()
			return nil, err
		}
		if tenant == "gold" {
			inst.gold = c
		} else {
			inst.batch = c
		}
	}
	if inst.goldFd, err = inst.gold.Open(harness.MountPoint+"/gold", posix.O_RDONLY, 0); err != nil {
		inst.stop()
		return nil, err
	}
	buf := make([]byte, goldIO)
	for i := 0; i < 64; i++ {
		if _, err := inst.gold.Pread(inst.goldFd, buf, w.goldOffset()); err != nil {
			inst.stop()
			return nil, err
		}
	}
	return inst, nil
}

// stop closes the connections and the server and waits for Serve.
func (inst *gwInstance) stop() {
	for _, nc := range inst.conns {
		nc.Close()
	}
	inst.srv.Close()
	<-inst.served
}

func (w *gateway) teardown() {
	for i, inst := range w.inst {
		if inst != nil {
			inst.stop()
			w.inst[i] = nil
		}
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// goldOffset draws a 4 KiB-aligned offset of a whole read in gold.
func (w *gateway) goldOffset() int64 {
	return w.rng.Int64N((w.goldSize-goldIO)/4096+1) * 4096
}

// goldResult is the reader's share of a window.
type goldResult struct {
	attempted, failed int64
	errs              []error
	lat, late         []float64 // µs from send to reply plus held by the previous reply; µs the send was late
	opens             []float64 // ms, open to first byte
	mismatch          error
}

func (g *goldResult) op(err error) bool {
	g.attempted++
	if err == nil {
		return true
	}
	g.failed++
	if len(g.errs) < 5 {
		g.errs = append(g.errs, err)
	}
	return false
}

func (w *gateway) iterate(tr *tracer, a *acc) error {
	inst := w.inst[0]
	if tr != nil {
		inst = w.inst[1]
	}
	n := int(goldRate * w.window.Seconds())
	offs := make([]int64, n+goldBurst)
	for i := range offs {
		offs[i] = w.goldOffset()
	}
	offs, burst := offs[:n], offs[n:]
	deadline := time.Now().Add(w.window + iterDeadline/2)
	for _, nc := range inst.conns {
		nc.SetDeadline(deadline)
	}

	var gold goldResult
	goldDone := make(chan struct{})
	go func() {
		defer close(goldDone)
		w.goldLoop(inst, tr, offs, &gold)
	}()
	// One container per window, always while gold reads; a run syncs
	// about 8 MB/s to the disk instead of as much as the disk takes.
	err := w.batchCycle(inst.batch, tr, a)
	<-goldDone
	if err == nil && gold.mismatch == nil {
		err = w.goldBurst(inst, burst, a)
	}

	a.open = append(a.open, gold.opens...)
	a.attempted += gold.attempted
	a.failed += gold.failed
	for _, e := range gold.errs {
		a.note(e)
	}
	if len(gold.lat) > 0 {
		a.addReadLat(gold.lat)
		a.genLate = append(a.genLate, gold.late...)
	}
	if gold.mismatch != nil {
		return fmt.Errorf("%w: gold read: %v", errMismatch, gold.mismatch)
	}
	return err
}

// goldLoop sends each read when it is due, or as soon as the previous
// reply is in if that is later. A read's latency is its send to its
// reply, plus how long after its due time the previous reply came in:
// a late reply holds up the next read, and that wait is counted. The
// sleep before a send wakes a few hundred microseconds late, by a
// varying amount; that is the generator's lateness, traced as
// gen.late_p99_us, not part of a read's latency. Once the window's
// reads are done, gold reopens its container to the first byte a few
// times; the probes never delay a scheduled read.
func (w *gateway) goldLoop(inst *gwInstance, tr *tracer, offs []int64, g *goldResult) {
	buf := make([]byte, goldIO)
	start := now()
	prev := start // when the previous reply came in
	for i, off := range offs {
		due := start + int64(float64(i)*1e9/goldRate)
		held := max(0, prev-due)
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		sent := now()
		n, err := inst.gold.Pread(inst.goldFd, buf, off)
		done := now()
		prev = done
		if err == nil && n != goldIO {
			err = fmt.Errorf("gold read at %d returned %d bytes", off, n)
		}
		if !g.op(err) {
			continue
		}
		g.lat = append(g.lat, float64(done-sent+held)/1e3)
		g.late = append(g.late, float64(sent-due)/1e3)
		if tr != nil {
			tr.client["read"].add(done - sent)
			tr.genLate.add(sent - due)
		}
		if w.cfg.corrupt && i == 0 {
			buf[goldIO/2] ^= 1
		}
		if err := w.pat.check(off, buf); err != nil && g.mismatch == nil {
			g.mismatch = err
		}
	}
	for i := 0; i < goldOpens; i++ {
		w.goldOpen(inst, tr, buf[:1], g)
	}
}

// goldBurst sends gold's reads at offs back to back, with the batch
// writer idle; each read's rate is a sample of read_mbps, kept only if
// every read succeeded. The reads are verified after the clock.
func (w *gateway) goldBurst(inst *gwInstance, offs []int64, a *acc) error {
	ok := true
	rates := make([]float64, 0, len(offs))
	for i, off := range offs {
		start := now()
		n, err := inst.gold.Pread(inst.goldFd, w.bbuf[i*goldIO:(i+1)*goldIO], off)
		rates = append(rates, mbps(goldIO, now()-start))
		if err == nil && n != goldIO {
			err = fmt.Errorf("gold burst read at %d returned %d bytes", off, n)
		}
		ok = a.op(err) && ok
	}
	if !ok {
		return nil
	}
	a.read = append(a.read, rates...)
	for i, off := range offs {
		if err := w.pat.check(off, w.bbuf[i*goldIO:(i+1)*goldIO]); err != nil {
			return fmt.Errorf("%w: gold burst read: %v", errMismatch, err)
		}
	}
	return nil
}

// goldOpen opens the gold container over the wire, reads its first
// byte and closes it again, timing the open to the first byte.
func (w *gateway) goldOpen(inst *gwInstance, tr *tracer, b []byte, g *goldResult) {
	start := now()
	fd, err := inst.gold.Open(harness.MountPoint+"/gold", posix.O_RDONLY, 0)
	opened := now()
	if tr != nil {
		tr.client["open"].add(opened - start)
	}
	if !g.op(err) {
		return
	}
	n, err := inst.gold.Pread(fd, b, 0)
	took := now() - start
	if err == nil && n != len(b) {
		err = fmt.Errorf("gold first read returned %d bytes", n)
	}
	if g.op(err) {
		g.opens = append(g.opens, ms(took))
		if err := w.pat.check(0, b); err != nil && g.mismatch == nil {
			g.mismatch = err
		}
	}
	g.op(inst.gold.CloseFd(fd))
}

// batchCycle writes one fresh container: open, a run of writes, sync,
// a size check, close, unlink. Each write's rate is a sample of
// write_mbps, kept only if every step succeeded; the rest is checked
// but not timed. Per-container rates, with or without the sync (which
// waits on a disk the host shares), moved by up to a quarter between
// runs of the same code; the median single write moves far less. A
// wrong size is a mismatch.
func (w *gateway) batchCycle(c *client.Conn, tr *tracer, a *acc) error {
	w.seq++
	path := fmt.Sprintf("%s/batch.%d", harness.MountPoint, w.seq)
	var took int64
	timed := func(op string, f func() error) error {
		start := now()
		err := f()
		took = now() - start
		if tr != nil {
			tr.client[op].add(took)
		}
		return err
	}
	var fd int
	err := timed("create", func() (err error) {
		fd, err = c.Open(path, posix.O_CREAT|posix.O_WRONLY|posix.O_TRUNC, 0o644)
		return err
	})
	if !a.op(err) {
		return nil
	}
	ok := true
	rates := make([]float64, 0, batchWrites)
	for i := 0; i < batchWrites && ok; i++ {
		ok = a.op(timed("write", func() error {
			n, err := c.Pwrite(fd, w.wbuf, int64(i)*gwIO)
			if err == nil && n != gwIO {
				err = fmt.Errorf("batch write returned %d bytes", n)
			}
			return err
		}))
		rates = append(rates, mbps(gwIO, took))
	}
	ok = ok && a.op(timed("sync", func() error { return c.Sync(fd) }))
	var size int64
	if ok {
		st, err := c.Fstat(fd)
		ok = a.op(err)
		size = st.Size
	}
	closed := a.op(c.CloseFd(fd))
	unlinked := a.op(c.Unlink(path))
	if ok && size != batchWrites*gwIO {
		return fmt.Errorf("%w: batch container holds %d bytes, wrote %d", errMismatch, size, batchWrites*gwIO)
	}
	if ok && closed && unlinked {
		a.write = append(a.write, rates...)
	}
	return nil
}
