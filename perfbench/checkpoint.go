package main

// n1_checkpoint: the paper's MPI-IO Test / BT-IO shape. Two ranks (two
// aggregators) open one shared file through the unmodified UFS driver
// over a preloaded LDPLFS, write it with K collective strided calls,
// sync, read the same pieces back collectively and close it. A fresh
// process then opens the checkpoint to its first byte, as a restart
// would, a few times over, and the file is deleted.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"

	"ldplfs/internal/harness"
	"ldplfs/internal/mpi"
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

const ckptRanks = 2

type checkpoint struct {
	cfg   config
	tr    *tracer
	calls int   // collective calls per phase (K)
	count int   // pieces per rank per call
	piece int64 // bytes per piece

	dir    string
	stores [2]posix.FS // untraced, traced
	segs   [][ckptRanks][]mpiio.Segment
	wbuf   [][ckptRanks][]byte
	rbuf   [][ckptRanks][]byte
	iter   int
}

func newCheckpoint(cfg config, tr *tracer) *checkpoint {
	w := &checkpoint{cfg: cfg, tr: tr, calls: 64, count: 256, piece: 256}
	if cfg.tiny {
		w.calls, w.count = 2, 8
	}
	return w
}

// period spaces checkpoints 250 ms apart, so a run syncs about 8 MB/s
// to the disk instead of as much as the disk takes.
func (w *checkpoint) period() time.Duration {
	if w.cfg.tiny {
		return 0
	}
	return 250 * time.Millisecond
}

func (w *checkpoint) bytesPerPhase() int64 {
	return int64(ckptRanks*w.calls*w.count) * w.piece
}

func (w *checkpoint) sizes() string {
	return fmt.Sprintf("%d ranks x %d collective calls x %d pieces x %d B = %d KiB per phase, one checkpoint per %v, mod-3 over 3 OSFS dirs",
		ckptRanks, w.calls, w.count, w.piece, w.bytesPerPhase()>>10, w.period())
}

func (w *checkpoint) setup(dir string) error {
	w.dir = dir
	var err error
	if w.stores, err = newStores(dir, "mod-n", 3, w.cfg, w.tr); err != nil {
		return err
	}
	pat := newPattern(w.cfg.seed)
	span := int64(ckptRanks*w.count) * w.piece
	w.segs = make([][ckptRanks][]mpiio.Segment, w.calls)
	w.wbuf = make([][ckptRanks][]byte, w.calls)
	w.rbuf = make([][ckptRanks][]byte, w.calls)
	for c := range w.segs {
		for r := 0; r < ckptRanks; r++ {
			segs, err := mpiio.Vector(int64(c)*span+int64(r)*w.piece, w.count, w.piece, ckptRanks*w.piece)
			if err != nil {
				return err
			}
			buf := make([]byte, 0, int64(w.count)*w.piece)
			for _, s := range segs {
				buf = append(buf, pat.at(s.Off, int(s.Len))...)
			}
			w.segs[c][r], w.wbuf[c][r] = segs, buf
			w.rbuf[c][r] = make([]byte, len(buf))
		}
	}
	return nil
}

func (w *checkpoint) teardown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// ckptRank is one rank's share of an iteration.
type ckptRank struct {
	attempted, failed int64
	errs              []error
	open              []float64 // ms, rank 0's cold opens
	write, read       int64     // ns; the phases end in collectives, so rank 0's times are the job's
	readLat           []float64
	readOK            bool
	mismatch          error
}

// op counts one attempted call; ok is the communicator's verdict on it,
// so a collective that failed anywhere counts as failed on every rank.
func (s *ckptRank) op(ok bool, err error) bool {
	s.attempted++
	if !ok {
		s.failed++
		if err != nil {
			s.errs = append(s.errs, err)
		}
	}
	return ok
}

// agree reports whether the call succeeded on every rank.
func agree(r *mpi.Rank, err error) bool {
	bad := int64(0)
	if err != nil {
		bad = 1
	}
	return r.AllreduceInt64(bad, mpi.OpMax) == 0
}

func (w *checkpoint) iterate(tr *tracer, a *acc) error {
	w.iter++
	store := w.stores[0]
	hints := mpiio.DefaultHints()
	var opts []plfs.Option
	if tr != nil {
		store = w.stores[1]
		hints.Collector = tr.plane
		opts = append(opts, plfs.WithStats(tr.plane))
	}
	for c := range w.rbuf {
		for r := range w.rbuf[c] {
			clear(w.rbuf[c][r])
		}
	}
	var ranks [ckptRanks]ckptRank
	name := fmt.Sprintf("ckpt.%d", w.iter)
	err := mpi.Run(ckptRanks, 1, func(r *mpi.Rank) {
		ranks[r.Rank()] = w.rank(r, store, name, hints, opts, tr)
	})
	if !a.op(err) {
		return nil
	}
	for _, s := range ranks {
		a.attempted += s.attempted
		a.failed += s.failed
		for _, e := range s.errs {
			a.note(e)
		}
		a.addReadLat(s.readLat)
	}
	r0 := ranks[0]
	if r0.mismatch != nil {
		return r0.mismatch
	}
	a.open = append(a.open, r0.open...)
	if r0.write > 0 {
		a.write = append(a.write, mbps(w.bytesPerPhase(), r0.write))
	}
	if !r0.readOK {
		return nil
	}
	a.read = append(a.read, mbps(w.bytesPerPhase(), r0.read))
	if w.cfg.corrupt {
		w.rbuf[0][0][len(w.rbuf[0][0])/2] ^= 1
	}
	for c := range w.rbuf {
		for r := range w.rbuf[c] {
			if !bytes.Equal(w.rbuf[c][r], w.wbuf[c][r]) {
				return fmt.Errorf("%w: checkpoint call %d rank %d", errMismatch, c, r)
			}
		}
	}
	return nil
}

// rank runs one rank's iteration: open, K WriteAll + Sync, K ReadAll,
// close, cold reopens to the first byte on rank 0, delete. Every step
// is agreed on by both ranks, so a failure on one rank is a failure of
// the step on both, never a hang.
func (w *checkpoint) rank(r *mpi.Rank, store posix.FS, name string, hints mpiio.Hints, opts []plfs.Option, tr *tracer) (s ckptRank) {
	me := r.Rank()
	barrier := func() {
		start := now()
		r.Barrier()
		if tr != nil {
			tr.barrierWait.Add(now() - start)
		}
	}
	drv, pathOf, err := harness.DriverForOpts("ldplfs", store, me, opts...)
	if !s.op(agree(r, err), err) {
		return s
	}
	if tr != nil {
		drv = tr.wrapDriver(drv, me)
	}
	path := pathOf(name)

	f, err := mpiio.Open(r, drv, path, mpiio.ModeCreate|mpiio.ModeRdwr, hints)
	if !s.op(agree(r, err), err) {
		if f != nil {
			f.Close()
		} else {
			r.Barrier()
		}
		return s
	}

	ok := w.firstWrites(r, &s, f)
	ok = ok && w.phase(r, &s, barrier, func(c int) (int64, error) {
		n, err := w.collective(tr, true, me, func() (int, error) {
			return f.WriteAll(w.segs[c][me], w.wbuf[c][me])
		})
		return int64(n), err
	}, &s.write)
	if ok {
		// The sync is checked but not timed: its fsyncs wait on a disk
		// the host shares, and with them in it the write rate moved by
		// a third between runs of the same code.
		err := f.Sync()
		ok = s.op(agree(r, err), err)
	}
	if ok {
		s.readOK = w.phase(r, &s, barrier, func(c int) (int64, error) {
			t := now()
			n, err := w.collective(tr, false, me, func() (int, error) {
				return f.ReadAll(w.segs[c][me], w.rbuf[c][me])
			})
			s.readLat = append(s.readLat, float64(now()-t)/1e3)
			return int64(n), err
		}, &s.read)
	}
	err = f.Close()
	closed := s.op(agree(r, err), err)
	err = nil
	if me == 0 {
		for i := 0; i < coldOpens && s.readOK && closed && s.mismatch == nil; i++ {
			took, err := w.firstByte(store, path, opts)
			if errors.Is(err, errMismatch) {
				s.mismatch, err = err, nil
			}
			if s.op(err == nil, err) {
				s.open = append(s.open, ms(took))
			}
		}
		err = drv.Delete(path)
	}
	if ok := agree(r, err); me == 0 {
		s.op(ok, err)
	}
	return s
}

// firstWrites makes each rank's first write to the fresh checkpoint
// alone, rank by rank, before the timed phase: one independent write of
// the rank's first piece, with the bytes the collective writes there
// again. Two plfs instances that create their writers at once can fail:
// the second one's clock seed may read the first one's index dropping
// while it is still empty ("dropping ... too short (0 bytes)"). The
// benchmark measures the checkpoint's steady traffic, which that race
// would make fail at random, a few times in a thousand iterations.
func (w *checkpoint) firstWrites(r *mpi.Rank, s *ckptRank, f *mpiio.File) bool {
	me := r.Rank()
	for turn := 0; turn < ckptRanks; turn++ {
		var err error
		if turn == me {
			seg := w.segs[0][me][0]
			var n int
			n, err = f.WriteAt(w.wbuf[0][me][:seg.Len], seg.Off)
			if err == nil && int64(n) != seg.Len {
				err = fmt.Errorf("rank %d first write moved %d of %d bytes", me, n, seg.Len)
			}
		}
		if !s.op(agree(r, err), err) {
			return false
		}
	}
	return true
}

// firstByte is a restart's view of the closed checkpoint: a fresh
// process (new preload, new plfs instance, cold caches) opens it and
// reads its first byte. It returns the time that took.
func (w *checkpoint) firstByte(store posix.FS, path string, opts []plfs.Option) (int64, error) {
	drv, _, err := harness.DriverForOpts("ldplfs", store, ckptRanks, opts...)
	if err != nil {
		return 0, err
	}
	var b [1]byte
	start := now()
	df, err := drv.Open(path, mpiio.ModeRdonly, ckptRanks)
	if err != nil {
		return 0, err
	}
	n, err := df.PreadAt(b[:], 0)
	took := now() - start
	df.Close()
	if err == nil && (n != 1 || b[0] != w.wbuf[0][0][0]) {
		err = fmt.Errorf("%w: first byte of the checkpoint", errMismatch)
	}
	return took, err
}

// phase runs K agreed collective calls and times them between two
// barriers.
func (w *checkpoint) phase(r *mpi.Rank, s *ckptRank, barrier func(), call func(c int) (int64, error), dur *int64) bool {
	me := r.Rank()
	want := int64(w.count) * w.piece
	barrier()
	start := now()
	for c := 0; c < w.calls; c++ {
		n, err := call(c)
		if err == nil && n != want {
			err = fmt.Errorf("rank %d call %d moved %d of %d bytes", me, c, n, want)
		}
		if !s.op(agree(r, err), err) {
			return false
		}
	}
	barrier()
	*dur = now() - start
	return true
}

// collective times one mpiio collective call; with tracing on it also
// takes the driver spans under it as children for the self time.
func (w *checkpoint) collective(tr *tracer, write bool, rank int, call func() (int, error)) (int, error) {
	if tr == nil {
		return call()
	}
	sp := &tr.mpiioRead
	if write {
		sp = &tr.mpiioWrite
	}
	log := &tr.ranks[rank]
	mark := log.begin()
	start := now()
	n, err := call()
	end := now()
	sp.observe(end-start, log.end(mark, start, end))
	return n, err
}
