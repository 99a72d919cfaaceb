package posix

import (
	"errors"
	gopath "path"
	"sort"
	"strings"
	"sync"
	"time"

	"ldplfs/internal/iostats"
)

// StripedFS composes N backends into one FS, the multi-backend layout
// PLFS uses to aggregate bandwidth across file servers: a logical file's
// droppings fan out over independent stores instead of funnelling
// through one.
//
// Placement is delegated to a Layout (see layout.go) and is purely
// path-based, so every instance over the same backend list agrees
// without coordination. Under the default mod-N layout:
//
//   - A path containing a hostdir component ("hostdir.K") routes to
//     backend K mod N — hostdirs, and hence data and index droppings,
//     spread deterministically across all backends.
//   - Every other path (container marker, version, meta/, openhosts/,
//     plain files and directories) routes to backend 0, the canonical
//     backend. Container metadata has a single home; only the bulk
//     dropping I/O is striped.
//
// Under a replica-R layout each path instead has an ordered replica set
// of R backends (primary first, primary identical to the mod-N owner):
// writes fan out to every live replica, reads serve from the primary
// and fail over — or are hedged against a second replica after a
// deadline — and a backend failure degrades the file to its surviving
// replicas instead of losing data. Divergence introduced by degraded
// writes is repaired offline by plfsctl doctor (see internal/plfs's
// replication scanner).
//
// Directory structure is mirrored so each backend can hold its share of
// hostdirs: creating a canonical directory creates it on every backend
// (shadow copies are created with parents, best-effort EEXIST-tolerant),
// removing or renaming one removes or renames it everywhere, and listing
// one merges the per-backend listings. A container written with one
// backend list must be read with the same list, exactly as a PLFS mount
// must keep its backend configuration stable.
//
// File descriptors are scoped to the composite and translated to the
// owning backend(s), so StripedFS satisfies the full FS contract —
// including concurrent Pread/Pwrite safety, which it inherits from the
// backends.
type StripedFS struct {
	backends []FS
	layout   Layout // nil = classic mod-N (single owner per path)
	ropts    ReplicaOptions

	// Replica data-path counters, registered on layer "posix" when a
	// collector is wired (standalone otherwise — Counter is nil-safe).
	readPrimary   *iostats.Counter
	readFailover  *iostats.Counter
	readHedged    *iostats.Counter
	writeDegraded *iostats.Counter

	mu     sync.Mutex
	fds    map[int]*stripedFD
	nextFD int
}

// ReplicaOptions tunes the replica data path of a layout-driven
// StripedFS. The zero value disables hedging and telemetry.
type ReplicaOptions struct {
	// HedgeDeadline races a read against the next replica when the
	// primary has not answered within the deadline — the classic
	// tail-latency hedge against a straggling backend. Zero disables
	// hedging; reads then fail over only on error. Callers typically
	// derive the deadline from the backends' known service time (e.g.
	// a small multiple of the FaultFS per-op service time).
	HedgeDeadline time.Duration

	// HedgeTimer injects the hedge trigger for deterministic tests:
	// given the deadline it returns the channel whose receipt launches
	// the hedge. Nil uses the wall clock (time.After).
	HedgeTimer func(time.Duration) <-chan time.Time

	// Stats registers the replica read/write counters on layer "posix"
	// of the collector. Nil keeps standalone (invisible) counters.
	Stats iostats.Collector
}

// stripedFD is one composite descriptor: the ordered replica set it was
// opened across and the per-replica backend descriptors.
type stripedFD struct {
	mu    sync.Mutex
	path  string
	reps  []int  // owner backend indices, primary first
	bfds  []int  // per-replica backend fd; -1 = not opened (lazy)
	dead  []bool // replica disabled after an error (fd, if any, still closed on Close)
	wrote bool   // opened for writing (every replica opened eagerly)
}

// NewStripedFS composes backends into one striped FS under the classic
// mod-N layout. Backend 0 is the canonical backend. At least one backend
// is required; with exactly one, the composite degenerates to a
// pass-through.
func NewStripedFS(backends ...FS) *StripedFS {
	return NewLayoutFS(nil, ReplicaOptions{}, backends...)
}

// NewLayoutFS composes backends under an explicit layout. A nil layout
// (or ModNLayout) gives the classic single-copy striping; a layout with
// Width > 1 enables the replica data path governed by ropts.
func NewLayoutFS(layout Layout, ropts ReplicaOptions, backends ...FS) *StripedFS {
	if len(backends) == 0 {
		panic("posix: NewStripedFS needs at least one backend")
	}
	bs := make([]FS, len(backends))
	copy(bs, backends)
	s := &StripedFS{
		backends: bs,
		layout:   layout,
		ropts:    ropts,
		fds:      make(map[int]*stripedFD),
		nextFD:   3,
	}
	var layer *iostats.LayerStats
	if ropts.Stats != nil {
		layer = ropts.Stats.Layer("posix")
	}
	s.readPrimary = layer.Counter("replica_read_primary")
	s.readFailover = layer.Counter("replica_read_failover")
	s.readHedged = layer.Counter("replica_read_hedged")
	s.writeDegraded = layer.Counter("replica_write_degraded")
	return s
}

// NumBackends returns the number of composed backends.
func (s *StripedFS) NumBackends() int { return len(s.backends) }

// Backends returns the composed backends (index 0 is canonical).
func (s *StripedFS) Backends() []FS {
	out := make([]FS, len(s.backends))
	copy(out, s.backends)
	return out
}

// Layout returns the placement layout (ModNLayout when none was set).
func (s *StripedFS) Layout() Layout {
	if s.layout == nil {
		return ModNLayout{}
	}
	return s.layout
}

// LayoutWidth returns the effective replica count per path.
func (s *StripedFS) LayoutWidth() int {
	w := s.Layout().Width()
	if w > len(s.backends) {
		w = len(s.backends)
	}
	return w
}

// ReplicasFor returns the ordered replica set owning path.
func (s *StripedFS) ReplicasFor(path string) []int { return s.ownersFor(path) }

// hostdirComponent returns the first "hostdir.*" component of path, or "".
func hostdirComponent(path string) string {
	for _, comp := range strings.Split(gopath.Clean("/"+path), "/") {
		if strings.HasPrefix(comp, "hostdir.") {
			return comp
		}
	}
	return ""
}

// BackendFor returns the index of the backend holding the primary copy
// of path: hostdir.K routes to K mod N, everything else to 0 —
// identical across layouts, so mod-N and replicated instances agree on
// where the authoritative copy lives.
func (s *StripedFS) BackendFor(path string) int {
	return primaryIndex(path, len(s.backends))
}

// routed reports whether path is owned by the hostdir placement rule
// (it contains a hostdir component) rather than the canonical rule.
func routed(path string) bool { return hostdirComponent(path) != "" }

// ownersFor returns the ordered replica set for path; single-element
// under mod-N, which keeps every legacy code path byte-identical.
func (s *StripedFS) ownersFor(path string) []int {
	if s.layout == nil || len(s.backends) == 1 {
		return []int{s.BackendFor(path)}
	}
	return s.layout.Replicas(path, len(s.backends))
}

// replicated reports whether the composite runs a multi-copy layout.
func (s *StripedFS) replicated() bool { return s.layout != nil && s.LayoutWidth() > 1 }

// MkdirAll creates path and any missing parents on b, tolerating
// existing directories — used to materialise the mirrored directory
// skeleton on shadow backends, and by the replication repairer to
// rebuild a revived backend's tree. The final component is created with
// mode; intermediate parents (whose original modes are unknown here)
// default to 0o755, as os.MkdirAll does.
func MkdirAll(b FS, path string, mode uint32) error {
	clean := gopath.Clean("/" + path)
	if clean == "/" {
		return nil
	}
	comps := strings.Split(clean[1:], "/")
	var prefix string
	var lastErr error
	for i, comp := range comps {
		m := uint32(0o755)
		if i == len(comps)-1 {
			m = mode
		}
		prefix += "/" + comp
		lastErr = b.Mkdir(prefix, m)
		if lastErr != nil && !errors.Is(lastErr, EEXIST) {
			return lastErr
		}
	}
	if errors.Is(lastErr, EEXIST) {
		return nil
	}
	return lastErr
}

// mkdirAll is the historical package-internal name.
func mkdirAll(b FS, path string, mode uint32) error { return MkdirAll(b, path, mode) }

// track registers a descriptor entry and returns the composite fd.
func (s *StripedFS) track(e *stripedFD) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfd := s.nextFD
	s.nextFD++
	s.fds[cfd] = e
	return cfd
}

// entry translates a composite fd to its descriptor entry.
func (s *StripedFS) entry(fd int) (*stripedFD, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.fds[fd]
	if !ok {
		return nil, EBADF
	}
	return e, nil
}

// openOn opens path on backend b, materialising missing parent
// directories when creating (a container adopted mid-stream, a mirror
// that raced, or a revived replica whose skeleton is gone).
func (s *StripedFS) openOn(b int, path string, flags int, mode uint32, retryDirs bool) (int, error) {
	fd, err := s.backends[b].Open(path, flags, mode)
	if errors.Is(err, ENOENT) && flags&O_CREAT != 0 && retryDirs {
		if merr := mkdirAll(s.backends[b], gopath.Dir(gopath.Clean("/"+path)), 0o755); merr != nil {
			return -1, merr
		}
		fd, err = s.backends[b].Open(path, flags, mode)
	}
	return fd, err
}

// Open implements FS. Under mod-N the single owner is opened directly.
// Under a replica layout a write-mode open fans out to every replica
// (succeeding while at least one lives, the rest marked dead for the
// doctor to heal) and a read-mode open takes the first replica that
// answers, leaving the rest to open lazily on failover.
func (s *StripedFS) Open(path string, flags int, mode uint32) (int, error) {
	owners := s.ownersFor(path)
	if len(owners) == 1 {
		b := owners[0]
		fd, err := s.openOn(b, path, flags, mode, routed(path))
		if err != nil {
			return -1, err
		}
		e := &stripedFD{path: path, reps: owners, bfds: []int{fd}, dead: []bool{false}}
		return s.track(e), nil
	}
	e := &stripedFD{
		path: path,
		reps: owners,
		bfds: make([]int, len(owners)),
		dead: make([]bool, len(owners)),
	}
	for i := range e.bfds {
		e.bfds[i] = -1
	}
	var firstErr error
	if flags&O_ACCMODE == O_RDONLY {
		for i, b := range owners {
			fd, err := s.backends[b].Open(path, flags, mode)
			if err == nil {
				e.bfds[i] = fd
				return s.track(e), nil
			}
			e.dead[i] = true
			if firstErr == nil {
				firstErr = err
			}
		}
		return -1, firstErr
	}
	e.wrote = true
	opened := 0
	for i, b := range owners {
		fd, err := s.openOn(b, path, flags, mode, true)
		if err != nil {
			e.dead[i] = true
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		e.bfds[i] = fd
		opened++
	}
	if opened == 0 {
		return -1, firstErr
	}
	if opened < len(owners) {
		s.writeDegraded.Add(1)
	}
	return s.track(e), nil
}

// Close implements FS: every replica descriptor is released; the first
// error (if any) is reported.
func (s *StripedFS) Close(fd int) error {
	s.mu.Lock()
	e, ok := s.fds[fd]
	if ok {
		delete(s.fds, fd)
	}
	s.mu.Unlock()
	if !ok {
		return EBADF
	}
	var firstErr error
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, bfd := range e.bfds {
		if bfd < 0 {
			continue
		}
		if err := s.backends[e.reps[i]].Close(bfd); err != nil && firstErr == nil {
			firstErr = err
		}
		e.bfds[i] = -1
	}
	return firstErr
}

// live returns a snapshot of the replica indices currently usable for
// I/O (open and not dead), in replica order.
func (e *stripedFD) live() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int, 0, len(e.reps))
	for i := range e.reps {
		if e.bfds[i] >= 0 && !e.dead[i] {
			out = append(out, i)
		}
	}
	return out
}

// markDead disables replica i of e.
func (e *stripedFD) markDead(i int) {
	e.mu.Lock()
	e.dead[i] = true
	e.mu.Unlock()
}

// ensureReadable returns an open backend fd for replica i, opening it
// read-only on first use (lazy failover opens). Racing openers are
// reconciled: the loser's fd is closed.
func (s *StripedFS) ensureReadable(e *stripedFD, i int) (int, error) {
	e.mu.Lock()
	if e.dead[i] {
		e.mu.Unlock()
		return -1, EIO
	}
	if e.bfds[i] >= 0 {
		bfd := e.bfds[i]
		e.mu.Unlock()
		return bfd, nil
	}
	e.mu.Unlock()
	fd, err := s.backends[e.reps[i]].Open(e.path, O_RDONLY, 0)
	if err != nil {
		e.markDead(i)
		return -1, err
	}
	e.mu.Lock()
	if e.bfds[i] >= 0 {
		stored := e.bfds[i]
		e.mu.Unlock()
		_ = s.backends[e.reps[i]].Close(fd)
		return stored, nil
	}
	e.bfds[i] = fd
	e.mu.Unlock()
	return fd, nil
}

// Read implements FS. Multi-replica pointer reads serve from the first
// live replica and advance the others' file pointers to match, keeping
// the replica set interchangeable for subsequent pointer I/O.
func (s *StripedFS) Read(fd int, p []byte) (int, error) {
	e, err := s.entry(fd)
	if err != nil {
		return 0, err
	}
	if len(e.reps) == 1 {
		return s.backends[e.reps[0]].Read(e.bfds[0], p)
	}
	live := e.live()
	if len(live) == 0 {
		return 0, EIO
	}
	var firstErr error
	for k, i := range live {
		n, err := s.backends[e.reps[i]].Read(e.bfds[i], p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			e.markDead(i)
			continue
		}
		for _, j := range live[k+1:] {
			if _, serr := s.backends[e.reps[j]].Lseek(e.bfds[j], int64(n), SEEK_CUR); serr != nil {
				e.markDead(j)
			}
		}
		return n, nil
	}
	return 0, firstErr
}

// Write implements FS: multi-replica pointer writes fan out to every
// live replica; at least one must succeed.
func (s *StripedFS) Write(fd int, p []byte) (int, error) {
	e, err := s.entry(fd)
	if err != nil {
		return 0, err
	}
	if len(e.reps) == 1 {
		return s.backends[e.reps[0]].Write(e.bfds[0], p)
	}
	return s.fanOut(e, func(b FS, bfd int) (int, error) { return b.Write(bfd, p) })
}

// fanOut applies op to every live replica of e: the primary-most
// success is the reported result, failing replicas are marked dead (a
// degraded write the doctor later heals), and only a total loss is an
// error.
func (s *StripedFS) fanOut(e *stripedFD, op func(b FS, bfd int) (int, error)) (int, error) {
	live := e.live()
	n := -1
	var firstErr error
	for _, i := range live {
		wn, err := op(s.backends[e.reps[i]], e.bfds[i])
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			e.markDead(i)
			s.writeDegraded.Add(1)
			continue
		}
		if n < 0 {
			n = wn
		}
	}
	if n < 0 {
		if firstErr == nil {
			firstErr = EIO
		}
		return 0, firstErr
	}
	return n, nil
}

// Pread implements FS. Multi-replica reads serve from the primary,
// failing over in replica order; with a hedge deadline configured, a
// slow primary is raced against the next replica and the first answer
// wins.
func (s *StripedFS) Pread(fd int, p []byte, off int64) (int, error) {
	e, err := s.entry(fd)
	if err != nil {
		return 0, err
	}
	if len(e.reps) == 1 {
		return s.backends[e.reps[0]].Pread(e.bfds[0], p, off)
	}
	if s.ropts.HedgeDeadline > 0 {
		return s.hedgedPread(e, p, off)
	}
	var firstErr error
	for i := range e.reps {
		bfd, err := s.ensureReadable(e, i)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n, err := s.backends[e.reps[i]].Pread(bfd, p, off)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			e.markDead(i)
			continue
		}
		if i == 0 {
			s.readPrimary.Add(1)
		} else {
			s.readFailover.Add(1)
		}
		return n, nil
	}
	return 0, firstErr
}

// Preadv implements VectorFS. A single-owner descriptor delegates the
// whole vector to its backend; a replica set serves the vector from the
// primary and fails over in replica order, exactly like Pread. Under a
// hedge deadline the vector degrades to per-buffer hedged reads — the
// hedge races private buffers per request, and its deterministic tests
// count those requests, so hedging keeps the scalar shape.
func (s *StripedFS) Preadv(fd int, bufs [][]byte, off int64) (int64, error) {
	e, err := s.entry(fd)
	if err != nil {
		return 0, err
	}
	if len(e.reps) == 1 {
		return Preadv(s.backends[e.reps[0]], e.bfds[0], bufs, off)
	}
	if s.ropts.HedgeDeadline > 0 {
		var total int64
		for _, b := range bufs {
			n, err := s.hedgedPread(e, b, off+total)
			total += int64(n)
			if err != nil {
				return total, err
			}
			if n < len(b) {
				return total, nil // EOF
			}
		}
		return total, nil
	}
	var firstErr error
	for i := range e.reps {
		bfd, err := s.ensureReadable(e, i)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n, err := Preadv(s.backends[e.reps[i]], bfd, bufs, off)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			e.markDead(i)
			continue
		}
		if i == 0 {
			s.readPrimary.Add(1)
		} else {
			s.readFailover.Add(1)
		}
		return n, nil
	}
	return 0, firstErr
}

// hedgeTimer returns the channel that triggers a hedge after d.
func (s *StripedFS) hedgeTimer(d time.Duration) <-chan time.Time {
	if s.ropts.HedgeTimer != nil {
		return s.ropts.HedgeTimer(d)
	}
	return time.After(d)
}

// hedgedPread races replicas: the primary read is launched, and if it
// has not answered by the hedge deadline the next replica is launched
// too; the first successful answer wins. Each racer reads into a
// private buffer so a late loser never scribbles on the caller's
// buffer. Errors fail over to further replicas immediately.
func (s *StripedFS) hedgedPread(e *stripedFD, p []byte, off int64) (int, error) {
	type result struct {
		idx int
		n   int
		err error
		buf []byte
	}
	ch := make(chan result, len(e.reps))
	var firstErr error
	next := 0
	inflight := 0
	launch := func() {
		for next < len(e.reps) {
			i := next
			next++
			bfd, err := s.ensureReadable(e, i)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			inflight++
			go func(i, bfd int) {
				buf := make([]byte, len(p))
				n, err := s.backends[e.reps[i]].Pread(bfd, buf, off)
				ch <- result{idx: i, n: n, err: err, buf: buf}
			}(i, bfd)
			return
		}
	}
	launch()
	if inflight == 0 {
		if firstErr == nil {
			firstErr = EIO
		}
		return 0, firstErr
	}
	timer := s.hedgeTimer(s.ropts.HedgeDeadline)
	for inflight > 0 {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				copy(p, r.buf[:r.n])
				if r.idx == 0 {
					s.readPrimary.Add(1)
				} else {
					s.readFailover.Add(1)
				}
				return r.n, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			e.markDead(r.idx)
			launch()
		case <-timer:
			timer = nil // fire at most once; nil channel never selects
			before := inflight
			launch()
			if inflight > before {
				s.readHedged.Add(1)
			}
		}
	}
	return 0, firstErr
}

// Pwrite implements FS: multi-replica writes fan out to every live
// replica at the same offset.
func (s *StripedFS) Pwrite(fd int, p []byte, off int64) (int, error) {
	e, err := s.entry(fd)
	if err != nil {
		return 0, err
	}
	if len(e.reps) == 1 {
		return s.backends[e.reps[0]].Pwrite(e.bfds[0], p, off)
	}
	return s.fanOut(e, func(b FS, bfd int) (int, error) { return b.Pwrite(bfd, p, off) })
}

// Pwritev implements VectorFS: a single-owner descriptor delegates, a
// replica set fans the whole vector out to every live replica at the
// same offset — one vectored submission per replica instead of one per
// segment per replica.
func (s *StripedFS) Pwritev(fd int, bufs [][]byte, off int64) (int64, error) {
	e, err := s.entry(fd)
	if err != nil {
		return 0, err
	}
	if len(e.reps) == 1 {
		return Pwritev(s.backends[e.reps[0]], e.bfds[0], bufs, off)
	}
	return s.fanOut64(e, func(b FS, bfd int) (int64, error) { return Pwritev(b, bfd, bufs, off) })
}

// fanOut64 is fanOut for int64-counted (vectored) operations.
func (s *StripedFS) fanOut64(e *stripedFD, op func(b FS, bfd int) (int64, error)) (int64, error) {
	live := e.live()
	n := int64(-1)
	var firstErr error
	for _, i := range live {
		wn, err := op(s.backends[e.reps[i]], e.bfds[i])
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			e.markDead(i)
			s.writeDegraded.Add(1)
			continue
		}
		if n < 0 {
			n = wn
		}
	}
	if n < 0 {
		if firstErr == nil {
			firstErr = EIO
		}
		return 0, firstErr
	}
	return n, nil
}

// Lseek implements FS: applied to every live replica so their file
// pointers stay interchangeable; the primary-most result is returned.
func (s *StripedFS) Lseek(fd int, offset int64, whence int) (int64, error) {
	e, err := s.entry(fd)
	if err != nil {
		return 0, err
	}
	if len(e.reps) == 1 {
		return s.backends[e.reps[0]].Lseek(e.bfds[0], offset, whence)
	}
	live := e.live()
	pos := int64(-1)
	var firstErr error
	for _, i := range live {
		p, err := s.backends[e.reps[i]].Lseek(e.bfds[i], offset, whence)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			e.markDead(i)
			continue
		}
		if pos < 0 {
			pos = p
		}
	}
	if pos < 0 {
		if firstErr == nil {
			firstErr = EIO
		}
		return 0, firstErr
	}
	return pos, nil
}

// Fsync implements FS: flushed on every live replica; one durable copy
// is enough to succeed (the rest are marked dead for the doctor).
func (s *StripedFS) Fsync(fd int) error {
	e, err := s.entry(fd)
	if err != nil {
		return err
	}
	if len(e.reps) == 1 {
		return s.backends[e.reps[0]].Fsync(e.bfds[0])
	}
	_, err = s.fanOut(e, func(b FS, bfd int) (int, error) { return 0, b.Fsync(bfd) })
	return err
}

// Ftruncate implements FS: applied to every live replica.
func (s *StripedFS) Ftruncate(fd int, size int64) error {
	e, err := s.entry(fd)
	if err != nil {
		return err
	}
	if len(e.reps) == 1 {
		return s.backends[e.reps[0]].Ftruncate(e.bfds[0], size)
	}
	_, err = s.fanOut(e, func(b FS, bfd int) (int, error) { return 0, b.Ftruncate(bfd, size) })
	return err
}

// Fstat implements FS: the first live replica answers.
func (s *StripedFS) Fstat(fd int) (Stat, error) {
	e, err := s.entry(fd)
	if err != nil {
		return Stat{}, err
	}
	if len(e.reps) == 1 {
		return s.backends[e.reps[0]].Fstat(e.bfds[0])
	}
	var firstErr error
	for _, i := range e.live() {
		st, err := s.backends[e.reps[i]].Fstat(e.bfds[i])
		if err == nil {
			return st, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = EIO
	}
	return Stat{}, firstErr
}

// pathFirst applies op to each owner of path in replica order and
// returns the first success — the read-side semantics for path ops. On
// total failure a live backend's verdict (ENOENT, EACCES, ...) beats a
// dead backend's EIO: the survivor actually looked.
func (s *StripedFS) pathFirst(path string, op func(b FS) error) error {
	owners := s.ownersFor(path)
	if len(owners) == 1 {
		return op(s.backends[owners[0]])
	}
	var firstErr error
	for _, b := range owners {
		err := op(s.backends[b])
		if err == nil {
			return nil
		}
		if firstErr == nil || (errors.Is(firstErr, EIO) && !errors.Is(err, EIO)) {
			firstErr = err
		}
	}
	return firstErr
}

// pathAll applies op to every owner of path and succeeds if at least
// one owner does — the write-side semantics for path ops (a dead
// replica degrades the copy set; the doctor heals it later).
func (s *StripedFS) pathAll(path string, op func(b FS) error) error {
	owners := s.ownersFor(path)
	if len(owners) == 1 {
		return op(s.backends[owners[0]])
	}
	ok := false
	var firstErr error
	for _, b := range owners {
		if err := op(s.backends[b]); err == nil {
			ok = true
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if ok {
		return nil
	}
	return firstErr
}

// Stat implements FS.
func (s *StripedFS) Stat(path string) (Stat, error) {
	owners := s.ownersFor(path)
	if len(owners) == 1 {
		return s.backends[owners[0]].Stat(path)
	}
	var firstErr error
	for _, b := range owners {
		st, err := s.backends[b].Stat(path)
		if err == nil {
			return st, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return Stat{}, firstErr
}

// Truncate implements FS.
func (s *StripedFS) Truncate(path string, size int64) error {
	return s.pathAll(path, func(b FS) error { return b.Truncate(path, size) })
}

// Unlink implements FS.
func (s *StripedFS) Unlink(path string) error {
	return s.pathAll(path, func(b FS) error { return b.Unlink(path) })
}

// Mkdir implements FS. A routed (hostdir) directory is created on every
// owning backend; a canonical directory is created on backend 0 with
// authoritative error semantics and mirrored — with parents — onto every
// shadow backend so later hostdirs have a home there. Under a replica
// layout one surviving owner is enough, and shadow mirror failures are
// tolerated (a dead backend's skeleton is rebuilt when it is healed).
func (s *StripedFS) Mkdir(path string, mode uint32) error {
	if routed(path) {
		return s.pathAll(path, func(b FS) error {
			err := b.Mkdir(path, mode)
			if errors.Is(err, ENOENT) {
				// Parent skeleton missing on the owning backend; build it.
				if merr := mkdirAll(b, gopath.Dir(gopath.Clean("/"+path)), 0o755); merr != nil {
					return merr
				}
				err = b.Mkdir(path, mode)
			}
			return err
		})
	}
	if !s.replicated() {
		err0 := s.backends[0].Mkdir(path, mode)
		if err0 != nil && !errors.Is(err0, EEXIST) {
			return err0
		}
		for _, b := range s.backends[1:] {
			if err := mkdirAll(b, path, mode); err != nil {
				return err
			}
		}
		return err0
	}
	owners := s.ownersFor(path)
	isOwner := make(map[int]bool, len(owners))
	for _, b := range owners {
		isOwner[b] = true
	}
	err0 := s.backends[owners[0]].Mkdir(path, mode)
	ok := err0 == nil || errors.Is(err0, EEXIST)
	for i, b := range s.backends {
		if i == owners[0] {
			continue
		}
		if err := mkdirAll(b, path, mode); err == nil && isOwner[i] {
			ok = true
		}
	}
	if !ok {
		return err0
	}
	if errors.Is(err0, EEXIST) {
		return err0
	}
	return nil
}

// Rmdir implements FS. Canonical directories come down on every backend
// (shadows first, tolerating directories that never made it there);
// backend 0 is authoritative for the result. Under a replica layout a
// dead backend's copy is tolerated — the doctor reconciles it later.
func (s *StripedFS) Rmdir(path string) error {
	if routed(path) {
		return s.pathAll(path, func(b FS) error { return b.Rmdir(path) })
	}
	if !s.replicated() {
		for _, b := range s.backends[1:] {
			if err := b.Rmdir(path); err != nil && !errors.Is(err, ENOENT) {
				return err
			}
		}
		return s.backends[0].Rmdir(path)
	}
	owners := s.ownersFor(path)
	isOwner := make(map[int]bool, len(owners))
	for _, b := range owners {
		isOwner[b] = true
	}
	ok := false
	var ownerErr error
	for i := len(s.backends) - 1; i >= 0; i-- {
		err := s.backends[i].Rmdir(path)
		if !isOwner[i] {
			continue
		}
		switch {
		case err == nil:
			ok = true
		case errors.Is(err, ENOENT):
			// A replica that never materialised the directory.
		case ownerErr == nil || i == owners[0]:
			ownerErr = err
		}
	}
	if ok {
		return nil
	}
	if ownerErr != nil {
		return ownerErr
	}
	return ENOENT
}

// Readdir implements FS. A directory's listing is the merged,
// name-deduplicated union across the backends that may hold entries —
// this is how a container walk discovers hostdirs wherever they live.
// Under mod-N backend 0 is authoritative for canonical errors; under a
// replica layout one answering owner is enough.
func (s *StripedFS) Readdir(path string) ([]DirEntry, error) {
	if routed(path) {
		owners := s.ownersFor(path)
		if len(owners) == 1 {
			return s.backends[owners[0]].Readdir(path)
		}
		return s.mergedReaddir(path, owners, owners)
	}
	if !s.replicated() {
		entries, err := s.backends[0].Readdir(path)
		if err != nil {
			return nil, err
		}
		if len(s.backends) == 1 {
			return entries, nil
		}
		seen := make(map[string]bool, len(entries))
		for _, e := range entries {
			seen[e.Name] = true
		}
		for _, b := range s.backends[1:] {
			shadow, err := b.Readdir(path)
			if err != nil {
				if errors.Is(err, ENOENT) || errors.Is(err, ENOTDIR) {
					continue
				}
				return nil, err
			}
			for _, e := range shadow {
				if !seen[e.Name] {
					seen[e.Name] = true
					entries = append(entries, e)
				}
			}
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
		return entries, nil
	}
	all := make([]int, len(s.backends))
	for i := range all {
		all[i] = i
	}
	return s.mergedReaddir(path, all, s.ownersFor(path))
}

// mergedReaddir merges listings across the scan backends, requiring at
// least one of the owner backends to answer; other failures are
// tolerated (a dead or partially-healed replica must not blind the
// container walk). When no owner answers, a live owner's verdict
// (ENOENT, ...) beats a dead owner's EIO, as in pathFirst.
func (s *StripedFS) mergedReaddir(path string, scan, owners []int) ([]DirEntry, error) {
	isOwner := make(map[int]bool, len(owners))
	for _, b := range owners {
		isOwner[b] = true
	}
	seen := make(map[string]bool)
	var entries []DirEntry
	ok := false
	var ownerErr error
	for _, i := range scan {
		list, err := s.backends[i].Readdir(path)
		if err != nil {
			if isOwner[i] && (ownerErr == nil || (errors.Is(ownerErr, EIO) && !errors.Is(err, EIO))) {
				ownerErr = err
			}
			continue
		}
		if isOwner[i] {
			ok = true
		}
		for _, e := range list {
			if !seen[e.Name] {
				seen[e.Name] = true
				entries = append(entries, e)
			}
		}
	}
	if !ok {
		if ownerErr == nil {
			ownerErr = ENOENT
		}
		return nil, ownerErr
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, nil
}

// sameOwners reports whether two replica sets are identical.
func sameOwners(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Rename implements FS. Routed paths rename within their owning replica
// set; a rename that would move data between replica sets is refused
// (EXDEV, as between real mounts). Canonical paths rename on backend 0
// first — the authoritative copy, so the common failures (destination
// occupied, permissions) fail fast before any shadow moves — then on
// every shadow holding the old path, carrying a container's shadow
// hostdir trees along.
func (s *StripedFS) Rename(oldpath, newpath string) error {
	if routed(oldpath) || routed(newpath) {
		oo, no := s.ownersFor(oldpath), s.ownersFor(newpath)
		if !sameOwners(oo, no) {
			return EXDEV
		}
		return s.pathAll(oldpath, func(b FS) error { return b.Rename(oldpath, newpath) })
	}
	if !s.replicated() {
		if err := s.backends[0].Rename(oldpath, newpath); err != nil {
			return err
		}
		for _, b := range s.backends[1:] {
			if err := b.Rename(oldpath, newpath); err != nil && !errors.Is(err, ENOENT) {
				return err
			}
		}
		return nil
	}
	owners := s.ownersFor(oldpath)
	isOwner := make(map[int]bool, len(owners))
	for _, b := range owners {
		isOwner[b] = true
	}
	ok := false
	var ownerErr error
	for i, b := range s.backends {
		err := b.Rename(oldpath, newpath)
		if !isOwner[i] {
			continue
		}
		switch {
		case err == nil:
			ok = true
		case errors.Is(err, ENOENT):
		case ownerErr == nil || i == owners[0]:
			ownerErr = err
		}
	}
	if ok {
		return nil
	}
	if ownerErr != nil {
		return ownerErr
	}
	return ENOENT
}

// Access implements FS.
func (s *StripedFS) Access(path string, mode int) error {
	return s.pathFirst(path, func(b FS) error { return b.Access(path, mode) })
}

var _ FS = (*StripedFS)(nil)
var _ VectorFS = (*StripedFS)(nil)
