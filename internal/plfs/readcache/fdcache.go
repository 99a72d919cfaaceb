package readcache

import (
	"sync"

	"ldplfs/internal/posix"
)

// DefaultMaxFDs bounds the number of cached read descriptors. Wide
// containers (thousands of historical writers) would otherwise pin one
// fd per data dropping for as long as any reader exists.
const DefaultMaxFDs = 128

// FDCache is a size-capped, reference-counted cache of read-only file
// descriptors keyed by backend path. Concurrent readers of one data
// dropping share a single descriptor (positional Pread carries no file
// pointer, so sharing is safe — see posix.FS); eviction of a descriptor
// that is still mid-pread is deferred until its last reference is
// released. All methods are safe for concurrent use.
//
// Multi-backend instances hand the cache their striped composite
// (posix.StripedFS): a dropping's path names exactly one backend under
// the placement rule, so the path key is simultaneously the backend key
// and cached descriptors never cross backends. DropPrefix on a container
// path therefore reaches the droppings on every backend at once.
type FDCache struct {
	fs  posix.FS
	max int

	mu      sync.Mutex
	entries map[string]*fdEntry
	tick    uint64
}

type fdEntry struct {
	path    string
	fd      int
	refs    int
	lastUse uint64
	dead    bool // evicted or dropped; close when refs reaches zero
}

// NewFDCache returns a cache over fs holding at most max descriptors
// (DefaultMaxFDs if max <= 0).
func NewFDCache(fs posix.FS, max int) *FDCache {
	if max <= 0 {
		max = DefaultMaxFDs
	}
	return &FDCache{fs: fs, max: max, entries: make(map[string]*fdEntry)}
}

// Ref is an outstanding reference to a cached descriptor, returned by
// AcquireRef. It is a plain value — acquiring and releasing through it
// allocates nothing, which is why the read engine's warm path uses it
// instead of Acquire's closure. Release exactly once; the zero Ref
// releases as a no-op.
type Ref struct {
	c *FDCache
	e *fdEntry
}

// Release drops the reference. Unlike Acquire's closure it is not
// idempotent: releasing the same Ref twice corrupts the refcount.
func (r Ref) Release() {
	if r.c == nil {
		return
	}
	r.c.mu.Lock()
	r.e.refs--
	closeNow := r.e.dead && r.e.refs == 0
	var victims []int
	if !r.e.dead && r.e.refs == 0 && len(r.c.entries) > r.c.max {
		// The cap was exceeded while every entry was pinned; the
		// last pin to go enforces it.
		victims = r.c.evictLocked()
	}
	r.c.mu.Unlock()
	if closeNow {
		r.c.fs.Close(r.e.fd)
	}
	for _, v := range victims {
		r.c.fs.Close(v)
	}
}

// Acquire returns a read-only descriptor for path, opening it on first
// use, and a release function that must be called when the caller's
// pread is done. The descriptor stays valid until release is called even
// if the entry is evicted or dropped concurrently. The release closure
// is idempotent; callers on an allocation-sensitive path should use
// AcquireRef instead.
func (c *FDCache) Acquire(path string) (int, func(), error) {
	fd, ref, err := c.AcquireRef(path)
	if err != nil {
		return -1, nil, err
	}
	var once sync.Once
	return fd, func() { once.Do(ref.Release) }, nil
}

// AcquireRef is Acquire returning a value-type reference instead of a
// release closure — zero allocations on a cache hit.
func (c *FDCache) AcquireRef(path string) (int, Ref, error) {
	c.mu.Lock()
	if e := c.entries[path]; e != nil && !e.dead {
		c.tick++
		e.refs++
		e.lastUse = c.tick
		c.mu.Unlock()
		return e.fd, Ref{c, e}, nil
	}
	c.mu.Unlock()

	fd, err := c.fs.Open(path, posix.O_RDONLY, 0)
	if err != nil {
		return -1, Ref{}, err
	}

	c.mu.Lock()
	if e := c.entries[path]; e != nil && !e.dead {
		// Another goroutine opened the same dropping while we did; use
		// the cached descriptor and discard ours.
		c.tick++
		e.refs++
		e.lastUse = c.tick
		c.mu.Unlock()
		c.fs.Close(fd)
		return e.fd, Ref{c, e}, nil
	}
	c.tick++
	e := &fdEntry{path: path, fd: fd, refs: 1, lastUse: c.tick}
	c.entries[path] = e
	victims := c.evictLocked()
	c.mu.Unlock()

	for _, v := range victims {
		c.fs.Close(v)
	}
	return e.fd, Ref{c, e}, nil
}

// evictLocked enforces the cap: unreferenced entries are removed
// oldest-first and their fds returned for closing. Entries pinned by
// in-flight preads cannot be evicted, so the cache may transiently
// exceed its cap under extreme fan-out; the release that unpins an
// entry of an over-cap cache evicts again. Caller holds c.mu.
func (c *FDCache) evictLocked() []int {
	var victims []int
	for len(c.entries) > c.max {
		var victim *fdEntry
		for _, e := range c.entries {
			if e.refs > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			break // every entry is pinned
		}
		delete(c.entries, victim.path)
		victims = append(victims, victim.fd)
	}
	return victims
}

// DropPrefix invalidates every entry whose path starts with prefix —
// called when a container's droppings are deleted (truncate-to-zero,
// unlink, rename) or its last open handle closes. Unpinned descriptors
// close immediately; pinned ones close on their final release.
func (c *FDCache) DropPrefix(prefix string) {
	var toClose []int
	c.mu.Lock()
	for p, e := range c.entries {
		if len(p) < len(prefix) || p[:len(prefix)] != prefix {
			continue
		}
		delete(c.entries, p)
		e.dead = true
		if e.refs == 0 {
			toClose = append(toClose, e.fd)
		}
	}
	c.mu.Unlock()
	for _, fd := range toClose {
		c.fs.Close(fd)
	}
}

// Len returns the number of cached (live) descriptors.
func (c *FDCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
