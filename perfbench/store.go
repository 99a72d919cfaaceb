package main

import (
	"fmt"
	"os"
	"path/filepath"

	"ldplfs/internal/harness"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
)

// newStores builds the untraced and traced views of one set of backend
// directories under the named layout. The traced view counts and times
// every backend call and reports replica counters to the tracer's plane.
func newStores(dir, layout string, n int, cfg config, tr *tracer) ([2]posix.FS, error) {
	var stores [2]posix.FS
	l, err := posix.LayoutFor(layout, n)
	if err != nil {
		return stores, err
	}
	for mode := range stores {
		backends := make([]posix.FS, n)
		for i := range backends {
			bdir := filepath.Join(dir, fmt.Sprintf("b%d", i))
			if err := os.MkdirAll(bdir, 0o755); err != nil {
				return stores, err
			}
			osfs, err := posix.NewOSFS(bdir)
			if err != nil {
				return stores, err
			}
			backends[i] = osfs
			if cfg.probe != nil {
				backends[i] = posix.NewInstrumentFS(backends[i], cfg.probe)
			}
			if mode == 1 {
				backends[i] = tr.wrapFS(backends[i])
			}
		}
		var ropts posix.ReplicaOptions
		if mode == 1 {
			ropts.Stats = tr.plane
		}
		stores[mode] = posix.NewLayoutFS(l, ropts, backends...)
		if err := harness.PrepareStore(stores[mode]); err != nil {
			return stores, err
		}
	}
	return stores, nil
}

// writeContainer writes an N-1 strided container at backend path path:
// writer pid k writes blocks k, k+writers, ... in one vectored call.
// Closing the last writer publishes the flattened index.
func writeContainer(store posix.FS, path string, size, block int64, writers int, pat *pattern) error {
	fs := plfs.New(store)
	f, err := fs.Open(path, posix.O_CREAT|posix.O_WRONLY|posix.O_TRUNC, 0, 0o644)
	if err != nil {
		return err
	}
	for i := 1; i < writers; i++ {
		f.Ref()
	}
	var werr error
	for pid := 0; pid < writers && werr == nil; pid++ {
		var segs []plfs.WriteSeg
		for off := int64(pid) * block; off < size; off += int64(writers) * block {
			segs = append(segs, plfs.WriteSeg{Off: off, Data: pat.at(off, int(block))})
		}
		_, werr = f.WriteV(segs, uint32(pid))
	}
	for pid := 0; pid < writers; pid++ {
		if err := f.Close(uint32(pid)); err != nil && werr == nil {
			werr = err
		}
	}
	return werr
}
