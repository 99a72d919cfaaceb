package bench

import (
	"bytes"
	"net"
	"runtime"
	"testing"

	"ldplfs/internal/core"
	"ldplfs/internal/posix"
	"ldplfs/internal/service"
	"ldplfs/internal/service/client"
)

// Gateway wire path: one client over loopback TCP to a plfsd gateway,
// moving 256 KiB reads and 64 KiB writes. The backend is kept out of
// the way (MemFS for reads; a real directory for writes, where MemFS
// would grow its in-memory dropping on every append and count the
// backend's storage as wire garbage), so what is left is the frame
// codec, the session and the QoS stage.
const (
	gwReadBlock  = 256 << 10
	gwWriteBlock = 64 << 10
	gwBlocks     = 8
)

// gwRig serves a gateway over backend on loopback and returns a
// connected client and an fd of a container holding gwBlocks read
// blocks.
func gwRig(tb testing.TB, backend posix.FS) (*client.Conn, int) {
	tb.Helper()
	if err := backend.Mkdir("/backend", 0o755); err != nil {
		tb.Fatal(err)
	}
	mounts, err := core.ParseMounts("/mnt/plfs=/backend")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := service.NewGateway(service.Config{
		Backend: backend,
		Mounts:  mounts,
		Tenants: []service.TenantConfig{{Name: "gold"}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := service.NewServer(g)
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	c, err := client.Dial(ln.Addr().String(), "gold")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	fd, err := c.Open("/mnt/plfs/wire", posix.O_CREAT|posix.O_RDWR, 0o644)
	if err != nil {
		tb.Fatal(err)
	}
	block := bytes.Repeat([]byte{0x5a}, gwReadBlock)
	for i := 0; i < gwBlocks; i++ {
		if _, err := c.Pwrite(fd, block, int64(i*gwReadBlock)); err != nil {
			tb.Fatal(err)
		}
	}
	return c, fd
}

// BenchmarkGatewayRead256K times a warm 256 KiB remote Pread round
// trip; -benchmem counts client and server allocations alike.
func BenchmarkGatewayRead256K(b *testing.B) {
	c, fd := gwRig(b, posix.NewMemFS())
	buf := make([]byte, gwReadBlock)
	b.SetBytes(gwReadBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := c.Pread(fd, buf, int64(i%gwBlocks)*gwReadBlock); err != nil || n != gwReadBlock {
			b.Fatalf("Pread = %d, %v", n, err)
		}
	}
}

// wireBytesPerOp reports the heap bytes op allocates per call, counting
// every goroutine (client and server). Each of three rounds runs after
// a warm-up; the least is reported, because a garbage collection that
// lands in a round empties the frame pools and charges that round one
// refill — the floor is about the per-op steady state.
func wireBytesPerOp(t *testing.T, op func()) float64 {
	t.Helper()
	const warm, ops = 8, 32
	best := -1.0
	for round := 0; round < 3; round++ {
		for i := 0; i < warm; i++ {
			op()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		if per := float64(after.TotalAlloc-before.TotalAlloc) / ops; best < 0 || per < best {
			best = per
		}
	}
	return best
}

// TestGatewayWireAllocs is the CI-enforced alloc floor of the gateway
// wire path: a warm 256 KiB Pread and a warm 64 KiB Pwrite round trip
// each allocate under 4 KiB per op, client and server together. Frames
// are encoded and decoded in place in pooled buffers, so no per-op
// allocation scales with the payload.
func TestGatewayWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the floor only holds on plain builds")
	}
	const budget = 4 << 10
	rc, rfd := gwRig(t, posix.NewMemFS())
	rbuf := make([]byte, gwReadBlock)
	var i int
	read := wireBytesPerOp(t, func() {
		i++
		if n, err := rc.Pread(rfd, rbuf, int64(i%gwBlocks)*gwReadBlock); err != nil || n != gwReadBlock {
			t.Fatalf("Pread = %d, %v", n, err)
		}
	})

	osfs, err := posix.NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wc, wfd := gwRig(t, osfs)
	wbuf := bytes.Repeat([]byte{0xa5}, gwWriteBlock)
	write := wireBytesPerOp(t, func() {
		i++
		if n, err := wc.Pwrite(wfd, wbuf, int64(i%gwBlocks)*gwWriteBlock); err != nil || n != gwWriteBlock {
			t.Fatalf("Pwrite = %d, %v", n, err)
		}
	})
	t.Logf("warm round trip: 256 KiB Pread %.0f B/op, 64 KiB Pwrite %.0f B/op (budget %d)", read, write, budget)
	if read >= budget {
		t.Errorf("warm 256 KiB Pread allocates %.0f B/op, budget is %d", read, budget)
	}
	if write >= budget {
		t.Errorf("warm 64 KiB Pwrite allocates %.0f B/op, budget is %d", write, budget)
	}
}
