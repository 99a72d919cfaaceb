// Package client is the Go client for a plfsd gateway: it speaks the
// length-prefixed frame protocol of internal/service over any
// net.Conn, presenting the same open/pread/pwrite/sync/close surface
// as a local dispatch so ldrun-style workloads can target a remote
// daemon unchanged (harness wires it up behind -remote).
package client

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"ldplfs/internal/posix"
	"ldplfs/internal/service"
)

// Conn is one authenticated client connection. Methods are safe for
// concurrent use; requests on one connection serialize (the protocol
// is one frame in flight), so parallelism across ranks comes from one
// Conn per rank — exactly one gateway session each.
//
// Framing is in place: each request is encoded into one reusable buffer
// behind its reserved header, a write's data goes out vectored after it
// with no staging copy, and a read's data lands straight in the
// caller's buffer.
type Conn struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte    // request encoder storage
	rbuf []byte    // reply decoder storage (all ops but reads)
	head [5]byte   // a read reply's header, then its status
	vecs [2][]byte // a write request: encoded fields, then the data
	vec  net.Buffers
}

// Dial connects to a gateway at addr and performs the Hello handshake
// for the named tenant.
func Dial(addr, tenant string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := New(nc, tenant)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// New performs the Hello handshake over an existing connection (tests
// use net.Pipe).
func New(nc net.Conn, tenant string) (*Conn, error) {
	c := &Conn{conn: nc, br: bufio.NewReader(nc)}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.begin()
	w.String(tenant)
	r, err := c.roundTrip(&w, service.OpHello, nil)
	if err != nil {
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	if name := r.String(); name != tenant {
		return nil, fmt.Errorf("client: hello echoed tenant %q, want %q", name, tenant)
	}
	return c, nil
}

// Close shuts the connection down; the gateway releases the session's
// open fds.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// begin starts a request frame in the connection's encoder buffer.
// Caller holds c.mu.
func (c *Conn) begin() service.WireWriter { return service.BeginFrame(c.wbuf) }

// send patches the header of the request encoded in w and writes it,
// with data (a write's payload) following in the same vectored write.
// Caller holds c.mu.
func (c *Conn) send(w *service.WireWriter, op byte, data []byte) error {
	frame, err := w.EndFrame(op, len(data))
	if err != nil {
		return err
	}
	c.wbuf = frame
	if len(data) == 0 {
		_, err = c.conn.Write(frame)
		return err
	}
	c.vecs = [2][]byte{frame, data}
	c.vec = c.vecs[:]
	_, err = c.vec.WriteTo(c.conn)
	c.vecs = [2][]byte{} // keep no reference to the caller's data
	return err
}

// roundTrip sends the request encoded in w (plus data) and decodes the
// response status. The returned reader is positioned after the status
// field and aliases the connection's decoder buffer, so it is valid
// only while the caller holds c.mu.
func (c *Conn) roundTrip(w *service.WireWriter, op byte, data []byte) (service.WireReader, error) {
	if err := c.send(w, op, data); err != nil {
		return service.WireReader{}, err
	}
	f, buf, err := service.ReadFrameInto(c.br, c.rbuf)
	c.rbuf = buf
	if err != nil {
		return service.WireReader{}, err
	}
	if f.Op != op {
		return service.WireReader{}, fmt.Errorf("client: response op %d to request %d", f.Op, op)
	}
	r := service.NewWireReader(f.Payload)
	if status := r.I32(); status != 0 {
		return service.WireReader{}, service.ErrnoErr(status)
	}
	if err := r.Err(); err != nil {
		return service.WireReader{}, err
	}
	return r, nil
}

// Open opens a path on the gateway (POSIX flags/mode).
func (c *Conn) Open(path string, flags int, mode uint32) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.begin()
	w.String(path)
	w.U32(uint32(flags))
	w.U32(mode)
	r, err := c.roundTrip(&w, service.OpOpen, nil)
	if err != nil {
		return -1, err
	}
	return int(r.U32()), r.Err()
}

// Pread reads up to len(p) bytes at off into p. The reply's data is
// read from the connection straight into p. A reply carrying more than
// len(p) bytes is a protocol error that closes the connection.
func (c *Conn) Pread(fd int, p []byte, off int64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.begin()
	w.U32(uint32(fd))
	w.U64(uint64(off))
	w.U32(uint32(len(p)))
	if err := c.send(&w, service.OpRead, nil); err != nil {
		return 0, err
	}
	op, n, err := service.ReadFrameHeader(c.br, c.head[:])
	if err != nil {
		return 0, err
	}
	if op != service.OpRead || n < 4 || n-4 > len(p) {
		c.conn.Close()
		return 0, fmt.Errorf("client: read reply op %d with %d payload bytes for a %d-byte buffer", op, n, len(p))
	}
	if _, err := io.ReadFull(c.br, c.head[:4]); err != nil {
		return 0, err
	}
	if status := int32(binary.LittleEndian.Uint32(c.head[:4])); status != 0 {
		if _, err := c.br.Discard(n - 4); err != nil {
			return 0, err
		}
		return 0, service.ErrnoErr(status)
	}
	got, err := io.ReadFull(c.br, p[:n-4])
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return got, err
}

// Pwrite writes p at off. p goes out vectored behind the request's
// fixed fields; it is not copied.
func (c *Conn) Pwrite(fd int, p []byte, off int64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.begin()
	w.U32(uint32(fd))
	w.U64(uint64(off))
	r, err := c.roundTrip(&w, service.OpWrite, p)
	if err != nil {
		return 0, err
	}
	return int(r.U32()), r.Err()
}

// Sync flushes the fd's droppings on the gateway.
func (c *Conn) Sync(fd int) error { return c.fdOp(service.OpSync, fd) }

// CloseFd closes a remote fd.
func (c *Conn) CloseFd(fd int) error { return c.fdOp(service.OpClose, fd) }

// fdOp runs a request whose only field is an fd and whose reply is
// only a status.
func (c *Conn) fdOp(op byte, fd int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.begin()
	w.U32(uint32(fd))
	_, err := c.roundTrip(&w, op, nil)
	return err
}

// Stat stats a remote path.
func (c *Conn) Stat(path string) (posix.Stat, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.begin()
	w.String(path)
	r, err := c.roundTrip(&w, service.OpStat, nil)
	if err != nil {
		return posix.Stat{}, err
	}
	return decodeStat(&r)
}

// Fstat stats a remote fd.
func (c *Conn) Fstat(fd int) (posix.Stat, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.begin()
	w.U32(uint32(fd))
	r, err := c.roundTrip(&w, service.OpFstat, nil)
	if err != nil {
		return posix.Stat{}, err
	}
	return decodeStat(&r)
}

func decodeStat(r *service.WireReader) (posix.Stat, error) {
	size := r.U64()
	mode := r.U32()
	if err := r.Err(); err != nil {
		return posix.Stat{}, err
	}
	return posix.Stat{Size: int64(size), Mode: mode}, nil
}

// Truncate truncates a remote path.
func (c *Conn) Truncate(path string, size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.begin()
	w.String(path)
	w.U64(uint64(size))
	_, err := c.roundTrip(&w, service.OpTrunc, nil)
	return err
}

// Unlink removes a remote path.
func (c *Conn) Unlink(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.begin()
	w.String(path)
	_, err := c.roundTrip(&w, service.OpUnlink, nil)
	return err
}

// Stats fetches the gateway's telemetry-plane snapshot, rendered.
func (c *Conn) Stats() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.begin()
	r, err := c.roundTrip(&w, service.OpStats, nil)
	if err != nil {
		return "", err
	}
	return string(r.Rest()), nil
}

// Doctor runs the container health report for a mount path on the
// gateway, optionally fixing what it finds.
func (c *Conn) Doctor(path string, fix bool) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.begin()
	w.String(path)
	if fix {
		w.U8(1)
	} else {
		w.U8(0)
	}
	r, err := c.roundTrip(&w, service.OpDoctor, nil)
	if err != nil {
		return "", err
	}
	return string(r.Rest()), nil
}
