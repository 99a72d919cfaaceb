package service

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"

	"ldplfs/internal/posix"
)

// Server runs a Gateway over a net.Listener, one goroutine per
// connection. The per-connection loop is serial (one frame in flight
// per client), so cross-client concurrency — what the QoS stage
// arbitrates — equals connection count.
type Server struct {
	g *Gateway

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer wraps a gateway for network serving.
func NewServer(g *Gateway) *Server {
	return &Server{g: g, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections until the listener closes. It always
// returns a non-nil error; after Close it returns net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.track(conn, true)
		go func() {
			defer s.track(conn, false)
			defer conn.Close()
			s.handleConn(conn)
		}()
	}
}

func (s *Server) track(c net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		if s.closed {
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
}

// Close stops accepting and tears down live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[net.Conn]struct{}{}
	s.mu.Unlock()
	if ln != nil {
		return ln.Close()
	}
	return nil
}

// handleConn speaks the frame protocol on one connection: a Hello
// first, then a request/response loop until EOF or a protocol error. A
// first frame that is not a good Hello (wrong op, undeclared tenant) is
// answered with its errno and the connection dropped.
func (s *Server) handleConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	var sess *Session
	defer func() {
		if sess != nil {
			sess.End() // fds released
		}
	}()
	for {
		err := serveFrame(conn, br, func(f Frame, w *WireWriter) int32 {
			if sess == nil {
				var status int32
				sess, status = s.hello(f, w)
				return status
			}
			return s.handle(sess, f, w)
		})
		if err != nil || sess == nil {
			return // EOF, corrupt stream or refused Hello: session ends
		}
	}
}

// framePool holds frame buffers. The server decodes each request in
// one and encodes each reply in another, so once the pool is warm a
// frame costs no allocation however large its payload.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// replyHeadSize is the prefix every reply reserves: the frame header,
// then the i32 status, patched in once the handler has run.
const replyHeadSize = frameHeaderSize + 4

// serveFrame reads one request into a pooled buffer, has handle append
// the reply fields to a second pooled buffer behind the reserved header
// and status, patches both and sends the reply in one write. handle
// returns the status; a nonzero status replies with the status alone.
// The request payload (an OpWrite's data included) aliases the pooled
// buffer: it is valid only until handle returns, and handle must not
// keep it.
func serveFrame(out io.Writer, in io.Reader, handle func(Frame, *WireWriter) int32) error {
	req := framePool.Get().(*[]byte)
	defer framePool.Put(req)
	f, buf, err := ReadFrameInto(in, *req)
	*req = buf
	if err != nil {
		return err
	}
	rep := framePool.Get().(*[]byte)
	defer framePool.Put(rep)
	w := BeginFrame(*rep)
	w.I32(0)
	status := handle(f, &w)
	if status != 0 {
		w.buf = w.buf[:replyHeadSize]
	}
	binary.LittleEndian.PutUint32(w.buf[frameHeaderSize:], uint32(status))
	frame, err := w.EndFrame(f.Op, 0)
	*rep = w.buf
	if err != nil {
		return err
	}
	_, err = out.Write(frame)
	return err
}

// hello admits the connection's tenant and echoes its name. A nil
// session comes with the status refusing the connection.
func (s *Server) hello(f Frame, w *WireWriter) (*Session, int32) {
	if f.Op != OpHello {
		return nil, einval
	}
	r := NewWireReader(f.Payload)
	tenant := r.String()
	sess, err := s.g.NewSession(tenant)
	if err != nil {
		return nil, int32(posix.EPERM)
	}
	w.String(tenant)
	return sess, 0
}

const einval = int32(posix.EINVAL)

// handle executes one request, appending the reply fields to w, and
// returns the status. Malformed payloads answer EINVAL rather than
// killing the connection: the framing layer is still intact, so the
// stream stays usable.
func (s *Server) handle(sess *Session, f Frame, w *WireWriter) int32 {
	r := NewWireReader(f.Payload)
	switch f.Op {
	case OpOpen:
		path := r.String()
		flags := r.U32()
		mode := r.U32()
		if r.Err() != nil {
			return einval
		}
		fd, err := sess.Open(path, int(flags), mode)
		w.U32(uint32(fd))
		return ErrnoOf(err)
	case OpRead:
		fd := r.U32()
		off := r.U64()
		n := r.U32()
		if r.Err() != nil || n > MaxFramePayload-64 {
			return einval
		}
		// The data region of the reply is the read buffer: plfs fills
		// it in place and the frame goes out as is.
		data := w.extend(int(n))
		got, err := sess.Pread(int(fd), data, int64(off))
		w.buf = w.buf[:len(w.buf)-len(data)+got]
		return ErrnoOf(err)
	case OpWrite:
		fd := r.U32()
		off := r.U64()
		data := r.Rest()
		if r.Err() != nil {
			return einval
		}
		n, err := sess.Pwrite(int(fd), data, int64(off))
		w.U32(uint32(n))
		return ErrnoOf(err)
	case OpSync:
		fd := r.U32()
		if r.Err() != nil {
			return einval
		}
		return ErrnoOf(sess.Sync(int(fd)))
	case OpClose:
		fd := r.U32()
		if r.Err() != nil {
			return einval
		}
		return ErrnoOf(sess.Close(int(fd)))
	case OpStat, OpFstat:
		var st posix.Stat
		var err error
		if f.Op == OpStat {
			path := r.String()
			if r.Err() != nil {
				return einval
			}
			st, err = sess.Stat(path)
		} else {
			fd := r.U32()
			if r.Err() != nil {
				return einval
			}
			st, err = sess.Fstat(int(fd))
		}
		w.U64(uint64(st.Size))
		w.U32(st.Mode)
		return ErrnoOf(err)
	case OpTrunc:
		path := r.String()
		size := r.U64()
		if r.Err() != nil {
			return einval
		}
		return ErrnoOf(sess.Truncate(path, int64(size)))
	case OpUnlink:
		path := r.String()
		if r.Err() != nil {
			return einval
		}
		return ErrnoOf(sess.Unlink(path))
	case OpStats:
		text := s.g.StatsText()
		if len(text) > MaxFramePayload-64 {
			text = text[:MaxFramePayload-64]
		}
		w.buf = append(w.buf, text...)
		return 0
	case OpDoctor:
		path := r.String()
		fix := r.U8()
		if r.Err() != nil {
			return einval
		}
		report, err := sess.Doctor(path, fix != 0)
		w.buf = append(w.buf, report...)
		return ErrnoOf(err)
	}
	return einval
}
