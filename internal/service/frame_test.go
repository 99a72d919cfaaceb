package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"ldplfs/internal/posix"
)

// handleFrame runs one request through the server's reply encoder and
// returns the reply payload: the i32 status, then the op's fields.
func (s *Server) handleFrame(sess *Session, f Frame) []byte {
	var out bytes.Buffer
	in := bytes.NewReader(AppendFrame(nil, f.Op, f.Payload))
	if err := serveFrame(&out, in, func(f Frame, w *WireWriter) int32 { return s.handle(sess, f, w) }); err != nil {
		panic(err)
	}
	reply, _, err := ParseFrame(out.Bytes())
	if err != nil || reply.Op != f.Op {
		panic("reply frame does not answer the request")
	}
	return reply.Payload
}

// FuzzFrameStream feeds arbitrary byte streams through the in-place
// decoder, reusing one buffer across frames: frame for frame it must
// agree with ParseFrame, fail where ParseFrame fails, never panic, and
// never hold a buffer larger than MaxFramePayload.
func FuzzFrameStream(f *testing.F) {
	two := AppendFrame(AppendFrame(nil, OpHello, []byte("gold")), OpWrite, bytes.Repeat([]byte{0xaa}, 300))
	f.Add([]byte{})
	f.Add(two)
	f.Add(two[:len(two)-1])
	f.Add(AppendFrame(two, OpClose, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{0, 0, 0x80, 0, OpWrite, 1, 2, 3}) // promises MaxFramePayload, delivers 3 bytes
	f.Add([]byte{1, 0, 0, 0, OpRead})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		rest := data
		var buf []byte
		for {
			want, n, perr := ParseFrame(rest)
			got, grown, err := ReadFrameInto(r, buf)
			if cap(grown) > MaxFramePayload {
				t.Fatalf("decoder holds a %d-byte buffer", cap(grown))
			}
			buf = grown
			switch {
			case perr == nil:
				if err != nil {
					t.Fatalf("ParseFrame accepted a frame ReadFrameInto refused: %v", err)
				}
				if got.Op != want.Op || !bytes.Equal(got.Payload, want.Payload) {
					t.Fatalf("frame mismatch: op %d/%d, %d/%d payload bytes", got.Op, want.Op, len(got.Payload), len(want.Payload))
				}
				rest = rest[n:]
				continue
			case len(rest) == 0:
				if err != io.EOF {
					t.Fatalf("clean end of stream: err %v, want io.EOF", err)
				}
			case perr == errFrameSize:
				if err != errFrameSize {
					t.Fatalf("oversize header: err %v, want errFrameSize", err)
				}
			default: // truncated frame
				if err != io.ErrUnexpectedEOF {
					t.Fatalf("truncated frame: err %v, want io.ErrUnexpectedEOF", err)
				}
			}
			return
		}
	})
}

// stallReader yields its bytes once, then fails like a peer that went
// quiet and hung up.
type stallReader struct{ b []byte }

var errStalled = errors.New("peer stalled")

func (s *stallReader) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, errStalled
	}
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}

// TestReadFrameGrowsWithArrivals pins the decoder's allocation bound: a
// header that promises MaxFramePayload and then delivers 1 KiB costs a
// buffer proportional to the 1 KiB, not to the promise.
func TestReadFrameGrowsWithArrivals(t *testing.T) {
	stream := make([]byte, frameHeaderSize, frameHeaderSize+1024)
	binary.LittleEndian.PutUint32(stream, MaxFramePayload)
	stream[4] = OpWrite
	stream = append(stream, bytes.Repeat([]byte{7}, 1024)...)
	_, buf, err := ReadFrameInto(&stallReader{stream}, nil)
	if !errors.Is(err, errStalled) {
		t.Fatalf("err %v, want the stall", err)
	}
	if len(buf) != 1024 || cap(buf) > 2*frameGrowStep {
		t.Fatalf("stalled 8 MiB frame holds len %d cap %d after 1 KiB arrived", len(buf), cap(buf))
	}
}

// TestServerDropsOversizeHeader pins the daemon side of the bound: a
// header announcing more than MaxFramePayload drops the connection
// before any payload is read, and the server keeps serving others.
func TestServerDropsOversizeHeader(t *testing.T) {
	_, addr := startServer(t)
	c := dialRaw(t, addr)
	c.send(t, OpHello, helloPayload("gold"))
	hdr := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(hdr, MaxFramePayload+1)
	hdr[4] = OpWrite
	if _, err := c.nc.Write(hdr); err != nil {
		t.Fatal(err)
	}
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.br.ReadByte(); err != io.EOF {
		t.Fatalf("after an oversize header: read err %v, want io.EOF (connection dropped)", err)
	}

	other := dialRaw(t, addr)
	f := other.send(t, OpHello, helloPayload("gold"))
	if status := statusOf(f.Payload); status != 0 {
		t.Fatalf("server stopped serving: hello status %d", status)
	}
}

// TestServerReadReplyFramedInPlace pins the in-place OpRead reply: the
// data region is exactly what was read (a short read at EOF shrinks the
// frame), and an error reply carries the status alone.
func TestServerReadReplyFramedInPlace(t *testing.T) {
	g := newTestGateway(t, nil)
	srv := NewServer(g)
	sess, err := g.NewSession("gold")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.End()
	fd, err := sess.Open("/mnt/plfs/inplace", posix.O_CREAT|posix.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Pwrite(fd, []byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	read := func(fd uint32, off uint64, n uint32) []byte {
		var w WireWriter
		w.U32(fd)
		w.U64(off)
		w.U32(n)
		return srv.handleFrame(sess, Frame{Op: OpRead, Payload: w.Payload()})
	}
	if reply := read(uint32(fd), 4, 100); statusOf(reply) != 0 || string(reply[4:]) != "456789" {
		t.Fatalf("short read reply %q", reply)
	}
	if reply := read(9999, 0, 100); len(reply) != 4 || statusOf(reply) == 0 {
		t.Fatalf("bad-fd reply %v: want a 4-byte error status", reply)
	}
}
