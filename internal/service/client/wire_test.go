package client_test

import (
	"bytes"
	"net"
	"testing"

	"ldplfs/internal/service"
	"ldplfs/internal/service/client"
)

// TestPreadRejectsOverlongReply pins the in-place read contract: a read
// reply carrying more bytes than the caller's buffer holds is a
// protocol error — not a silent truncation — and the connection is
// dropped, since the rest of the stream can no longer be trusted.
func TestPreadRejectsOverlongReply(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srv.Close()
		hello, err := service.ReadFrame(srv)
		if err != nil {
			t.Error(err)
			return
		}
		var w service.WireWriter
		w.I32(0)
		w.Bytes(hello.Payload) // echo the tenant string
		if err := service.WriteFrame(srv, service.OpHello, w.Payload()); err != nil {
			t.Error(err)
			return
		}
		req, err := service.ReadFrame(srv)
		if err != nil {
			t.Error(err)
			return
		}
		r := service.NewWireReader(req.Payload)
		r.U32()
		r.U64()
		n := r.U32()
		w = service.WireWriter{}
		w.I32(0)
		w.Bytes(bytes.Repeat([]byte{0xee}, int(n)+1))
		service.WriteFrame(srv, service.OpRead, w.Payload()) // the client may hang up mid-frame
	}()

	c, err := client.New(cli, "gold")
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 16)
	if n, err := c.Pread(3, p, 0); err == nil {
		t.Fatalf("overlong reply accepted: n=%d", n)
	}
	if !bytes.Equal(p, make([]byte, 16)) {
		t.Fatalf("overlong reply was copied into the buffer: %x", p)
	}
	if _, err := c.Stat("/mnt/plfs/x"); err == nil {
		t.Fatal("connection still in use after a protocol error")
	}
	<-done
}
