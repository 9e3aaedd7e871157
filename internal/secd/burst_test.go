package secd

// Tests that pin what a pipelined burst costs the server: the read-idle
// deadline is armed once per socket read rather than once per request,
// and a served request allocates nothing.

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"secstack/internal/wire"
)

// countingConn counts the server's socket reads and read-deadline arms.
type countingConn struct {
	net.Conn
	reads, arms atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(b)
}

func (c *countingConn) SetReadDeadline(t time.Time) error {
	c.arms.Add(1)
	return c.Conn.SetReadDeadline(t)
}

// countingListener hands the server countingConns and the test each one
// it accepted.
type countingListener struct {
	net.Listener
	accepted chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.accepted <- cc
	return cc, nil
}

// TestReadDeadlineArmedPerSocketRead: a pipelined burst arms the read
// deadline once per read that reaches the socket, so the number of arms
// per burst does not grow with the burst's length.
func TestReadDeadlineArmedPerSocketRead(t *testing.T) {
	s, err := New(Config{Adaptive: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	cl := &countingListener{Listener: lis, accepted: make(chan *countingConn, 1)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(cl) }()
	defer func() {
		if err := s.Shutdown(5 * time.Second); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		<-serveErr
	}()
	c := dialClient(t, lis.Addr().String())
	defer c.close()
	sc := <-cl.accepted

	const bursts = 20
	var added int64
	for _, n := range []int{16, 128} {
		var buf []byte
		for range n {
			buf = wire.AppendRequest(buf, wire.Request{Op: wire.OpFunnelAdd, Arg: 1})
		}
		arms0, reads0 := sc.arms.Load(), sc.reads.Load()
		for range bursts {
			if _, err := c.conn.Write(buf); err != nil {
				t.Fatalf("write burst: %v", err)
			}
			for i := range n {
				if rep, err := wire.ReadReply(c.br); err != nil || rep.Status != wire.StatusOK {
					t.Fatalf("burst of %d, reply %d: %+v %v", n, i, rep, err)
				}
			}
		}
		added += int64(bursts * n)
		arms, reads := sc.arms.Load()-arms0, sc.reads.Load()-reads0
		// The server may have armed the read that follows the last
		// burst without having entered it yet: hence the +1.
		if arms > reads+1 || arms > 2*bursts {
			t.Errorf("bursts of %d: %d arms over %d bursts and %d socket reads, want at most one per read and about one per burst",
				n, arms, bursts, reads)
		}
	}
	if got := s.Funnel().Load(); got != added {
		t.Fatalf("funnel = %d after %d adds", got, added)
	}
}

// TestAllocCeilingServedBurst: serving a pipelined burst over loopback
// allocates nothing per request - not the read, not the decode, not the
// engine op, not the reply or its flush - so the allocations the whole
// process makes, client included, stay below 0.05 per request.
func TestAllocCeilingServedBurst(t *testing.T) {
	_, addr := startServer(t, Config{Adaptive: true})
	c := dialClient(t, addr)
	defer c.close()

	const burst = 32
	mix := []wire.Request{
		{Op: wire.OpStackPush, Arg: 1},
		{Op: wire.OpStackPeek},
		{Op: wire.OpStackPop},
		{Op: wire.OpPoolPut, Arg: 2},
		{Op: wire.OpPoolGet},
		{Op: wire.OpFunnelAdd, Arg: 1},
		{Op: wire.OpFunnelTryAdd, Arg: 1},
		{Op: wire.OpFunnelLoad},
	}
	var req []byte
	for i := range burst {
		req = wire.AppendRequest(req, mix[i%len(mix)])
	}
	serve := func() {
		if _, err := c.conn.Write(req); err != nil {
			t.Fatalf("write burst: %v", err)
		}
		for i := range burst {
			rep, err := wire.ReadReply(c.br)
			if err != nil || (rep.Status != wire.StatusOK && rep.Status != wire.StatusEmpty) {
				t.Fatalf("reply %d: %+v %v", i, rep, err)
			}
		}
	}
	for range 256 { // settle the engines' free lists
		serve()
	}
	perReq := testing.AllocsPerRun(500, serve) / burst
	if perReq > 0.05 {
		t.Fatalf("a served pipelined request allocates %.3f times, ceiling 0.05", perReq)
	}
}
