package secd

// Serving-path hardening tests (DESIGN.md §14): deadline evictions,
// per-connection panic isolation, the handshake partial-session
// unwind, and injected read/write faults. Most run the handler over a
// net.Pipe - a synchronous in-process duplex conn with deadline
// support - so every path is reached deterministically, without
// betting on scheduler or kernel-buffer timing.

import (
	"bufio"
	"io"
	"net"
	"testing"
	"time"

	"secstack/internal/faultpoint"
	"secstack/internal/wire"
)

// pipeClient is the client end of a serveConn pipe, with the buffered
// reader its replies are decoded from.
type pipeClient struct {
	net.Conn
	br *bufio.Reader
}

// serveConn runs s.handle on one end of an in-process pipe, returning
// the client end and a channel closed when the handler exits.
func serveConn(t *testing.T, s *Server) (*pipeClient, chan struct{}) {
	t.Helper()
	c, srv := net.Pipe()
	cli := &pipeClient{Conn: c, br: bufio.NewReader(c)}
	s.mu.Lock()
	s.conns[srv] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
	done := make(chan struct{})
	go func() { s.handle(srv); close(done) }()
	t.Cleanup(func() {
		cli.Close()
		waitDone(t, done)
	})
	return cli, done
}

func waitDone(t *testing.T, done chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not exit")
	}
}

// shake performs the wire handshake on a pipe client.
func shake(t *testing.T, cli *pipeClient) wire.Reply {
	t.Helper()
	cli.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := cli.Write(wire.AppendRequest(nil, wire.Request{Op: wire.OpHello, Arg: wire.HelloArg()})); err != nil {
		t.Fatalf("hello write: %v", err)
	}
	rep, err := wire.ReadReply(cli.br)
	if err != nil {
		t.Fatalf("hello reply: %v", err)
	}
	return rep
}

// TestHandshakePanicUnwindsPartialSession is the session-leak
// regression for the handshake path: a panic injected between the
// first engine registration and the last must unwind the
// already-registered handles, so a full complement of sessions still
// fits afterwards and the gauge returns to zero.
func TestHandshakePanicUnwindsPartialSession(t *testing.T) {
	defer faultpoint.Reset()
	const maxSessions = 4
	s, err := New(Config{MaxSessions: maxSessions})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, site := range []string{FPRegisterPool, FPRegisterFunnel} {
		// Two panicking handshakes per site: were the partial handles
		// leaking, the complement check below would wedge at
		// maxSessions-2 slots.
		faultpoint.Arm(site, faultpoint.Spec{Action: faultpoint.ActPanic, Count: 2})
		for i := 0; i < 2; i++ {
			cli, done := serveConn(t, s)
			cli.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := cli.Write(wire.AppendRequest(nil, wire.Request{Op: wire.OpHello, Arg: wire.HelloArg()})); err != nil {
				t.Fatalf("%s hello %d: %v", site, i, err)
			}
			// The injected panic closes the conn without a reply.
			if _, err := wire.ReadReply(cli.br); err == nil {
				t.Fatalf("%s handshake %d: got a reply, want closed conn", site, i)
			}
			waitDone(t, done)
		}
		if got := faultpoint.Fires(site); got != 2 {
			t.Fatalf("%s fired %d times, want 2", site, got)
		}
		faultpoint.Disarm(site)
	}
	if got := s.Metrics().PanicsRecovered(); got != 4 {
		t.Fatalf("PanicsRecovered = %d, want 4", got)
	}
	if got := s.Metrics().Sessions(); got != 0 {
		t.Fatalf("session gauge = %d after panicking handshakes, want 0", got)
	}
	// Regression proper: every slot must still be available.
	for i := 0; i < maxSessions; i++ {
		cli, _ := serveConn(t, s)
		if rep := shake(t, cli); rep.Status != wire.StatusOK {
			t.Fatalf("post-panic handshake %d = %v (leaked handle slots)", i, rep.Status)
		}
	}
	if got := s.Metrics().Sessions(); got != maxSessions {
		t.Fatalf("session gauge = %d with a full complement, want %d", got, maxSessions)
	}
}

// TestHandshakeErrorUnwinds is the error twin: an injected
// registration error refuses the handshake with StatusBusy and leaks
// nothing.
func TestHandshakeErrorUnwinds(t *testing.T) {
	defer faultpoint.Reset()
	s, err := New(Config{MaxSessions: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	faultpoint.Arm(FPRegisterFunnel, faultpoint.Spec{Action: faultpoint.ActError, Count: 1})
	cli, _ := serveConn(t, s)
	if rep := shake(t, cli); rep.Status != wire.StatusBusy {
		t.Fatalf("injected-error handshake = %v, want busy", rep.Status)
	}
	if got := s.Metrics().Rejected(); got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	// Both slots still register cleanly.
	for i := 0; i < 2; i++ {
		cli, _ := serveConn(t, s)
		if rep := shake(t, cli); rep.Status != wire.StatusOK {
			t.Fatalf("handshake %d after injected error = %v", i, rep.Status)
		}
	}
}

// TestExecPanicIsolatedPerConnection injects a panic mid-operation:
// the connection dies, its handles recycle, other connections and the
// server live on.
func TestExecPanicIsolatedPerConnection(t *testing.T) {
	defer faultpoint.Reset()
	s, err := New(Config{MaxSessions: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	bystander, _ := serveConn(t, s)
	if rep := shake(t, bystander); rep.Status != wire.StatusOK {
		t.Fatalf("bystander handshake: %v", rep.Status)
	}

	victim, done := serveConn(t, s)
	if rep := shake(t, victim); rep.Status != wire.StatusOK {
		t.Fatalf("victim handshake: %v", rep.Status)
	}
	faultpoint.Arm(FPExec, faultpoint.Spec{Action: faultpoint.ActPanic, Count: 1})
	if _, err := victim.Write(wire.AppendRequest(nil, wire.Request{Op: wire.OpStackPush, Arg: 1})); err != nil {
		t.Fatalf("victim write: %v", err)
	}
	// The op never executes; the conn closes with no reply.
	victim.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadReply(victim.br); err == nil {
		t.Fatal("victim got a reply past an injected exec panic")
	}
	waitDone(t, done)
	if got := s.Metrics().PanicsRecovered(); got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
	if got := s.Metrics().Sessions(); got != 1 {
		t.Fatalf("session gauge = %d after victim died, want 1 (bystander)", got)
	}
	// The bystander session is untouched.
	bystander.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := bystander.Write(wire.AppendRequest(nil, wire.Request{Op: wire.OpFunnelAdd, Arg: 7})); err != nil {
		t.Fatalf("bystander write: %v", err)
	}
	if rep, err := wire.ReadReply(bystander.br); err != nil || rep.Status != wire.StatusOK {
		t.Fatalf("bystander op after victim panic: %+v %v", rep, err)
	}
}

// TestReadIdleEviction: a session that completes the handshake and
// goes silent is evicted once the read-idle budget lapses, releasing
// its handles.
func TestReadIdleEviction(t *testing.T) {
	s, err := New(Config{MaxSessions: 2, ReadIdle: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cli, done := serveConn(t, s)
	if rep := shake(t, cli); rep.Status != wire.StatusOK {
		t.Fatalf("handshake: %v", rep.Status)
	}
	// Silence. The server must hang up on its own.
	waitDone(t, done)
	if got := s.Metrics().Evictions(); got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	if got := s.Metrics().Sessions(); got != 0 {
		t.Fatalf("session gauge = %d after eviction, want 0", got)
	}
	// The evicted client's read surfaces the close.
	cli.SetDeadline(time.Now().Add(time.Second))
	if _, err := wire.ReadReply(cli.br); err == nil {
		t.Fatal("evicted connection still readable")
	}
}

// TestHalfOpenHandshakeEvicted: a peer that connects and never sends
// the Hello is evicted by the same budget - no session is ever
// registered, so nothing can leak.
func TestHalfOpenHandshakeEvicted(t *testing.T) {
	s, err := New(Config{MaxSessions: 2, ReadIdle: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, done := serveConn(t, s)
	waitDone(t, done)
	if got := s.Metrics().Evictions(); got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	if got := s.Metrics().Sessions(); got != 0 {
		t.Fatalf("session gauge = %d, want 0", got)
	}
}

// TestWriteStallEviction: a client that sends a request and then stops
// reading stalls the reply flush; the write budget evicts it. The
// synchronous pipe makes the stall immediate and deterministic.
func TestWriteStallEviction(t *testing.T) {
	s, err := New(Config{MaxSessions: 2, WriteStall: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cli, done := serveConn(t, s)
	if rep := shake(t, cli); rep.Status != wire.StatusOK {
		t.Fatalf("handshake: %v", rep.Status)
	}
	if _, err := cli.Write(wire.AppendRequest(nil, wire.Request{Op: wire.OpFunnelAdd, Arg: 1})); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Never read the reply: the server's flush blocks on the pipe until
	// the write-stall budget fires.
	waitDone(t, done)
	if got := s.Metrics().Evictions(); got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	if got := s.Metrics().Sessions(); got != 0 {
		t.Fatalf("session gauge = %d after write-stall eviction, want 0", got)
	}
	// The operation itself executed - only the ack stalled.
	if got := s.Funnel().Load(); got != 1 {
		t.Fatalf("funnel = %d, want 1", got)
	}
}

// TestWriteDropLeavesOpApplied pins the at-most-once hole client
// retries must tolerate: an acked-op drop means the op ran but the
// client never hears, so a retry would apply it twice.
func TestWriteDropLeavesOpApplied(t *testing.T) {
	defer faultpoint.Reset()
	s, err := New(Config{MaxSessions: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cli, _ := serveConn(t, s)
	if rep := shake(t, cli); rep.Status != wire.StatusOK {
		t.Fatalf("handshake: %v", rep.Status)
	}
	faultpoint.Arm(FPWrite, faultpoint.Spec{Action: faultpoint.ActDrop, Count: 1})
	if _, err := cli.Write(wire.AppendRequest(nil, wire.Request{Op: wire.OpFunnelAdd, Arg: 5})); err != nil {
		t.Fatalf("write: %v", err)
	}
	// No ack arrives for the dropped reply.
	cli.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := wire.ReadReply(cli.br); err == nil {
		t.Fatal("got an ack for a dropped reply")
	}
	// But the op applied, and the connection still serves.
	if got := s.Funnel().Load(); got != 5 {
		t.Fatalf("funnel = %d after dropped ack, want 5", got)
	}
	cli.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := cli.Write(wire.AppendRequest(nil, wire.Request{Op: wire.OpFunnelLoad})); err != nil {
		t.Fatalf("follow-up write: %v", err)
	}
	if rep, err := wire.ReadReply(cli.br); err != nil || rep.Value != 5 {
		t.Fatalf("follow-up load = %+v %v, want 5", rep, err)
	}
}

// TestRetryMarkCountsRetries covers the OpRetryMark telemetry path.
func TestRetryMarkCountsRetries(t *testing.T) {
	s, err := New(Config{MaxSessions: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cli, _ := serveConn(t, s)
	if rep := shake(t, cli); rep.Status != wire.StatusOK {
		t.Fatalf("handshake: %v", rep.Status)
	}
	for _, arg := range []int64{3, -9, 2} {
		if _, err := cli.Write(wire.AppendRequest(nil, wire.Request{Op: wire.OpRetryMark, Arg: arg})); err != nil {
			t.Fatalf("retry mark write: %v", err)
		}
		if rep, err := wire.ReadReply(cli.br); err != nil || rep.Status != wire.StatusOK {
			t.Fatalf("retry mark reply: %+v %v", rep, err)
		}
	}
	if got := s.Metrics().RetriesObserved(); got != 5 {
		t.Fatalf("RetriesObserved = %d, want 5 (negative marks ignored)", got)
	}
}

// TestInjectedReadFaultRecyclesSession: an injected read-path fault is
// an abrupt disconnect; the session's slots recycle.
func TestInjectedReadFaultRecyclesSession(t *testing.T) {
	defer faultpoint.Reset()
	s, err := New(Config{MaxSessions: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	faultpoint.Arm(FPRead, faultpoint.Spec{Action: faultpoint.ActError, Count: 1})
	cli, done := serveConn(t, s)
	if rep := shake(t, cli); rep.Status != wire.StatusOK {
		t.Fatalf("handshake: %v", rep.Status)
	}
	if _, err := cli.Write(wire.AppendRequest(nil, wire.Request{Op: wire.OpStackPush, Arg: 1})); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitDone(t, done)
	if got := s.Metrics().Sessions(); got != 0 {
		t.Fatalf("session gauge = %d, want 0", got)
	}
	// MaxSessions is 1: the slot must be free again.
	cli2, _ := serveConn(t, s)
	if rep := shake(t, cli2); rep.Status != wire.StatusOK {
		t.Fatalf("handshake after injected read fault = %v", rep.Status)
	}
}

// TestDrainDelayForceClose reaches Shutdown's force-close budget
// deterministically: an injected drain-path delay outlasts the budget,
// Shutdown reports the force close, and the gauge still ends at zero.
func TestDrainDelayForceClose(t *testing.T) {
	defer faultpoint.Reset()
	s, err := New(Config{MaxSessions: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(lis) }()
	c := dialClient(t, lis.Addr().String())
	defer c.close()
	c.do(t, wire.OpStackPush, 1)

	faultpoint.Arm(FPDrain, faultpoint.Spec{Action: faultpoint.ActDelay, Delay: 300 * time.Millisecond})
	if err := s.Shutdown(50 * time.Millisecond); err == nil {
		t.Fatal("Shutdown returned nil, want force-close error")
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve after forced drain: %v", err)
	}
	if got := s.Metrics().Sessions(); got != 0 {
		t.Fatalf("session gauge = %d after force close, want 0", got)
	}
}

// TestAcceptFaultClosesEarly: an injected accept-time failure closes
// the conn before it can handshake; the next connection is served.
func TestAcceptFaultClosesEarly(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.Arm(FPAccept, faultpoint.Spec{Action: faultpoint.ActError, Count: 1})
	_, addr := startServer(t, Config{})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// No hello: a server that closes a socket holding unread bytes
	// answers with a reset instead of EOF, and whether the hello had
	// arrived by the close would be a race.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil && err != io.EOF {
		t.Fatalf("read on injected-accept conn: %v", err)
	}
	c := dialClient(t, addr)
	defer c.close()
	if c.hi.Status != wire.StatusOK {
		t.Fatalf("handshake after accept fault = %v", c.hi.Status)
	}
}
