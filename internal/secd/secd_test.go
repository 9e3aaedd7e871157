package secd

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secstack/internal/wire"
	"secstack/stack"
)

// startServer launches a server on a loopback port and returns it with
// its address; cleanup shuts it down.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(lis) }()
	t.Cleanup(func() {
		if err := s.Shutdown(5 * time.Second); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, lis.Addr().String()
}

// client is a minimal test-side protocol client.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	hi   wire.Reply // handshake reply
}

func dialClient(t *testing.T, addr string) *client {
	t.Helper()
	c, err := dialRaw(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return c
}

func dialRaw(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &client{conn: conn, br: bufio.NewReader(conn)}
	if _, err := conn.Write(wire.AppendRequest(nil, wire.Request{Op: wire.OpHello, Arg: wire.HelloArg()})); err != nil {
		conn.Close()
		return nil, err
	}
	rep, err := wire.ReadReply(c.br)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.hi = rep
	return c, nil
}

func (c *client) do(t *testing.T, op wire.Op, arg int64) wire.Reply {
	t.Helper()
	rep, err := c.tryDo(op, arg)
	if err != nil {
		t.Fatalf("%v(%d): %v", op, arg, err)
	}
	return rep
}

func (c *client) tryDo(op wire.Op, arg int64) (wire.Reply, error) {
	if _, err := c.conn.Write(wire.AppendRequest(nil, wire.Request{Op: op, Arg: arg})); err != nil {
		return wire.Reply{}, err
	}
	return wire.ReadReply(c.br)
}

func (c *client) close() { c.conn.Close() }

// waitSessions polls the live-session gauge until it reaches want.
func waitSessions(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Metrics().Sessions() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("sessions = %d, want %d (handle slots leaked?)", s.Metrics().Sessions(), want)
}

func TestServeRoundTrips(t *testing.T) {
	s, addr := startServer(t, Config{Adaptive: true})
	c := dialClient(t, addr)
	defer c.close()

	if c.hi.Status != wire.StatusOK {
		t.Fatalf("handshake status %v", c.hi.Status)
	}
	// Stack: LIFO through one session.
	c.do(t, wire.OpStackPush, 10)
	c.do(t, wire.OpStackPush, 20)
	if rep := c.do(t, wire.OpStackPeek, 0); rep.Status != wire.StatusOK || rep.Value != 20 {
		t.Fatalf("peek = %+v", rep)
	}
	if rep := c.do(t, wire.OpStackPop, 0); rep.Status != wire.StatusOK || rep.Value != 20 {
		t.Fatalf("pop = %+v", rep)
	}
	if rep := c.do(t, wire.OpStackPop, 0); rep.Status != wire.StatusOK || rep.Value != 10 {
		t.Fatalf("pop = %+v", rep)
	}
	if rep := c.do(t, wire.OpStackPop, 0); rep.Status != wire.StatusEmpty {
		t.Fatalf("pop on empty = %+v", rep)
	}
	// Pool: put/get some element.
	c.do(t, wire.OpPoolPut, 77)
	if rep := c.do(t, wire.OpPoolGet, 0); rep.Status != wire.StatusOK || rep.Value != 77 {
		t.Fatalf("pool get = %+v", rep)
	}
	if rep := c.do(t, wire.OpPoolGet, 0); rep.Status != wire.StatusEmpty {
		t.Fatalf("pool get on empty = %+v", rep)
	}
	// Funnel: the served counter.
	if rep := c.do(t, wire.OpFunnelAdd, 5); rep.Status != wire.StatusOK || rep.Value != 0 {
		t.Fatalf("funnel add = %+v", rep)
	}
	if rep := c.do(t, wire.OpFunnelLoad, 0); rep.Status != wire.StatusOK || rep.Value != 5 {
		t.Fatalf("funnel load = %+v", rep)
	}
	// TryAdd: single client, must apply.
	rep := c.do(t, wire.OpFunnelTryAdd, 3)
	if rep.Status != wire.StatusOK && rep.Status != wire.StatusContended {
		t.Fatalf("funnel tryadd = %+v", rep)
	}
	// Stats: one live session (this one).
	if rep := c.do(t, wire.OpStats, 0); rep.Status != wire.StatusOK || rep.Value != 1 {
		t.Fatalf("stats = %+v", rep)
	}
	if got := s.Metrics().TotalOps(); got < 10 {
		t.Fatalf("TotalOps = %d, want >= 10", got)
	}
	if op := s.Metrics().Op(int(wire.OpStackPush)); op.Count != 2 || op.P99 < op.P50 {
		t.Fatalf("push op stats = %+v", op)
	}
}

func TestBannerMatchesRegistry(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dialClient(t, addr)
	defer c.close()

	banner := c.hi.Banner
	if banner == "" {
		t.Fatal("handshake carried no banner")
	}
	// The registry= field must list stack.New's registry names exactly:
	// the stack package's registry is the single source of truth shared
	// with secbench/seccheck's -list pass.
	var reg string
	for _, f := range strings.Fields(banner) {
		if v, ok := strings.CutPrefix(f, "registry="); ok {
			reg = v
		}
	}
	want := make([]string, 0)
	for _, a := range stack.Algorithms() {
		want = append(want, string(a))
	}
	if reg != strings.Join(want, ",") {
		t.Fatalf("banner registry %q != stack registry %q", reg, strings.Join(want, ","))
	}
	// Every registry name must construct through stack.New - the banner
	// never advertises an algorithm the switch cannot build.
	for _, a := range stack.Algorithms() {
		if _, err := stack.New[int64](a); err != nil {
			t.Fatalf("banner advertises %s but stack.New fails: %v", a, err)
		}
	}
}

func TestHandshakeRequired(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// First frame is an op, not a Hello: the server answers BadRequest
	// and closes.
	if _, err := conn.Write(wire.AppendRequest(nil, wire.Request{Op: wire.OpStackPush, Arg: 1})); err != nil {
		t.Fatalf("write: %v", err)
	}
	rep, err := wire.ReadReply(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if rep.Status != wire.StatusBadRequest {
		t.Fatalf("status = %v, want bad-request", rep.Status)
	}
}

func TestBackpressureAtMaxSessions(t *testing.T) {
	s, addr := startServer(t, Config{MaxSessions: 4})
	clients := make([]*client, 0, 4)
	for i := 0; i < 4; i++ {
		c := dialClient(t, addr)
		defer c.close()
		if c.hi.Status != wire.StatusOK {
			t.Fatalf("handshake %d: %v", i, c.hi.Status)
		}
		clients = append(clients, c)
	}
	waitSessions(t, s, 4)

	// The fifth session is refused with backpressure, not a crash.
	over, err := dialRaw(addr)
	if err != nil {
		t.Fatalf("dial over capacity: %v", err)
	}
	defer over.close()
	if over.hi.Status != wire.StatusBusy {
		t.Fatalf("over-capacity handshake = %v, want busy", over.hi.Status)
	}
	if got := s.Metrics().Rejected(); got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}

	// Closing one connection recycles its slot for a new session.
	clients[0].close()
	waitSessions(t, s, 3)
	again := dialClient(t, addr)
	defer again.close()
	if again.hi.Status != wire.StatusOK {
		t.Fatalf("handshake after slot recycle = %v", again.hi.Status)
	}
}

// TestAbruptDisconnectChurn is the served mirror of the engine packages'
// HandleChurn tests: waves of connections are killed mid-op (no
// goodbye, TCP close under in-flight traffic) and every wave must get
// all its slots back - MaxSessions bounds live connections, not
// lifetime connections, because disconnect closes the session's engine
// handles and their thread-id slots recycle.
func TestAbruptDisconnectChurn(t *testing.T) {
	const maxSessions = 8
	waves := 4
	if testing.Short() {
		waves = 2
	}
	s, addr := startServer(t, Config{MaxSessions: maxSessions, Adaptive: true})

	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		// Fill every session slot and keep ops in flight when the kill
		// lands.
		for i := 0; i < maxSessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := dialRaw(addr)
				if err != nil {
					t.Errorf("wave %d conn %d: %v", wave, i, err)
					return
				}
				defer c.close()
				if c.hi.Status != wire.StatusOK {
					t.Errorf("wave %d conn %d handshake: %v", wave, i, c.hi.Status)
					return
				}
				ops := []wire.Request{
					{Op: wire.OpStackPush, Arg: int64(wave<<16 | i)},
					{Op: wire.OpPoolPut, Arg: int64(i)},
					{Op: wire.OpFunnelAdd, Arg: 1},
					{Op: wire.OpStackPop},
					{Op: wire.OpPoolGet},
				}
				for k := 0; ; k++ {
					if _, err := c.tryDo(ops[k%len(ops)].Op, ops[k%len(ops)].Arg); err != nil {
						return // killed mid-op: expected
					}
					if k == 20+i {
						// Abrupt close with a request possibly half-served;
						// no protocol goodbye.
						c.close()
						return
					}
				}
			}(i)
		}
		wg.Wait()
		// Every slot must come back; a single leaked handle would wedge
		// the next wave at maxSessions-1.
		waitSessions(t, s, 0)
	}

	// After all the churn, a full complement of sessions must still
	// fit: nothing leaked across waves.
	final := make([]*client, 0, maxSessions)
	for i := 0; i < maxSessions; i++ {
		c := dialClient(t, addr)
		defer c.close()
		if c.hi.Status != wire.StatusOK {
			t.Fatalf("post-churn handshake %d: %v", i, c.hi.Status)
		}
		final = append(final, c)
	}
	waitSessions(t, s, maxSessions)
	for _, c := range final {
		c.close()
	}
	waitSessions(t, s, 0)
}

func TestPipelinedBurstCoalesces(t *testing.T) {
	s, addr := startServer(t, Config{Adaptive: true})
	c := dialClient(t, addr)
	defer c.close()

	// Send a burst of pipelined requests in one write, then read all
	// replies: order must hold and every push must be answered.
	const burst = 128
	var buf []byte
	for i := 0; i < burst; i++ {
		buf = wire.AppendRequest(buf, wire.Request{Op: wire.OpFunnelAdd, Arg: 1})
	}
	if _, err := c.conn.Write(buf); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	seen := make(map[int64]bool)
	for i := 0; i < burst; i++ {
		rep, err := wire.ReadReply(c.br)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if rep.Status != wire.StatusOK {
			t.Fatalf("reply %d status %v", i, rep.Status)
		}
		if seen[rep.Value] {
			t.Fatalf("fetch-add value %d returned twice", rep.Value)
		}
		seen[rep.Value] = true
	}
	if got := s.Funnel().Load(); got != burst {
		t.Fatalf("funnel = %d after %d adds", got, burst)
	}
}

func TestGracefulDrain(t *testing.T) {
	s, err := New(Config{})
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

	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}
	// The idle client gets a shutdown goodbye, then EOF.
	rep, err := wire.ReadReply(c.br)
	if err == nil && rep.Status != wire.StatusShutdown {
		t.Fatalf("drain goodbye = %+v", rep)
	}
	// All handles came back before Shutdown returned.
	if got := s.Metrics().Sessions(); got != 0 {
		t.Fatalf("sessions after drain = %d", got)
	}
	// New connections are refused: the listener is closed.
	if _, err := dialRaw(lis.Addr().String()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestGracefulDrainActiveClient: Shutdown drains a client that keeps
// sending. Shutdown wakes blocked reads by setting their deadline to
// now; a handler between reads when that lands arms its next read's
// idle deadline, and unless it re-checks draining after arming, it keeps
// serving the client until the force-close budget runs out. Each round
// lands Shutdown at another point of the client's loop.
func TestGracefulDrainActiveClient(t *testing.T) {
	const (
		rounds = 8
		budget = time.Second
	)
	for r := range rounds {
		s, err := New(Config{})
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

		var served atomic.Int64
		ended := make(chan error, 1)
		go func() {
			for {
				rep, err := c.tryDo(wire.OpFunnelAdd, 1)
				switch {
				case err == io.EOF || (err == nil && rep.Status == wire.StatusShutdown):
					ended <- nil
					return
				case err != nil:
					ended <- err
					return
				case rep.Status != wire.StatusOK:
					ended <- fmt.Errorf("status %v", rep.Status)
					return
				}
				served.Add(1)
			}
		}()
		for deadline := time.Now().Add(5 * time.Second); served.Load() < 100; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: client served only %d requests", r, served.Load())
			}
		}

		start := time.Now()
		err = s.Shutdown(budget)
		took := time.Since(start)
		cerr := <-ended
		c.close()
		if err != nil {
			t.Fatalf("round %d: Shutdown after %v: %v", r, took, err)
		}
		if cerr != nil {
			t.Fatalf("round %d: client ended on %v, want StatusShutdown or EOF", r, cerr)
		}
		if err := <-serveErr; err != nil {
			t.Fatalf("round %d: Serve: %v", r, err)
		}
		if got := s.Metrics().Sessions(); got != 0 {
			t.Fatalf("round %d: sessions after drain = %d", r, got)
		}
	}
}

func TestConcurrentClientsConserveElements(t *testing.T) {
	conns := 16
	opsPer := 300
	if testing.Short() {
		conns, opsPer = 8, 100
	}
	s, addr := startServer(t, Config{MaxSessions: conns, Adaptive: true})

	var wg sync.WaitGroup
	pushed := make([]int64, conns) // per-conn successful puts
	popped := make([]int64, conns) // per-conn successful gets
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := dialRaw(addr)
			if err != nil {
				t.Errorf("conn %d: %v", i, err)
				return
			}
			defer c.close()
			if c.hi.Status != wire.StatusOK {
				t.Errorf("conn %d handshake: %v", i, c.hi.Status)
				return
			}
			for k := 0; k < opsPer; k++ {
				if k%2 == 0 {
					rep, err := c.tryDo(wire.OpPoolPut, int64(i)<<32|int64(k))
					if err != nil || rep.Status != wire.StatusOK {
						t.Errorf("conn %d put: %v %v", i, rep.Status, err)
						return
					}
					pushed[i]++
				} else {
					rep, err := c.tryDo(wire.OpPoolGet, 0)
					if err != nil {
						t.Errorf("conn %d get: %v", i, err)
						return
					}
					if rep.Status == wire.StatusOK {
						popped[i]++
					}
				}
			}
		}(i)
	}
	wg.Wait()
	var nPushed, nPopped int64
	for i := range pushed {
		nPushed += pushed[i]
		nPopped += popped[i]
	}
	// Whatever was not popped must still be in the pool.
	drain := dialClient(t, addr)
	defer drain.close()
	var rest int64
	for {
		rep := drain.do(t, wire.OpPoolGet, 0)
		if rep.Status == wire.StatusEmpty {
			break
		}
		rest++
	}
	if nPopped+rest != nPushed {
		t.Fatalf("conservation: pushed %d, popped %d + drained %d", nPushed, nPopped, rest)
	}
	_ = s
}

func TestServeAfterShutdownFails(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	if err := s.Serve(lis); err == nil {
		t.Fatal("Serve accepted work after Shutdown")
	}
}

func TestNewRejectsUnknownAlgorithm(t *testing.T) {
	if _, err := New(Config{Algorithm: stack.Algorithm("NOPE")}); err == nil {
		t.Fatal("New accepted an unknown algorithm")
	}
}

// TestServedBatching documents the tentpole's point: fan-in from many
// connections reaches the engine as batched work. With metrics off at
// the engine level we assert the observable proxy - many concurrent
// sessions complete while the funnel stays exact.
func TestServedBatching(t *testing.T) {
	conns := 12
	addsPer := 200
	if testing.Short() {
		conns, addsPer = 6, 50
	}
	s, addr := startServer(t, Config{MaxSessions: conns, Adaptive: true})
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dialRaw(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.close()
			for k := 0; k < addsPer; k++ {
				if rep, err := c.tryDo(wire.OpFunnelAdd, 1); err != nil || rep.Status != wire.StatusOK {
					t.Errorf("add: %v %v", rep.Status, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := s.Funnel().Load(), int64(conns*addsPer); got != want {
		t.Fatalf("funnel = %d, want %d", got, want)
	}
	if peak := s.Metrics().PeakSessions(); peak < 2 {
		t.Fatalf("peak sessions = %d, want concurrent fan-in", peak)
	}
}

func ExampleBanner() {
	fmt.Println(Banner(Config{MaxSessions: 64}))
	// Output: secd/2 alg=SEC registry=SEC,TRB,EB,FC,CC,TSI maxsessions=64 shards=4
}
