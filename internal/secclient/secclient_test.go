package secclient

import (
	"errors"
	"net"
	"testing"
	"time"

	"secstack/internal/faultpoint"
	"secstack/internal/secd"
	"secstack/internal/wire"
	"secstack/internal/xrand"
)

// startServer runs a secd server on a loopback listener and returns
// it with its address.
func startServer(t *testing.T, cfg secd.Config) (*secd.Server, string) {
	t.Helper()
	s, err := secd.New(cfg)
	if err != nil {
		t.Fatalf("secd.New: %v", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(lis) }()
	t.Cleanup(func() {
		if err := s.Shutdown(2 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return s, lis.Addr().String()
}

// fastCfg keeps retry budgets small so failure tests stay quick.
func fastCfg(addr string) Config {
	return Config{
		Addr:           addr,
		DialTimeout:    2 * time.Second,
		RequestTimeout: 2 * time.Second,
		Retries:        3,
		BackoffBase:    time.Millisecond,
		BackoffMax:     8 * time.Millisecond,
	}
}

func TestDialAndDo(t *testing.T) {
	_, addr := startServer(t, secd.Config{MaxSessions: 2})
	c, err := Dial(fastCfg(addr))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if c.Banner() == "" {
		t.Fatal("empty handshake banner")
	}
	if rep, err := c.Do(wire.OpFunnelAdd, 7); err != nil || rep.Status != wire.StatusOK {
		t.Fatalf("FunnelAdd: %+v %v", rep, err)
	}
	if rep, err := c.Do(wire.OpFunnelLoad, 0); err != nil || rep.Value != 7 {
		t.Fatalf("FunnelLoad: %+v %v", rep, err)
	}
	if rep, err := c.Do(wire.OpStackPop, 0); err != nil || rep.Status != wire.StatusEmpty {
		t.Fatalf("empty pop should surface StatusEmpty, got %+v %v", rep, err)
	}
	st := c.Stats()
	if st.Dials != 1 || st.Redials != 0 || st.Retries != 0 || st.Lost != 0 {
		t.Fatalf("stats = %+v, want one clean dial", st)
	}
}

// TestAllocCeilingDo: a served round trip allocates nothing, on the
// client or on the in-process server: the request is encoded into the
// client's reused buffer, and both ends decode in place from their
// buffered readers.
func TestAllocCeilingDo(t *testing.T) {
	_, addr := startServer(t, secd.Config{Adaptive: true})
	c, err := Dial(fastCfg(addr))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ops := []wire.Op{wire.OpStackPush, wire.OpStackPop, wire.OpPoolPut, wire.OpPoolGet, wire.OpFunnelAdd}
	i := 0
	do := func() {
		op := ops[i%len(ops)]
		i++
		if rep, err := c.Do(op, 1); err != nil || rep.Status != wire.StatusOK {
			t.Fatalf("%v: %+v %v", op, rep, err)
		}
	}
	for range 500 { // settle the engines' free lists and EBR epochs
		do()
	}
	if perOp := testing.AllocsPerRun(1000, do); perOp > 0.05 {
		t.Fatalf("a served round trip allocates %.3f times, ceiling 0.05", perOp)
	}
}

func TestDialBusyIsImmediate(t *testing.T) {
	_, addr := startServer(t, secd.Config{MaxSessions: 1})
	holder, err := Dial(fastCfg(addr))
	if err != nil {
		t.Fatalf("holder dial: %v", err)
	}
	defer holder.Close()
	if _, err := Dial(fastCfg(addr)); !errors.Is(err, ErrBusy) {
		t.Fatalf("second dial = %v, want ErrBusy", err)
	}
}

// TestReconnectReplaysAndMarks: an injected server-side read fault
// kills the connection mid-stream; the client redials, reports the
// replay via OpRetryMark, and the retried op succeeds.
func TestReconnectReplaysAndMarks(t *testing.T) {
	defer faultpoint.Reset()
	s, addr := startServer(t, secd.Config{MaxSessions: 2})
	c, err := Dial(fastCfg(addr))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	faultpoint.Arm(secd.FPRead, faultpoint.Spec{Action: faultpoint.ActError, Count: 1})
	rep, err := c.Do(wire.OpFunnelAdd, 5)
	if err != nil || rep.Status != wire.StatusOK {
		t.Fatalf("Do across injected disconnect: %+v %v", rep, err)
	}
	st := c.Stats()
	if st.Redials != 1 || st.Retries != 1 || st.Lost != 0 {
		t.Fatalf("stats = %+v, want one redial and one retry", st)
	}
	if got := s.Metrics().RetriesObserved(); got != 1 {
		t.Fatalf("server RetriesObserved = %d, want 1 (the OpRetryMark)", got)
	}
	if got := s.Funnel().Load(); got != 5 {
		t.Fatalf("funnel = %d, want 5 (the op never executed before the fault)", got)
	}
}

// TestRequestTimeoutRetries: an injected exec delay outlasts the
// per-request budget once; the retry lands on the now-clean path.
func TestRequestTimeoutRetries(t *testing.T) {
	defer faultpoint.Reset()
	_, addr := startServer(t, secd.Config{MaxSessions: 2})
	cfg := fastCfg(addr)
	cfg.RequestTimeout = 100 * time.Millisecond
	c, err := Dial(cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	faultpoint.Arm(secd.FPExec, faultpoint.Spec{Action: faultpoint.ActDelay, Delay: 400 * time.Millisecond, Count: 1})
	rep, err := c.Do(wire.OpStackPush, 9)
	if err != nil || rep.Status != wire.StatusOK {
		t.Fatalf("Do across injected stall: %+v %v", rep, err)
	}
	if st := c.Stats(); st.Retries < 1 || st.Lost != 0 {
		t.Fatalf("stats = %+v, want at least one retry and nothing lost", st)
	}
}

// TestBudgetExhaustedIsLost: with the server gone entirely, Do burns
// its budget and reports the op lost.
func TestBudgetExhaustedIsLost(t *testing.T) {
	s, addr := startServer(t, secd.Config{MaxSessions: 2})
	c, err := Dial(fastCfg(addr))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	// Kill the server out from under the client. Shutdown is
	// idempotent enough for the cleanup to re-run it.
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := c.Do(wire.OpStackPush, 1); !errors.Is(err, ErrLost) {
		t.Fatalf("Do against a dead server = %v, want ErrLost", err)
	}
	st := c.Stats()
	if st.Lost != 1 || st.Retries != 3 {
		t.Fatalf("stats = %+v, want Lost=1 Retries=3", st)
	}
}

// TestBackoffBounded: the jittered backoff never exceeds the cap and
// never goes negative, across the whole attempt range.
func TestBackoffBounded(t *testing.T) {
	cfg := Config{Addr: "127.0.0.1:1", BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond}.withDefaults()
	c := &Client{cfg: cfg}
	c.rng = xrand.New(1)
	for attempt := 1; attempt < 20; attempt++ {
		start := time.Now()
		c.backoff(attempt)
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("backoff(%d) slept %v, cap is %v", attempt, d, cfg.BackoffMax)
		}
	}
}
