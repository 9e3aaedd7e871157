// Package secd implements the network front-end that exposes the
// repository's engines - a stack, a pool and a funnel - as a TCP
// service speaking the internal/wire framing (DESIGN.md §11).
//
// The server exists to turn connection fan-in into engine batches:
// thousands of concurrent RPCs dispatching into the sharded-batching
// engine become exactly the aggregation the freeze/combine protocol is
// built to absorb, so a few frozen batches serve whole swarms of
// clients. The mapping is one session per connection:
//
//   - The handshake TryRegisters one handle on each engine. MaxSessions
//     (the engines' MaxThreads) therefore bounds live connections, and
//     exhaustion is answered with a StatusBusy reply - protocol-level
//     backpressure instead of a crash.
//   - Each connection is served by one goroutine that reads, executes
//     and replies in order, so engine handles keep their single-
//     goroutine contract without locking.
//   - Replies are coalesced: they accumulate in a buffered writer that
//     is flushed only when no complete request is left in the read
//     buffer, so a pipelining client pays one syscall per burst, not
//     per op.
//   - Disconnects - clean or abrupt - close the session's handles,
//     recycling their thread-id slots; connection churn can never leak
//     MaxSessions capacity.
//   - Shutdown drains gracefully: the listener closes, every
//     connection's pending operation completes and flushes, each
//     client gets a StatusShutdown goodbye, and Shutdown returns once
//     the live-session gauge is back to zero.
//
// The serving path is hardened against misbehaving clients and
// injected faults (DESIGN.md §14): every read that can reach the socket
// carries an idle deadline and every flush a write-stall budget, so
// half-open or stalled peers are evicted instead of holding session
// slots forever; a panic anywhere in a connection's handler -
// handshake included - is recovered per connection, closing the conn
// and releasing all of the session's engine handles so thread-id slots
// recycle; and the named faultpoint sites below let tests and the
// chaos tooling reach each of those paths deterministically.
package secd

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"secstack/funnel"
	"secstack/internal/faultpoint"
	"secstack/internal/metrics"
	"secstack/internal/wire"
	"secstack/pool"
	"secstack/stack"
)

// The server's fault-injection sites (internal/faultpoint). Disarmed -
// the production state - each is one atomic load.
const (
	// FPAccept fires right after Accept, before the connection joins
	// the drain set: the server closes it immediately (an accept-time
	// resource failure).
	FPAccept = "secd.accept"
	// FPRegisterPool and FPRegisterFunnel fire between the session's
	// engine registrations - after the stack handle exists, and after
	// the pool handle exists, respectively. ActError refuses the
	// handshake with StatusBusy; ActPanic exercises the partial-session
	// unwind (no handle may leak).
	FPRegisterPool   = "secd.register.pool"
	FPRegisterFunnel = "secd.register.funnel"
	// FPRead fires after each successfully decoded request; any fault
	// is treated as an abrupt disconnect (ActPanic instead exercises
	// the per-connection recovery).
	FPRead = "secd.read"
	// FPExec fires just before a request executes against the engines.
	// ActPanic is the canonical mid-operation crash; other faults close
	// the connection before the op runs (so the client never gets an
	// ack and must retry).
	FPExec = "secd.exec"
	// FPWrite fires before a reply is written. ActDrop executes the op
	// but silently discards the ack - the at-most-once hole client
	// retries must tolerate; other faults close the connection
	// mid-stream.
	FPWrite = "secd.write"
	// FPDrain fires in the drain goodbye path (ActDelay stretches the
	// drain so Shutdown's force-close budget is reachable in tests).
	FPDrain = "secd.drain"
)

// Config sizes the served engines. The zero value is usable: SEC with
// the paper's defaults, 256 sessions, 4 pool shards.
type Config struct {
	// Algorithm is the served stack algorithm (default SEC). The pool
	// and funnel always run on the SEC engine.
	Algorithm stack.Algorithm
	// MaxSessions bounds concurrently live connections; it is the
	// MaxThreads of every engine (default 256). Handshakes beyond it
	// receive StatusBusy.
	MaxSessions int
	// Aggregators is the stack's and funnel's shard count (default 2,
	// the paper's default).
	Aggregators int
	// Shards is the pool's shard count (default 4).
	Shards int
	// Adaptive enables the engines' contention adaptivity and batch
	// recycling (DESIGN.md §8): idle connections cost one CAS per op,
	// fan-in freezes batches. On by default in cmd/secd.
	Adaptive bool
	// Elastic enables the pool's elastic shard controller (Shards
	// becomes the ceiling) and wires the server's live-session gauge in
	// as its external grow signal, so a connection wave widens the pool
	// before steal convoys form (DESIGN.md §13).
	Elastic bool
	// ReadIdle is the per-connection read-idle budget: a session that
	// sends no request for this long - a half-open peer, a stalled
	// client - is evicted, releasing its engine handles (counted in
	// Metrics().Evictions()). Default 2m; negative disables.
	ReadIdle time.Duration
	// WriteStall is the per-flush write budget: a connection whose
	// client stops reading long enough to backpressure a reply flush
	// past this budget is evicted. Default 10s; negative disables.
	WriteStall time.Duration
}

func (c Config) withDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = stack.SEC
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.Aggregators <= 0 {
		c.Aggregators = 2
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.ReadIdle == 0 {
		c.ReadIdle = 2 * time.Minute
	}
	if c.ReadIdle < 0 {
		c.ReadIdle = 0
	}
	if c.WriteStall == 0 {
		c.WriteStall = 10 * time.Second
	}
	if c.WriteStall < 0 {
		c.WriteStall = 0
	}
	return c
}

// Server fronts one stack, one pool and one funnel instance. Construct
// with New, start with Serve or ListenAndServe, stop with Shutdown.
type Server struct {
	cfg    Config
	banner string
	st     stack.Stack[int64]
	pl     *pool.Pool[int64]
	fn     *funnel.Funnel
	m      *metrics.Server

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup // one count per accepted connection
}

// New builds the engines and returns an unstarted server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	common := []stack.Option{
		stack.WithMaxThreads(cfg.MaxSessions),
		stack.WithAggregators(cfg.Aggregators),
	}
	if cfg.Adaptive {
		common = append(common,
			stack.WithAdaptive(true),
			stack.WithBatchRecycling(true),
			stack.WithRecycling(),
		)
	}
	st, err := stack.New[int64](cfg.Algorithm, common...)
	if err != nil {
		return nil, fmt.Errorf("secd: %w", err)
	}
	poolOpts := append([]pool.Option{pool.WithShards(cfg.Shards)}, common...)
	if cfg.Elastic {
		poolOpts = append(poolOpts, pool.WithElasticShards(true))
	}
	fnOpts := append([]funnel.Option{}, common...)
	s := &Server{
		cfg:   cfg,
		st:    st,
		pl:    pool.New[int64](poolOpts...),
		fn:    funnel.New(fnOpts...),
		m:     metrics.NewServer(wire.NumOps),
		conns: make(map[net.Conn]struct{}),
	}
	if cfg.Elastic {
		// One session per connection, so the live-session gauge is the
		// offered parallelism: the controller grows the pool toward the
		// connection count without waiting for steal misses.
		s.pl.SetLoadSignal(func() int { return int(s.m.Sessions()) })
	}
	s.banner = Banner(cfg)
	return s, nil
}

// Banner renders the handshake banner for cfg. The registry= field
// lists stack.Algorithms() verbatim - the registry package is the
// single source of truth, shared with secbench/seccheck's -list pass -
// so a client can discover what a rebuilt server could serve.
func Banner(cfg Config) string {
	cfg = cfg.withDefaults()
	names := make([]string, 0, len(stack.Algorithms()))
	for _, a := range stack.Algorithms() {
		names = append(names, string(a))
	}
	return fmt.Sprintf("secd/%d alg=%s registry=%s maxsessions=%d shards=%d",
		wire.Version, cfg.Algorithm, strings.Join(names, ","), cfg.MaxSessions, cfg.Shards)
}

// Metrics returns the serving-side collector: live-session and
// in-flight gauges, rejection counter, per-op latency.
func (s *Server) Metrics() *metrics.Server { return s.m }

// Funnel returns the served funnel, whose counter doubles as the
// service's rate-limiter state; tests and embedders read it directly.
func (s *Server) Funnel() *funnel.Funnel { return s.fn }

// Addr returns the listening address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// ListenAndServe listens on addr (":7425"-style) and serves until
// Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections on lis until Shutdown closes it; it
// returns nil after a graceful drain, or the first accept error
// otherwise.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		lis.Close()
		return fmt.Errorf("secd: server already shut down")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		if faultpoint.Hit(FPAccept) != nil {
			// Injected accept-time failure: the conn never joins the
			// drain set; the client sees an immediate close and retries.
			conn.Close()
			continue
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Shutdown drains the server: no new connections, every live
// connection finishes its in-flight operation, flushes its replies,
// receives a StatusShutdown goodbye and closes - recycling its
// engine handles. It returns nil once every session is gone, or an
// error if timeout passed first (connections are then force-closed).
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	s.draining = true
	lis := s.lis
	for c := range s.conns {
		// Interrupt blocked reads; the handler sees a deadline error,
		// not a mid-frame state, because a request is consumed only
		// once it is whole. A handler between reads sees draining when
		// it arms its next one (armRead).
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		s.mu.Lock()
		n := len(s.conns)
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return fmt.Errorf("secd: drain timed out, force-closed %d connections", n)
	}
}

// session is one connection's engine handles, registered at handshake
// and closed on disconnect so the thread-id slots recycle.
type session struct {
	st stack.Handle[int64]
	pl *pool.Handle[int64]
	fn *funnel.Handle
}

// register maps a connection onto the engines, unwinding cleanly on
// exhaustion so a refused handshake leaks nothing. The unwind also
// covers panics: a crash between the first TryRegister and the last -
// reachable via the FPRegister* sites - closes every handle already
// taken before the panic continues to the per-connection recovery, so
// a failed handshake can never leak thread-id slots toward MaxThreads
// exhaustion.
func (s *Server) register() (_ *session, err error) {
	sess := &session{}
	defer func() {
		if r := recover(); r != nil {
			sess.close()
			panic(r)
		}
	}()
	if sess.st, err = s.st.TryRegister(); err != nil {
		return nil, err
	}
	if err = faultpoint.Hit(FPRegisterPool); err == nil {
		sess.pl, err = s.pl.TryRegister()
	}
	if err != nil {
		sess.close()
		return nil, err
	}
	if err = faultpoint.Hit(FPRegisterFunnel); err == nil {
		sess.fn, err = s.fn.TryRegister()
	}
	if err != nil {
		sess.close()
		return nil, err
	}
	return sess, nil
}

// close releases whichever engine handles the session holds; partial
// sessions (a handshake that failed or panicked midway) are fine.
// Idempotent: each handle's Close already is.
func (sess *session) close() {
	if sess.fn != nil {
		sess.fn.Close()
	}
	if sess.pl != nil {
		sess.pl.Close()
	}
	if sess.st != nil {
		sess.st.Close()
	}
}

// removeConn drops conn from the drain set.
func (s *Server) removeConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// handle serves one connection: handshake, then read/execute/reply in
// order until disconnect, eviction or drain.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		// Per-connection panic isolation: by the time this recover runs,
		// the deferred session close and conn close registered below it
		// have already released every engine handle and the socket, so a
		// panicking connection - injected or real - costs the process one
		// counter tick, never a thread-id slot.
		if r := recover(); r != nil {
			s.m.RecordPanic()
		}
	}()
	defer s.removeConn(conn)
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // frames are tiny and flushed deliberately
	}
	br := bufio.NewReaderSize(conn, 4096)
	bw := bufio.NewWriterSize(conn, 4096)

	// Handshake: the first frame must be a versioned Hello, and it must
	// arrive within the read-idle budget - a connect-then-silence peer
	// is the simplest half-open client.
	if s.armRead(conn) {
		return // draining: no session yet to say goodbye to
	}
	q, err := wire.ReadRequest(br)
	if err != nil {
		s.noteReadError(err)
		return
	}
	if q.Op != wire.OpHello || wire.CheckHello(q.Arg) != nil {
		s.sayAndClose(bw, conn, wire.Reply{Status: wire.StatusBadRequest})
		return
	}
	sess, err := s.register()
	if err != nil {
		// MaxSessions live: protocol-level backpressure, not a crash.
		s.m.RecordReject()
		s.sayAndClose(bw, conn, wire.Reply{Status: wire.StatusBusy})
		return
	}
	defer sess.close()
	s.m.SessionStart()
	defer s.m.SessionEnd()
	bw.Write(wire.AppendReply(nil, wire.Reply{
		Status: wire.StatusOK,
		Value:  int64(s.cfg.MaxSessions),
		Banner: s.banner,
	}))
	if !s.flush(bw, conn) {
		return
	}

	// The connection's counts and in-flight gauge stay local until its
	// burst is answered; folding them at disconnect keeps them exact
	// however the connection ends.
	tally := s.m.NewConn()
	defer tally.Fold()
	var scratch []byte
	for {
		// Pay the per-read costs only before a read that can reach the
		// socket, i.e. once the pipelined burst is exhausted and the
		// client is (or will be) waiting on us: publish the burst's
		// metrics, flush its coalesced replies in one write, and arm
		// the read-idle deadline.
		if br.Buffered() < wire.RequestSize {
			tally.Fold()
			if bw.Buffered() > 0 && !s.flush(bw, conn) {
				return
			}
			if s.armRead(conn) {
				s.goodbye(bw, conn)
				return
			}
		}
		q, err := wire.ReadRequest(br)
		if err != nil {
			// Drain deadline, idle eviction, clean EOF or abrupt
			// disconnect: either way the deferred close recycles this
			// session's handle slots.
			if s.isDraining() {
				s.goodbye(bw, conn)
				return
			}
			s.noteReadError(err)
			return
		}
		if faultpoint.Hit(FPRead) != nil {
			return // injected read fault: an abrupt disconnect
		}
		if faultpoint.Hit(FPExec) != nil {
			return // injected pre-execution failure: op never ran, no ack
		}
		rep, ok := s.exec(sess, tally, q)
		if !ok {
			tally.Fold()
			s.sayAndClose(bw, conn, wire.Reply{Status: wire.StatusBadRequest})
			return
		}
		if werr := faultpoint.Hit(FPWrite); werr != nil {
			if errors.Is(werr, faultpoint.ErrDropped) {
				// The op ran but its ack evaporates: the client must
				// retry, and a non-idempotent op may apply twice - the
				// documented at-most-once hole (DESIGN.md §14).
				continue
			}
			return
		}
		scratch = wire.AppendReply(scratch[:0], rep)
		if _, err := bw.Write(scratch); err != nil {
			return
		}
	}
}

// armRead starts the idle budget of a read that can reach the socket
// and reports whether the server is draining. Shutdown marks the server
// draining before it sets every connection's read deadline to now, so
// checking after arming closes the window in which this arm would
// overwrite that wakeup and keep an active client served until the
// force-close budget ran out: whichever of the two comes second sees
// the other.
func (s *Server) armRead(conn net.Conn) (draining bool) {
	if s.cfg.ReadIdle > 0 {
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadIdle))
	}
	return s.isDraining()
}

// goodbye answers a draining connection's next read with
// StatusShutdown; the caller closes the connection right after.
func (s *Server) goodbye(bw *bufio.Writer, conn net.Conn) {
	faultpoint.Hit(FPDrain)
	s.sayAndClose(bw, conn, wire.Reply{Status: wire.StatusShutdown})
}

// noteReadError classifies a read error: outside a drain, whose wakeup
// is a deadline too, a deadline expiry is an idle eviction (counted);
// EOF and peer resets are ordinary disconnects.
func (s *Server) noteReadError(err error) {
	if errors.Is(err, os.ErrDeadlineExceeded) && !s.isDraining() {
		s.m.RecordEviction()
	}
}

// flush writes the buffered replies within the write-stall budget;
// false means the connection is gone. A flush that blocked past the
// budget means the client stopped reading - a stalled or half-open
// peer - and counts as an eviction.
func (s *Server) flush(bw *bufio.Writer, conn net.Conn) bool {
	if s.cfg.WriteStall > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteStall))
	}
	if err := bw.Flush(); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.m.RecordEviction()
		}
		return false
	}
	return true
}

// sayAndClose best-effort-writes a final reply under the write-stall
// budget; the caller closes the connection right after.
func (s *Server) sayAndClose(bw *bufio.Writer, conn net.Conn, rep wire.Reply) {
	bw.Write(wire.AppendReply(nil, rep))
	s.flush(bw, conn)
}

// exec runs one decoded request against the session's handles,
// counting it in the connection's tally and timing it when the tally
// samples it. ok=false means the opcode cannot be executed on an
// established session.
func (s *Server) exec(sess *session, tally *metrics.Conn, q wire.Request) (rep wire.Reply, ok bool) {
	if !tally.Start(int(q.Op)) {
		return s.apply(sess, q)
	}
	start := time.Now()
	rep, ok = s.apply(sess, q)
	tally.Time(int(q.Op), time.Since(start))
	return rep, ok
}

func (s *Server) apply(sess *session, q wire.Request) (wire.Reply, bool) {
	switch q.Op {
	case wire.OpHello:
		// A repeated Hello is harmless: re-send the banner.
		return wire.Reply{Status: wire.StatusOK, Value: int64(s.cfg.MaxSessions), Banner: s.banner}, true
	case wire.OpStackPush:
		sess.st.Push(q.Arg)
		return wire.Reply{Status: wire.StatusOK}, true
	case wire.OpStackPop:
		v, ok := sess.st.Pop()
		return valueReply(v, ok), true
	case wire.OpStackPeek:
		v, ok := sess.st.Peek()
		return valueReply(v, ok), true
	case wire.OpPoolPut:
		sess.pl.Put(q.Arg)
		return wire.Reply{Status: wire.StatusOK}, true
	case wire.OpPoolGet:
		v, ok := sess.pl.Get()
		return valueReply(v, ok), true
	case wire.OpFunnelAdd:
		old := sess.fn.FetchAdd(q.Arg)
		return wire.Reply{Status: wire.StatusOK, Value: old}, true
	case wire.OpFunnelTryAdd:
		old, applied := sess.fn.TryFetchAdd(q.Arg)
		if !applied {
			return wire.Reply{Status: wire.StatusContended}, true
		}
		return wire.Reply{Status: wire.StatusOK, Value: old}, true
	case wire.OpFunnelLoad:
		return wire.Reply{Status: wire.StatusOK, Value: s.fn.Load()}, true
	case wire.OpStats:
		return wire.Reply{Status: wire.StatusOK, Value: s.m.Sessions()}, true
	case wire.OpRetryMark:
		// A reconnecting client reporting how many ops it is about to
		// replay; negative or zero args are ignored (RecordRetries
		// clamps) so a hostile mark cannot rewind the counter.
		s.m.RecordRetries(q.Arg)
		return wire.Reply{Status: wire.StatusOK, Value: s.m.RetriesObserved()}, true
	}
	return wire.Reply{}, false
}

// valueReply maps a (value, ok) engine answer onto OK/Empty.
func valueReply(v int64, ok bool) wire.Reply {
	if !ok {
		return wire.Reply{Status: wire.StatusEmpty}
	}
	return wire.Reply{Status: wire.StatusOK, Value: v}
}
