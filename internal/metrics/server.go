package metrics

import (
	"sync/atomic"
	"time"

	"secstack/internal/pad"
)

// Server collects secd's serving-side instrumentation: a live-session
// gauge (connections that completed the handshake and hold engine
// handles), an in-flight gauge, a handshake-rejection counter, the
// robustness counters (slow-client evictions, recovered per-connection
// panics, client-reported retries), and per opcode an exact count and
// a histogram of sampled service times. A connection feeds the counts
// and the in-flight gauge through its own Conn tally, once per burst of
// requests. Like *SEC, a nil *Server is valid and turns every method
// into a no-op.
type Server struct {
	sessions atomic.Int64 // live sessions (gauge)
	peak     atomic.Int64 // high-water mark of the sessions gauge
	rejected atomic.Int64 // handshakes refused with backpressure
	inflight atomic.Int64 // connections with an unpublished burst (gauge)
	evicted  atomic.Int64 // connections evicted on read-idle/write-stall deadlines
	panics   atomic.Int64 // per-connection panics recovered (session unwound, conn closed)
	retries  atomic.Int64 // retried ops clients reported via OpRetryMark
	_        [pad.CacheLine - 7*8]byte
	ops      []opStat
}

// opStat is one opcode's counter block.
type opStat struct {
	count atomic.Int64
	lat   LatencyHist
}

// NewServer returns a collector with one latency histogram per opcode
// in [0, numOps).
func NewServer(numOps int) *Server {
	if numOps < 1 {
		numOps = 1
	}
	return &Server{ops: make([]opStat, numOps)}
}

// SessionStart moves the live-session gauge up, tracking the peak.
func (m *Server) SessionStart() {
	if m == nil {
		return
	}
	n := m.sessions.Add(1)
	for {
		p := m.peak.Load()
		if n <= p || m.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// SessionEnd moves the live-session gauge down.
func (m *Server) SessionEnd() {
	if m == nil {
		return
	}
	m.sessions.Add(-1)
}

// Sessions returns the live-session gauge.
func (m *Server) Sessions() int64 {
	if m == nil {
		return 0
	}
	return m.sessions.Load()
}

// PeakSessions returns the gauge's high-water mark.
func (m *Server) PeakSessions() int64 {
	if m == nil {
		return 0
	}
	return m.peak.Load()
}

// RecordReject tallies one handshake refused with backpressure (the
// engines' TryRegister said MaxThreads sessions are live).
func (m *Server) RecordReject() {
	if m == nil {
		return
	}
	m.rejected.Add(1)
}

// Rejected returns the backpressure-rejection count.
func (m *Server) Rejected() int64 {
	if m == nil {
		return 0
	}
	return m.rejected.Load()
}

// RecordEviction tallies one connection evicted by a serving deadline:
// a session that sent nothing for the read-idle budget (half-open or
// stalled peer) or whose reply flush blocked past the write-stall
// budget (a client that stopped reading).
func (m *Server) RecordEviction() {
	if m == nil {
		return
	}
	m.evicted.Add(1)
}

// Evictions returns the deadline-eviction count.
func (m *Server) Evictions() int64 {
	if m == nil {
		return 0
	}
	return m.evicted.Load()
}

// RecordPanic tallies one per-connection panic the server recovered:
// the connection was closed and its engine handles released instead of
// the process dying.
func (m *Server) RecordPanic() {
	if m == nil {
		return
	}
	m.panics.Add(1)
}

// PanicsRecovered returns the recovered-panic count.
func (m *Server) PanicsRecovered() int64 {
	if m == nil {
		return 0
	}
	return m.panics.Load()
}

// RecordRetries adds n client-reported retried operations (the
// OpRetryMark telemetry a reconnecting client sends before replaying).
func (m *Server) RecordRetries(n int64) {
	if m == nil || n <= 0 {
		return
	}
	m.retries.Add(n)
}

// RetriesObserved returns the total retried ops clients have reported.
func (m *Server) RetriesObserved() int64 {
	if m == nil {
		return 0
	}
	return m.retries.Load()
}

// ServerSnapshot is one coherent-enough read of the serving gauges and
// counters (each field is an atomic load; the set is not a single
// linearizable cut, which drain-stats reporting does not need).
type ServerSnapshot struct {
	Sessions        int64 // live-session gauge
	PeakSessions    int64 // gauge high-water mark
	Rejected        int64 // handshakes refused with backpressure
	InFlight        int64 // connections with a burst in progress
	Evictions       int64 // connections evicted on serving deadlines
	PanicsRecovered int64 // per-connection panics recovered
	RetriesObserved int64 // client-reported retried ops
	TotalOps        int64 // sum of per-opcode counts
}

// Snapshot reads the serving counters; zero value on a nil collector.
func (m *Server) Snapshot() ServerSnapshot {
	if m == nil {
		return ServerSnapshot{}
	}
	return ServerSnapshot{
		Sessions:        m.sessions.Load(),
		PeakSessions:    m.peak.Load(),
		Rejected:        m.rejected.Load(),
		InFlight:        m.inflight.Load(),
		Evictions:       m.evicted.Load(),
		PanicsRecovered: m.panics.Load(),
		RetriesObserved: m.retries.Load(),
		TotalOps:        m.TotalOps(),
	}
}

// serviceSample is the period of the service-time sample: a connection
// times its first request and then every serviceSample-th one. The
// period is prime, so in a pipelined burst of any power-of-two length
// the timed request walks through every position of the burst instead
// of landing on the same one each time.
const serviceSample = 61

// Conn is one connection's unpublished share of a Server's per-opcode
// counts and in-flight gauge. The connection's goroutine owns it:
// counting a request is plain arithmetic on the connection's own
// counter block, and Fold publishes the block with one atomic add per
// opcode seen since the last fold.
type Conn struct {
	m      *Server
	counts []int64 // per opcode, since the last Fold
	busy   bool    // the in-flight gauge counts this connection
	until  int     // requests to go before the next timed one
}

// NewConn returns an empty tally for one connection of m.
func (m *Server) NewConn() *Conn {
	if m == nil {
		return &Conn{}
	}
	return &Conn{m: m, counts: make([]int64, len(m.ops))}
}

// Start counts one request of opcode op and reports whether its service
// time is to be timed and passed to Time (see serviceSample). The first
// request after a Fold moves the in-flight gauge up. Out-of-range
// opcodes are not counted rather than panicking - the wire decoder
// rejects them before execution, so they can only appear through a
// caller bug.
func (c *Conn) Start(op int) (timed bool) {
	if c.m == nil {
		return false
	}
	if !c.busy {
		c.busy = true
		c.m.inflight.Add(1)
	}
	if op < 0 || op >= len(c.counts) {
		return false
	}
	c.counts[op]++
	if c.until > 0 {
		c.until--
		return false
	}
	c.until = serviceSample - 1
	return true
}

// Time records a timed request's service time in op's histogram.
func (c *Conn) Time(op int, d time.Duration) {
	if c.m == nil || op < 0 || op >= len(c.m.ops) {
		return
	}
	c.m.ops[op].lat.Record(d)
}

// Fold publishes the counts gathered since the last Fold and moves the
// in-flight gauge back down. A server folds before it writes a burst's
// replies, so a client that has read a reply finds its request counted,
// and again when the connection ends, so the counts are exact once the
// connection is gone and the gauge reads 0 with no burst in progress.
func (c *Conn) Fold() {
	if c.m == nil || !c.busy {
		return
	}
	for op, n := range c.counts {
		if n != 0 {
			c.m.ops[op].count.Add(n)
			c.counts[op] = 0
		}
	}
	c.busy = false
	c.m.inflight.Add(-1)
}

// InFlight returns the in-flight gauge: the connections that have
// started a burst of requests and not yet folded it, so at most one per
// connection, and 0 on an idle server.
func (m *Server) InFlight() int64 {
	if m == nil {
		return 0
	}
	return m.inflight.Load()
}

// OpStats is one opcode's served summary: the exact count of requests
// folded so far, and the quantiles of their sampled service times.
type OpStats struct {
	Count int64
	P50   time.Duration
	P99   time.Duration
}

// Op returns the summary for one opcode (zero value when out of range
// or nothing recorded).
func (m *Server) Op(op int) OpStats {
	if m == nil || op < 0 || op >= len(m.ops) {
		return OpStats{}
	}
	s := &m.ops[op]
	return OpStats{
		Count: s.count.Load(),
		P50:   s.lat.Quantile(0.50),
		P99:   s.lat.Quantile(0.99),
	}
}

// TotalOps sums the per-opcode counts folded so far.
func (m *Server) TotalOps() int64 {
	if m == nil {
		return 0
	}
	var total int64
	for i := range m.ops {
		total += m.ops[i].count.Load()
	}
	return total
}
