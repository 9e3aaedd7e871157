// Package secclient is the hardened client side of the secd wire
// protocol: one connection, a handshake, and a Do loop with
// per-request deadlines, automatic reconnect, and bounded retry with
// exponential backoff and jitter. secload is built on it; anything
// else that talks to secd should be too.
//
// Retry semantics are at-most-once per attempt but not end-to-end
// exactly-once: if a request was written and the connection died
// before the reply arrived, the server may or may not have applied
// the operation, and a retry can apply it twice. The client counts
// every such replay and reports the tally to the server via
// OpRetryMark after reconnecting, so duplicate exposure is measurable
// (secd's RetriesObserved counter, the drain-stats line, and the
// chaos smoke all read it). Callers that need idempotence must encode
// it in the operation itself.
package secclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"secstack/internal/wire"
	"secstack/internal/xrand"
)

// ErrBusy is returned by Dial when the server refuses the handshake
// with backpressure (MaxSessions live sessions). Dial does not retry
// it: callers like secload count busy rungs rather than waiting.
var ErrBusy = errors.New("secclient: server busy")

// ErrLost is wrapped into Do's error once the retry budget is
// exhausted: the operation was abandoned without an acknowledgment.
var ErrLost = errors.New("secclient: operation lost")

// Config parameterises a client. Zero values take the defaults noted
// on each field; negative timeouts disable the respective deadline.
type Config struct {
	Addr           string
	DialTimeout    time.Duration // per-connect budget (default 5s)
	RequestTimeout time.Duration // per-attempt write+read budget (default 10s)
	Retries        int           // extra attempts after the first (default 3; negative: none)
	BackoffBase    time.Duration // first backoff step (default 2ms)
	BackoffMax     time.Duration // backoff ceiling (default 200ms)
	Seed           uint64        // jitter RNG seed (default 0x5ecc)
}

func (cfg Config) withDefaults() Config {
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 3
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 2 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 200 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5ecc
	}
	return cfg
}

// Stats counts what the retry machinery did. Lost is the one that
// must stay zero under chaos: operations abandoned after the budget.
type Stats struct {
	Dials     int64 // successful handshakes, including the first
	Redials   int64 // successful handshakes after a connection loss
	Retries   int64 // attempts re-sent after a failed one
	BusyWaits int64 // reconnects refused with backpressure mid-retry
	Lost      int64 // operations abandoned with the budget exhausted
}

// Client is a single-connection secd client. It is not safe for
// concurrent use: one goroutine, one Client, as with the underlying
// one-reply-per-request wire protocol.
type Client struct {
	cfg    Config
	rng    *xrand.State
	cn     net.Conn
	br     *bufio.Reader
	buf    []byte
	banner string
	// pendingMark is the number of replayed attempts not yet reported
	// to the server via OpRetryMark.
	pendingMark int64
	stats       Stats
}

// Dial connects and performs the wire handshake eagerly, so callers
// learn about backpressure (ErrBusy) and dead servers immediately
// instead of on the first Do.
func Dial(cfg Config) (*Client, error) {
	c := &Client{cfg: cfg.withDefaults()}
	c.rng = xrand.New(c.cfg.Seed)
	if busy, err := c.connect(); err != nil {
		return nil, err
	} else if busy {
		return nil, ErrBusy
	}
	return c, nil
}

// Banner returns the server's handshake banner.
func (c *Client) Banner() string { return c.banner }

// Stats returns the retry counters so far.
func (c *Client) Stats() Stats { return c.stats }

// Close releases the connection. The client is dead afterwards.
func (c *Client) Close() error {
	if c.cn == nil {
		return nil
	}
	err := c.cn.Close()
	c.cn, c.br = nil, nil
	return err
}

// connect dials and handshakes. busy=true means the server refused
// the session with backpressure (and the conn is already closed).
func (c *Client) connect() (busy bool, err error) {
	cn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return false, err
	}
	if tc, ok := cn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if c.cfg.RequestTimeout > 0 {
		cn.SetDeadline(time.Now().Add(c.cfg.RequestTimeout))
	}
	if _, err := cn.Write(wire.AppendRequest(nil, wire.Request{Op: wire.OpHello, Arg: wire.HelloArg()})); err != nil {
		cn.Close()
		return false, err
	}
	br := bufio.NewReader(cn)
	rep, err := wire.ReadReply(br)
	if err != nil {
		cn.Close()
		return false, err
	}
	switch rep.Status {
	case wire.StatusBusy:
		cn.Close()
		return true, nil
	case wire.StatusOK:
	default:
		cn.Close()
		return false, fmt.Errorf("secclient: handshake status %v", rep.Status)
	}
	cn.SetDeadline(time.Time{})
	c.cn, c.br, c.banner = cn, br, rep.Banner
	c.stats.Dials++
	return false, nil
}

// drop abandons the current connection after a failure.
func (c *Client) drop() {
	if c.cn != nil {
		c.cn.Close()
		c.cn, c.br = nil, nil
	}
}

// Do issues one operation and returns its reply, reconnecting and
// retrying per the config. StatusShutdown (the server's drain
// goodbye) and any transport failure count against the retry budget;
// protocol statuses - OK, Empty, Contended, BadRequest - are results,
// returned to the caller as-is.
func (c *Client) Do(op wire.Op, arg int64) (wire.Reply, error) {
	var lastErr error
	attempts := 1 + c.cfg.Retries
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.stats.Retries++
			c.pendingMark++
			c.backoff(attempt)
		}
		if c.cn == nil {
			busy, err := c.connect()
			if busy {
				c.stats.BusyWaits++
				lastErr = ErrBusy
				continue
			}
			if err != nil {
				lastErr = err
				continue
			}
			c.stats.Redials++
			if c.reportMark(); c.cn == nil {
				// The mark report failed and dropped the fresh conn;
				// burn the attempt and reconnect again.
				lastErr = fmt.Errorf("secclient: retry-mark report failed")
				continue
			}
		}
		rep, err := c.roundTrip(op, arg)
		if err != nil {
			lastErr = err
			c.drop()
			continue
		}
		if rep.Status == wire.StatusShutdown {
			lastErr = fmt.Errorf("secclient: server draining")
			c.drop()
			continue
		}
		return rep, nil
	}
	c.stats.Lost++
	return wire.Reply{}, fmt.Errorf("%w: %v after %d attempts: %v", ErrLost, op, attempts, lastErr)
}

// roundTrip writes one request and reads its reply under the
// per-attempt deadline. Neither allocates: the request is encoded into
// the client's reused buffer and the reply decoded in place in its
// reader.
func (c *Client) roundTrip(op wire.Op, arg int64) (wire.Reply, error) {
	if c.cfg.RequestTimeout > 0 {
		c.cn.SetDeadline(time.Now().Add(c.cfg.RequestTimeout))
	}
	c.buf = wire.AppendRequest(c.buf[:0], wire.Request{Op: op, Arg: arg})
	if _, err := c.cn.Write(c.buf); err != nil {
		return wire.Reply{}, err
	}
	return wire.ReadReply(c.br)
}

// reportMark tells the freshly-reconnected server how many attempts
// this client has replayed (OpRetryMark telemetry). Best-effort: a
// failure here just drops the connection and leaves the tally pending
// for the next reconnect.
func (c *Client) reportMark() {
	if c.pendingMark == 0 {
		return
	}
	rep, err := c.roundTrip(wire.OpRetryMark, c.pendingMark)
	if err != nil || rep.Status != wire.StatusOK {
		c.drop()
		return
	}
	c.pendingMark = 0
}

// backoff sleeps the attempt's exponential budget with equal jitter:
// half fixed, half uniformly random, capped at BackoffMax.
func (c *Client) backoff(attempt int) {
	d := c.cfg.BackoffBase << (attempt - 1)
	if d <= 0 || d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	half := d / 2
	sleep := half + time.Duration(c.rng.Int63())%(half+1)
	time.Sleep(sleep)
}
