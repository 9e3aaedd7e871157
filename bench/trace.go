package main

import (
	"encoding/json"
	"net"
	"os"
	"sync"

	"secstack/internal/wire"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls (nothing inside the program is instrumented). Spans of
// one request share Req; a child names its caller's ID in Parent.
// Times are nanoseconds since the benchmark started.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanCap bounds the spans one workload keeps in memory; counters are
// never capped.
const spanCap = 20000

// traceLog is one workload's traced repetition: its spans, how many the
// cap turned away, and uncapped counters.
type traceLog struct {
	Workload string           `json:"workload"`
	Spans    []span           `json:"spans"`
	Dropped  int64            `json:"dropped"`
	Counters map[string]int64 `json:"counters"`
}

func newTraceLog(workload string) *traceLog {
	return &traceLog{Workload: workload, Counters: map[string]int64{}}
}

// add keeps ss, up to the cap, and counts offered-kept as dropped.
func (t *traceLog) add(ss []span, offered int64) {
	keep := min(len(ss), spanCap-len(t.Spans))
	t.Spans = append(t.Spans, ss[:keep]...)
	t.Dropped += offered - int64(keep)
}

// writeTrace writes the traced run's spans and counters as JSON.
func writeTrace(path string, host hostInfo, logs []*traceLog) error {
	b, err := json.MarshalIndent(struct {
		Host      hostInfo    `json:"host"`
		Workloads []*traceLog `json:"workloads"`
	}{host, logs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ioEvent is one Read or Write call on a server connection that moved
// bytes: when it started and returned, and the stream offset its last
// byte reached.
type ioEvent struct{ start, end, upto int64 }

// ioLog counts one direction of a connection: every call and byte,
// and the times of the calls that carried a sampled frame (up to
// reqTimeCap of them).
type ioLog struct {
	calls, bytes int64
	ev           []ioEvent
}

// note records a call that moved n bytes. Frame k of the direction ends
// at stream offset base+frame*(k+1), and frames whose k is a multiple
// of every are the sampled ones.
func (g *ioLog) note(start, end int64, n int, base, frame, every int64) {
	if n <= 0 {
		return
	}
	prev := g.bytes
	g.calls++
	g.bytes += int64(n)
	if g.bytes <= base || len(g.ev) == cap(g.ev) {
		return
	}
	first := max(prev-base, 0) / frame // the first frame ending after prev
	last := (g.bytes-base)/frame - 1   // the last frame ending by g.bytes
	if k := (first + every - 1) / every * every; k <= last {
		g.ev = append(g.ev, ioEvent{start, end, g.bytes})
	}
}

// tracedConn timestamps the Read and Write calls secd makes on a
// connection that carry sampled requests or replies. Only the server's
// connection goroutine calls them, and the benchmark reads the logs
// after Shutdown has waited for that goroutine.
type tracedConn struct {
	net.Conn
	every      int64 // request k is sampled when k%every == 0
	helloReply int64 // the handshake reply's size: secd's first write
	rd, wr     ioLog
}

func (c *tracedConn) Read(b []byte) (int, error) {
	t0 := nowNS()
	n, err := c.Conn.Read(b)
	c.rd.note(t0, nowNS(), n, wire.RequestSize, wire.RequestSize, c.every)
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	t0 := nowNS()
	n, err := c.Conn.Write(b)
	if c.wr.calls == 0 {
		c.helloReply = int64(n)
	}
	c.wr.note(t0, nowNS(), n, c.helloReply, wire.ReplyHeaderSize, c.every)
	return n, err
}

// tracedListener hands secd tracedConns, in accept order. The benchmark
// dials its connections one at a time, each completing its handshake
// before the next dial, so accept order is dial order.
type tracedListener struct {
	net.Listener
	every int64
	mu    sync.Mutex
	conns []*tracedConn
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	// secd sets TCP_NODELAY only on a bare *net.TCPConn, so the wrapper
	// must keep it on itself.
	if tc, ok := c.(*net.TCPConn); ok {
		if err := tc.SetNoDelay(true); err != nil {
			c.Close()
			return nil, err
		}
	}
	t := &tracedConn{Conn: c, every: l.every}
	t.rd.ev = make([]ioEvent, 0, reqTimeCap)
	t.wr.ev = make([]ioEvent, 0, reqTimeCap)
	l.mu.Lock()
	l.conns = append(l.conns, t)
	l.mu.Unlock()
	return t, nil
}

func (l *tracedListener) accepted() []*tracedConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns
}

// reqTime is a client's view of sampled request k: when it was sent
// (the call or the burst write began) and when its reply was read.
type reqTime struct{ k, start, end int64 }

// servedParts are the serial pieces of a served request's round trip;
// for each request they sum to its client-observed time exactly.
var servedParts = [...]string{"net.inbound", "secd.process", "secd.write", "net.outbound"}

// decompose splits a connection's sampled requests into servedParts.
// Request k (counting from 0 after the hello) is matched by stream
// offset to the server read that completed its bytes and to the write
// that carried its reply. It stops at the first request the server
// events do not cover.
func decompose(reqs []reqTime, c *tracedConn) [][len(servedParts)]int64 {
	var out [][len(servedParts)]int64
	ri, wi := 0, 0
	for _, q := range reqs {
		reqEnd := wire.RequestSize * (q.k + 2)
		for ri < len(c.rd.ev) && c.rd.ev[ri].upto < reqEnd {
			ri++
		}
		repEnd := c.helloReply + wire.ReplyHeaderSize*(q.k+1)
		for wi < len(c.wr.ev) && c.wr.ev[wi].upto < repEnd {
			wi++
		}
		if ri == len(c.rd.ev) || wi == len(c.wr.ev) {
			break
		}
		r, w := c.rd.ev[ri], c.wr.ev[wi]
		out = append(out, [len(servedParts)]int64{r.end - q.start, w.start - r.end, w.end - w.start, q.end - w.end})
	}
	return out
}

// requestSpans turns decomposed requests into a root span per request
// with one child per part.
func requestSpans(conn int, root string, reqs []reqTime, parts [][len(servedParts)]int64) []span {
	var out []span
	for i, p := range parts {
		q := reqs[i]
		req := int64(conn)<<valueBits | (q.k + 1)
		id := req * int64(len(servedParts)+1)
		out = append(out, span{Name: root, ID: id, Req: req, Start: q.start, End: q.end})
		t := q.start
		for j, d := range p {
			out = append(out, span{Name: servedParts[j], ID: id + int64(j+1), Parent: id, Req: req, Start: t, End: t + d})
			t += d
		}
	}
	return out
}

// serverIO summarises the server side of the load connections: the
// time from each sampled read's return to the start of the next
// sampled write, each sampled write's duration, and over every call
// after the handshake, the requests per read and replies per write.
func serverIO(conns []*tracedConn) (process, write []int64, reqsPerRead, repliesPerWrite float64) {
	var reads, writes, reqs, reps int64
	for _, c := range conns {
		reads += c.rd.calls - 1
		writes += c.wr.calls - 1
		reqs += (c.rd.bytes - wire.RequestSize) / wire.RequestSize
		reps += (c.wr.bytes - c.helloReply) / wire.ReplyHeaderSize
		wi := 0
		for _, r := range c.rd.ev {
			for wi < len(c.wr.ev) && c.wr.ev[wi].start < r.end {
				wi++
			}
			if wi == len(c.wr.ev) {
				break
			}
			process = append(process, c.wr.ev[wi].start-r.end)
		}
		for _, w := range c.wr.ev {
			write = append(write, w.end-w.start)
		}
	}
	return process, write, float64(reqs) / float64(max(reads, 1)), float64(reps) / float64(max(writes, 1))
}
