package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"time"

	"secstack/internal/pad"
	"secstack/internal/secclient"
	"secstack/internal/secd"
	"secstack/internal/wire"
	"secstack/internal/xrand"
)

const (
	// burstLen is how many requests a pipelined connection writes
	// before reading their replies.
	burstLen = 32
	// ioTimeout bounds any single network wait, so a wedged server
	// fails the run instead of hanging it.
	ioTimeout = 10 * time.Second
	// reqTimeCap bounds the sampled requests a traced connection keeps
	// client timestamps and server events for.
	reqTimeCap = 1 << 16
)

// servedWorkload drives an in-process secd over loopback TCP from
// workers() connections, each keeping requests in flight closed-loop.
type servedWorkload struct {
	mix       []mixEntry
	pipelined bool // raw wire connections writing bursts; otherwise secclient, one op at a time
}

// servedWorker is one load connection's state, padded like opStream.
type servedWorker struct {
	_      [pad.CacheLine]byte
	id     int
	stream *opStream
	rng    xrand.State
	seq    int64
	lat    *reservoir
	cli    *secclient.Client
	raw    *rawConn

	attempted, failed        int64
	pushes, pops, puts, gets int64     // acknowledged, per engine op
	added                    int64     // amounts the funnel acknowledged applying
	reqs                     []reqTime // traced reps: sampled requests
	every                    int64     // request k is sampled when k%every == 0
	retries, lost            int64
	spanRoot                 string
	_                        [pad.CacheLine]byte
}

// acceptable is secload's rule: whether status is a valid protocol
// outcome for op.
func acceptable(op wire.Op, status wire.Status) bool {
	switch status {
	case wire.StatusOK:
		return true
	case wire.StatusEmpty:
		return op == wire.OpStackPop || op == wire.OpStackPeek || op == wire.OpPoolGet
	case wire.StatusContended:
		return op == wire.OpFunnelTryAdd
	}
	return false
}

// arg draws op's argument: tagged values for pushes and puts, small
// amounts for funnel adds.
func (sw *servedWorker) arg(op wire.Op) int64 {
	switch op {
	case wire.OpStackPush, wire.OpPoolPut:
		sw.seq++
		return tag(sw.id, sw.seq)
	case wire.OpFunnelAdd, wire.OpFunnelTryAdd:
		return 1 + int64(sw.rng.Intn(7))
	}
	return 0
}

// tally checks a reply against op and books what it did to the engines.
func (sw *servedWorker) tally(op wire.Op, arg int64, st wire.Status) {
	if !acceptable(op, st) {
		sw.failed++
		return
	}
	if st != wire.StatusOK {
		return
	}
	switch op {
	case wire.OpStackPush:
		sw.pushes++
	case wire.OpStackPop:
		sw.pops++
	case wire.OpPoolPut:
		sw.puts++
	case wire.OpPoolGet:
		sw.gets++
	case wire.OpFunnelAdd, wire.OpFunnelTryAdd:
		sw.added += arg
	}
}

// note records request k's times if k is sampled and there is room.
func (sw *servedWorker) note(k, start, end int64) {
	if k%sw.every == 0 && len(sw.reqs) < cap(sw.reqs) {
		sw.reqs = append(sw.reqs, reqTime{k, start, end})
	}
}

func (sw *servedWorker) runRPC(stop *atomic.Bool) {
	for !stop.Load() {
		op := sw.stream.next()
		arg := sw.arg(op)
		t0 := nowNS()
		rep, err := sw.cli.Do(op, arg)
		t1 := nowNS()
		sw.note(sw.attempted, t0, t1)
		sw.attempted++
		if err != nil { // lost with the retry budget spent
			sw.failed++
			continue
		}
		sw.lat.add(t1 - t0)
		sw.tally(op, arg, rep.Status)
	}
}

func (sw *servedWorker) runPipelined(stop *atomic.Bool) {
	reqs := make([]wire.Request, burstLen)
	reps := make([]wire.Reply, burstLen)
	at := make([]int64, burstLen)
	for !stop.Load() {
		for i := range reqs {
			op := sw.stream.next()
			reqs[i] = wire.Request{Op: op, Arg: sw.arg(op)}
		}
		start, n, err := sw.raw.burst(reqs, reps, at)
		for i := range n {
			sw.lat.add(at[i] - start)
			sw.note(sw.attempted+int64(i), start, at[i])
			sw.tally(reqs[i].Op, reqs[i].Arg, reps[i].Status)
		}
		sw.attempted += burstLen
		if err != nil { // the connection is unusable: its unanswered ops are lost
			sw.failed += int64(burstLen - n)
			return
		}
	}
}

// dial connects worker sw to addr with its workload's client.
func (w *servedWorkload) dial(sw *servedWorker, addr string) error {
	if w.pipelined {
		rc, err := dialRaw(addr)
		if err != nil {
			return err
		}
		sw.raw, sw.spanRoot = rc, "wire.request"
		return nil
	}
	c, err := secclient.Dial(secclient.Config{Addr: addr, RequestTimeout: ioTimeout, Seed: uint64(sw.id) + 1})
	if err != nil {
		return err
	}
	sw.cli, sw.spanRoot = c, "secclient.Do"
	return nil
}

func (sw *servedWorker) close() {
	if sw.cli != nil {
		st := sw.cli.Stats()
		sw.retries, sw.lost = st.Retries, st.Lost
		sw.cli.Close()
	}
	if sw.raw != nil {
		sw.raw.c.Close()
	}
}

// rep starts a fresh server, dials the load connections, runs the
// window, then drains the stack and pool over one more connection and
// checks every engine's books before shutting the server down.
func (w *servedWorkload) rep(rc repConfig) repResult {
	nw := workers()
	ws := make([]*servedWorker, nw)
	for i := range ws {
		ws[i] = &servedWorker{
			id:     i,
			stream: newOpStream(w.mix, rc.seed+uint64(i)*0x9e3779b9+1),
			rng:    *xrand.New(rc.seed ^ uint64(i+1)<<32),
			lat:    newReservoir(reservoirSize, rc.seed^uint64(i+1)),
			every:  max(rc.traceEvery, 1),
		}
		if rc.traced {
			ws[i].reqs = make([]reqTime, 0, reqTimeCap)
		}
	}

	var res repResult
	base := liveHeap()
	t0 := nowNS()
	srv, err := secd.New(secd.Config{Adaptive: true})
	if err != nil {
		res.fail(1, fmt.Sprintf("secd.New: %v", err))
		return res
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		res.fail(1, fmt.Sprintf("listen: %v", err))
		return res
	}
	var tl *tracedListener
	if rc.traced {
		tl = &tracedListener{Listener: lis, every: max(rc.traceEvery, 1)}
		lis = tl
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	addr := lis.Addr().String()
	dialed := 0
	for _, sw := range ws {
		if err := w.dial(sw, addr); err != nil {
			res.fail(1, fmt.Sprintf("dial: %v", err))
			break
		}
		dialed++
	}
	res.setup = time.Duration(nowNS() - t0)

	if dialed == nw {
		body := (*servedWorker).runRPC
		if w.pipelined {
			for _, sw := range ws {
				// A failure here leaves the conn closed, and the first
				// burst then fails and is counted.
				_ = sw.raw.c.SetDeadline(time.Now().Add(rc.window + ioTimeout))
			}
			body = (*servedWorker).runPipelined
		}
		res.elapsed, res.rt = runWindow(nw, rc.window, func(i int, stop *atomic.Bool) { body(ws[i], stop) })
		if rc.traced {
			// Before the drain connection adds ops of its own.
			res.layer = execP50s(srv)
		}
		res.heapLive = liveHeap() - base
		checkServed(&res, ws, addr, srv)
	}
	for _, sw := range ws[:dialed] {
		sw.close()
	}
	if err := srv.Shutdown(ioTimeout); err != nil {
		res.fail(1, fmt.Sprintf("shutdown: %v", err))
	}
	if err := <-served; err != nil {
		res.fail(1, fmt.Sprintf("serve: %v", err))
	}
	if n := srv.Metrics().Sessions(); n != 0 {
		res.fail(n, fmt.Sprintf("%d sessions still live after shutdown", n))
	}
	for _, sw := range ws {
		res.attempted += sw.attempted
		res.failed += sw.failed
		res.lat = append(res.lat, sw.lat)
	}
	if rc.traced && dialed == nw {
		servedLayers(&res, rc.tl, ws, tl.accepted()[:nw], srv)
	}
	return res
}

// check drains the served stack and pool over a connection of its own
// and checks them, and the funnel, against what the load connections
// had acknowledged.
func checkServed(res *repResult, ws []*servedWorker, addr string, srv *secd.Server) {
	var pushes, pops, puts, gets, added int64
	for _, sw := range ws {
		pushes += sw.pushes
		pops += sw.pops
		puts += sw.puts
		gets += sw.gets
		added += sw.added
	}
	c, err := secclient.Dial(secclient.Config{Addr: addr, RequestTimeout: ioTimeout})
	if err != nil {
		res.fail(1, fmt.Sprintf("drain dial: %v", err))
		return
	}
	defer c.Close()
	drain := func(op wire.Op) (int64, error) {
		var n int64
		for {
			rep, err := c.Do(op, 0)
			switch {
			case err != nil:
				return n, err
			case rep.Status == wire.StatusEmpty:
				return n, nil
			case rep.Status != wire.StatusOK:
				return n, fmt.Errorf("drain %v: status %v", op, rep.Status)
			}
			n++
		}
	}
	books := []struct {
		name         string
		op           wire.Op
		expect       int64
		acked, taken string
	}{
		{"stack", wire.OpStackPop, pushes - pops, "pushes", "pops"},
		{"pool", wire.OpPoolGet, puts - gets, "puts", "gets"},
	}
	for _, b := range books {
		n, err := drain(b.op)
		if err != nil {
			res.fail(1, fmt.Sprintf("%s drain: %v", b.name, err))
			continue
		}
		if n != b.expect {
			res.fail(abs(n-b.expect), fmt.Sprintf("%s conservation: acked %s - %s = %d, drained %d", b.name, b.acked, b.taken, b.expect, n))
		}
	}
	if load := srv.Funnel().Load(); load != added {
		res.fail(abs(load-added), fmt.Sprintf("funnel: Load %d, acknowledged adds %d", load, added))
	}
}

// execP50s reads secd's per-opcode service-time p50s (its histograms
// have about 6% resolution), averaging each engine's opcodes weighted
// by their counts.
func execP50s(srv *secd.Server) map[string]float64 {
	m := srv.Metrics()
	execP50 := func(ops ...wire.Op) float64 {
		var n, weighted float64
		for _, op := range ops {
			st := m.Op(int(op))
			n += float64(st.Count)
			weighted += float64(st.Count) * float64(st.P50)
		}
		return weighted / math.Max(n, 1)
	}
	return map[string]float64{
		"secd.exec_stack_ns_p50":  execP50(wire.OpStackPush, wire.OpStackPop, wire.OpStackPeek),
		"secd.exec_pool_ns_p50":   execP50(wire.OpPoolPut, wire.OpPoolGet),
		"secd.exec_funnel_ns_p50": execP50(wire.OpFunnelAdd, wire.OpFunnelTryAdd, wire.OpFunnelLoad),
	}
}

// servedLayers adds the traced repetition's other per-layer metrics and
// its spans.
func servedLayers(res *repResult, tlog *traceLog, ws []*servedWorker, conns []*tracedConn, srv *secd.Server) {
	m := srv.Metrics()
	process, write, perRead, perWrite := serverIO(conns)

	var parts [len(servedParts)][]int64
	var sums []int64
	var retries, lost, requests int64
	for i, sw := range ws {
		ps := decompose(sw.reqs, conns[i])
		spans := requestSpans(i, sw.spanRoot, sw.reqs, ps)
		tlog.add(spans, int64(len(spans)))
		for _, p := range ps {
			var s int64
			for j, d := range p {
				parts[j] = append(parts[j], d)
				s += d
			}
			sums = append(sums, s)
		}
		retries += sw.retries
		lost += sw.lost
		requests += sw.attempted
		tlog.Counters["server_reads"] += conns[i].rd.calls
		tlog.Counters["server_writes"] += conns[i].wr.calls
	}
	tlog.Counters["requests"] = requests
	tlog.Counters["decomposed_requests"] = int64(len(sums))

	rtt := percentiles(res.lat, 0.5)[0] / 1e3
	for k, v := range map[string]float64{
		"secd.process_us_p50":    percentileOf(process, 0.5) / 1e3,
		"secd.write_us_p50":      percentileOf(write, 0.5) / 1e3,
		"secd.requests_per_read": perRead,
		"secd.replies_per_write": perWrite,
		"secd.rejected":          float64(m.Rejected()),
		"secd.evictions":         float64(m.Evictions()),
		"secclient.rtt_us_p50":   rtt,
		"net.inbound_us_p50":     percentileOf(parts[0], 0.5) / 1e3,
		"net.outbound_us_p50":    percentileOf(parts[3], 0.5) / 1e3,
		"secclient.retries":      float64(retries),
		"secclient.lost":         float64(lost),
	} {
		res.layer[k] = v
	}
	var partSum float64
	terms := ""
	for j, name := range servedParts {
		p := percentileOf(parts[j], 0.5) / 1e3
		partSum += p
		if j > 0 {
			terms += " + "
		}
		terms += fmt.Sprintf("%s %.2f", name, p)
	}
	sumP50 := percentileOf(sums, 0.5) / 1e3
	res.report = append(res.report,
		fmt.Sprintf("decomposition over %d requests (p50, us): %s = %.2f", len(sums), terms, partSum),
		fmt.Sprintf("decomposition check: per-request sum p50 %.2f us vs secclient.rtt_us_p50 %.2f us: within 10%%: %s",
			sumP50, rtt, yesNo(len(sums) > 0 && math.Abs(sumP50-rtt) <= 0.10*rtt)))
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// rawConn is a bare wire connection that pipelines: it writes a burst
// of requests in one call and then reads their replies.
type rawConn struct {
	c          net.Conn
	wbuf, rbuf []byte
	n          int // reply bytes buffered in rbuf
}

func dialRaw(addr string) (*rawConn, error) {
	c, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	rc := &rawConn{c: c, rbuf: make([]byte, 16<<10)}
	if err := c.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		c.Close()
		return nil, err
	}
	hello := []wire.Request{{Op: wire.OpHello, Arg: wire.HelloArg()}}
	var rep [1]wire.Reply
	var at [1]int64
	if _, _, err := rc.burst(hello, rep[:], at[:]); err != nil {
		c.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	if rep[0].Status != wire.StatusOK {
		c.Close()
		return nil, fmt.Errorf("handshake refused: %v", rep[0].Status)
	}
	return rc, nil
}

// burst writes reqs in one call, then reads until every reply has
// arrived, storing reply i in reps[i] and the time the read that
// completed it returned in at[i]. It returns when the write began and
// how many replies arrived.
func (rc *rawConn) burst(reqs []wire.Request, reps []wire.Reply, at []int64) (start int64, n int, err error) {
	rc.wbuf = rc.wbuf[:0]
	for _, q := range reqs {
		rc.wbuf = wire.AppendRequest(rc.wbuf, q)
	}
	start = nowNS()
	if _, err := rc.c.Write(rc.wbuf); err != nil {
		return start, 0, err
	}
	for n < len(reqs) {
		m, rerr := rc.c.Read(rc.rbuf[rc.n:])
		t := nowNS()
		rc.n += m
		off := 0
		for n < len(reqs) {
			rep, k, derr := wire.DecodeReply(rc.rbuf[off:rc.n])
			if errors.Is(derr, wire.ErrShort) {
				break
			}
			if derr != nil {
				return start, n, derr
			}
			reps[n], at[n] = rep, t
			n++
			off += k
		}
		rc.n = copy(rc.rbuf, rc.rbuf[off:rc.n])
		if rerr != nil && n < len(reqs) {
			return start, n, rerr
		}
	}
	return start, n, nil
}

// wireReplay times the wire codec on a workload's request stream: each
// pass encodes every request and a reply of the same shape, then
// decodes both. It returns the median over passes of the ns per frame
// to encode and to decode, and whether the decoded frames matched.
func wireReplay(mix []mixEntry, seed uint64) (encodeNS, decodeNS float64, ok bool) {
	const frames = 1 << 15
	s := newOpStream(mix, seed)
	reqs := make([]wire.Request, frames)
	var want int64
	for i := range reqs {
		reqs[i] = wire.Request{Op: s.next(), Arg: int64(i)}
		want += 2 * int64(i)
	}
	reqBuf := make([]byte, 0, frames*wire.RequestSize)
	repBuf := make([]byte, 0, frames*wire.ReplyHeaderSize)
	var enc, dec []float64
	ok = true
	for range 5 {
		t0 := nowNS()
		reqBuf, repBuf = reqBuf[:0], repBuf[:0]
		for _, q := range reqs {
			reqBuf = wire.AppendRequest(reqBuf, q)
		}
		for _, q := range reqs {
			repBuf = wire.AppendReply(repBuf, wire.Reply{Status: wire.StatusOK, Value: q.Arg})
		}
		t1 := nowNS()
		var got int64
		for b := reqBuf; len(b) > 0; {
			q, n, err := wire.DecodeRequest(b)
			if err != nil {
				return 0, 0, false
			}
			got += q.Arg
			b = b[n:]
		}
		for b := repBuf; len(b) > 0; {
			p, n, err := wire.DecodeReply(b)
			if err != nil {
				return 0, 0, false
			}
			got += p.Value
			b = b[n:]
		}
		t2 := nowNS()
		ok = ok && got == want
		enc = append(enc, float64(t1-t0)/(2*frames))
		dec = append(dec, float64(t2-t1)/(2*frames))
	}
	return median(enc), median(dec), ok
}
