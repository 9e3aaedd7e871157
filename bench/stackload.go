package main

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"secstack/internal/pad"
	"secstack/internal/wire"
	"secstack/stack"
)

const (
	prefill = 1000
	// Of every sampleEvery calls a worker makes, the first is timed on
	// its own, for the per-kind call latencies, and the workload's
	// latCalls calls from groupAt on are timed together, for the
	// end-to-end latency. Sampling keeps the clock reads off the
	// throughput.
	sampleEvery = 64
	groupAt     = sampleEvery / 2
	// reservoirSize bounds each latency sample a worker keeps.
	reservoirSize = 1 << 15
)

// stackOps is the call surface both session APIs share: an explicit
// stack.Handle and the handle-free stack.Stack methods.
type stackOps interface {
	Push(v int64)
	Pop() (int64, bool)
	Peek() (int64, bool)
}

// stackWorkload drives a SEC stack from workers() goroutines, in process.
type stackWorkload struct {
	opts     []stack.Option
	explicit bool // workers Register handles; otherwise they call the stack directly
	mix      []mixEntry
	// latCalls is how many consecutive calls one latency sample times,
	// reporting their mean, so that a sample lasts about a microsecond.
	// A longer sample is hit by the host's timer interrupts often enough
	// (about 1% of 10 us samples) that its p99 swings with them; a call
	// of about 100 ns is comparable to the two clock reads around it,
	// and its single-call p50 flips from run to run between two modes
	// that an 8-call mean averages.
	latCalls int
}

// kinds indexes the per-op-kind latency reservoirs.
var kinds = [...]string{"push", "pop", "peek"}

// stackWorker is one worker goroutine's state, padded like opStream.
type stackWorker struct {
	_        [pad.CacheLine]byte
	id       int
	ops      stackOps
	stream   *opStream
	lat      [len(kinds)]*reservoir // single calls, per kind
	group    *reservoir             // ns per call over groups of latCalls calls
	latCalls int
	// pushed counts this worker's pushes; they carried tags 0..pushed-1.
	pushed, pops, popped int64
	attempted            int64
	log                  *popLog // traced reps: the values this worker popped
	spans                []span  // traced reps: sampled calls, capped
	_                    [pad.CacheLine]byte
}

func (sw *stackWorker) run(stop *atomic.Bool) {
	var groupStart int64
	groupEnd := groupAt + sw.latCalls - 1
	for i := 0; !stop.Load(); i++ {
		op := sw.stream.next()
		j := i % sampleEvery
		if j == 0 {
			t0 := nowNS()
			k := sw.do(op)
			t1 := nowNS()
			sw.lat[k].add(t1 - t0)
			if len(sw.spans) < cap(sw.spans) {
				id := int64(sw.id)<<valueBits | int64(i+1)
				sw.spans = append(sw.spans, span{Name: "stack." + kinds[k], ID: id, Req: id, Start: t0, End: t1})
			}
			continue
		}
		if j == groupAt {
			groupStart = nowNS()
		}
		sw.do(op)
		if j == groupEnd {
			sw.group.add((nowNS() - groupStart) / int64(sw.latCalls))
		}
	}
}

// do issues one operation and returns its kind.
func (sw *stackWorker) do(op wire.Op) int {
	sw.attempted++
	switch op {
	case wire.OpStackPush:
		sw.ops.Push(tag(sw.id, sw.pushed))
		sw.pushed++
		return 0
	case wire.OpStackPop:
		sw.pops++
		if v, ok := sw.ops.Pop(); ok {
			sw.popped++
			if sw.log != nil {
				sw.log.mark(v)
			}
		}
		return 1
	}
	sw.ops.Peek()
	return 2
}

// rep builds a fresh stack, prefills it, runs the window, then drains
// the stack and checks that nothing was lost or duplicated.
func (w *stackWorkload) rep(rc repConfig) repResult {
	nw := workers()
	explicit := w.explicit != rc.altAPI
	ws := make([]*stackWorker, nw)
	for i := range ws {
		sw := &stackWorker{id: i, stream: newOpStream(w.mix, rc.seed+uint64(i)*0x9e3779b9+1), latCalls: w.latCalls}
		for k := range sw.lat {
			sw.lat[k] = newReservoir(reservoirSize, rc.seed^uint64(i*len(kinds)+k+1))
		}
		sw.group = newReservoir(reservoirSize, rc.seed^uint64(i+1)<<32)
		if rc.traced {
			sw.log = newPopLog(nw + 1)
			sw.spans = make([]span, 0, spanCap/nw)
		}
		ws[i] = sw
	}

	var res repResult
	base := liveHeap()
	t0 := nowNS()
	opts := w.opts
	if rc.traced {
		opts = append(slices.Clone(opts), stack.WithMetrics())
	}
	s := stack.NewSEC[int64](opts...)
	fill := func(ops stackOps) {
		for i := range prefill {
			ops.Push(tag(nw, int64(i)))
		}
	}
	var handles []stack.Handle[int64]
	if explicit {
		h := s.Register()
		fill(h)
		h.Close()
		for _, sw := range ws {
			h := s.Register()
			handles = append(handles, h)
			sw.ops = h
		}
	} else {
		fill(s)
		for _, sw := range ws {
			sw.ops = s
		}
	}
	res.setup = time.Duration(nowNS() - t0)
	s.Metrics().Reset()

	res.elapsed, res.rt = runWindow(nw, rc.window, func(i int, stop *atomic.Bool) { ws[i].run(stop) })
	snap := s.Metrics().Snapshot()
	res.heapLive = liveHeap() - base
	for _, h := range handles {
		h.Close()
	}

	// Drain through a fresh handle and check conservation.
	drainLog := newPopLog(nw + 1)
	var drained int64
	d := s.Register()
	for v, ok := d.Pop(); ok; v, ok = d.Pop() {
		drained++
		drainLog.mark(v)
	}
	d.Close()
	expect := int64(prefill)
	pushed := make([]int64, nw+1)
	pushed[nw] = prefill
	var pops, popped int64
	var calls []*reservoir
	for _, sw := range ws {
		res.attempted += sw.attempted
		res.lat = append(res.lat, sw.group)
		calls = append(calls, sw.lat[:]...)
		expect += sw.pushed - sw.popped
		pushed[sw.id] = sw.pushed
		pops += sw.pops
		popped += sw.popped
	}
	if drained != expect {
		res.fail(abs(drained-expect), fmt.Sprintf("conservation: prefill + pushes - pops = %d, drained %d", expect, drained))
	}
	if !rc.traced {
		return res
	}

	logs := []*popLog{drainLog}
	for _, sw := range ws {
		logs = append(logs, sw.log)
		rc.tl.add(sw.spans, samples(sw.lat[:]))
	}
	dups, lost, alien := audit(logs, pushed)
	res.fail(dups, fmt.Sprintf("value check: %d values popped twice", dups))
	res.fail(lost, fmt.Sprintf("value check: %d pushed values never popped", lost))
	res.fail(alien, fmt.Sprintf("value check: %d popped values never pushed", alien))

	kindLat := func(k int) []*reservoir {
		var rs []*reservoir
		for _, sw := range ws {
			rs = append(rs, sw.lat[k])
		}
		return rs
	}
	ops := float64(max(res.attempted, 1))
	perKop := func(n int64) float64 { return 1000 * float64(n) / ops }
	res.layer = map[string]float64{
		"stack.push_ns_p50":         percentiles(kindLat(0), 0.5)[0],
		"stack.pop_ns_p50":          percentiles(kindLat(1), 0.5)[0],
		"stack.peek_ns_p50":         percentiles(kindLat(2), 0.5)[0],
		"stack.op_ns_p99":           percentiles(calls, 0.99)[0],
		"stack.pop_empty_pct":       100 * float64(pops-popped) / float64(max(pops, 1)),
		"agg.batch_degree":          snap.BatchingDegree(),
		"agg.elim_pct":              snap.EliminationPct(),
		"agg.occupancy_pct":         snap.OccupancyPct(),
		"agg.batches_per_kop":       perKop(snap.Batches),
		"agg.spin_avg":              snap.SpinAvg(),
		"agg.fast_path_pct":         snap.FastPathPct(),
		"agg.fast_miss_per_kop":     perKop(snap.FastMisses),
		"agg.reclaim_scans_per_kop": perKop(snap.ReclaimScans),
	}
	res.report = append(res.report, fmt.Sprintf("value check: %d popped or drained values audited against %d pushed: %d duplicated, %d lost, %d never pushed",
		popped+drained, sum(pushed), dups, lost, alien))
	return res
}

// popLog is one popper's record of the tagged values it popped: bit s
// of bits[p] is set once pusher p's s-th value has been popped. Each
// popper writes only its own log, so the hot path needs no atomics;
// audit merges the logs once the poppers are done.
type popLog struct {
	bits  [][]uint64
	dups  int64 // values this popper popped twice
	alien int64 // values carrying no pusher's tag
}

func newPopLog(pushers int) *popLog { return &popLog{bits: make([][]uint64, pushers)} }

func (l *popLog) mark(v int64) {
	p, s := v>>valueBits, v&(1<<valueBits-1)
	if p < 0 || p >= int64(len(l.bits)) {
		l.alien++
		return
	}
	w := int(s / 64)
	for w >= len(l.bits[p]) {
		l.bits[p] = append(l.bits[p], 0)
	}
	bit := uint64(1) << (s % 64)
	if l.bits[p][w]&bit != 0 {
		l.dups++
		return
	}
	l.bits[p][w] |= bit
}

// audit merges the poppers' logs and checks that pusher p's values
// 0..pushed[p]-1 were each popped exactly once and that no other value
// was popped. It returns the values popped twice, the pushed values
// never popped, and the popped values never pushed.
func audit(logs []*popLog, pushed []int64) (dups, lost, alien int64) {
	for _, l := range logs {
		dups += l.dups
		alien += l.alien
	}
	for p, n := range pushed {
		union := make([]uint64, (n+63)/64)
		for _, l := range logs {
			for w, x := range l.bits[p] {
				if w >= len(union) {
					alien += int64(bits.OnesCount64(x))
					continue
				}
				dups += int64(bits.OnesCount64(union[w] & x))
				union[w] |= x
			}
		}
		var seen int64
		for w, x := range union {
			if tail := int64(w+1)*64 - n; tail > 0 {
				// Bits at or past n name values pusher p never pushed.
				over := x &^ (1<<(64-tail) - 1)
				alien += int64(bits.OnesCount64(over))
				x &^= over
			}
			seen += int64(bits.OnesCount64(x))
		}
		lost += n - seen
	}
	return dups, lost, alien
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}
