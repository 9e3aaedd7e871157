package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"secstack/internal/pad"
	"secstack/internal/wire"
	"secstack/internal/xrand"
)

// epoch anchors every timestamp the benchmark takes, so client spans,
// server-side I/O events and stack-call spans share one monotonic clock.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// workers is the number of goroutines or connections each workload
// drives: 2, never more than the host has CPUs.
func workers() int { return min(2, runtime.NumCPU()) }

// mixEntry weights one opcode in an operation mix; a mix's weights sum
// to 100. Stack workloads reuse the wire opcodes for push, pop and peek.
type mixEntry struct {
	op     wire.Op
	weight int
}

// The mixes. stackMix and mixedMix are secload's "stack" and "mixed"
// mixes; updateMix is the paper's 10%-update mix.
var (
	elimMix = []mixEntry{
		{wire.OpStackPush, 50}, {wire.OpStackPop, 50},
	}
	updateMix = []mixEntry{
		{wire.OpStackPush, 5}, {wire.OpStackPop, 5}, {wire.OpStackPeek, 90},
	}
	stackMix = []mixEntry{
		{wire.OpStackPush, 45}, {wire.OpStackPop, 45}, {wire.OpStackPeek, 10},
	}
	mixedMix = []mixEntry{
		{wire.OpStackPush, 20}, {wire.OpStackPop, 20},
		{wire.OpPoolPut, 15}, {wire.OpPoolGet, 15},
		{wire.OpFunnelAdd, 15}, {wire.OpFunnelTryAdd, 10}, {wire.OpFunnelLoad, 5},
	}
)

// opStream deals a mix's operations in shuffled blocks of 100 that hold
// each opcode exactly its weight, so every window runs the stated mix
// and a worker's pushes and pops never drift apart by more than one
// block's worth. With the prefill that keeps stack pops from ever
// finding the stack empty, and it keeps the live element count - and
// with it the heap - the same from run to run.
//
// A worker writes its stream on every operation. The padding keeps two
// workers' streams, allocated one after the other, off a shared cache
// line, so that the benchmark's own false sharing cannot come and go
// with where the allocator put them. In 24 alternating 3 s runs of
// stack-readmostly, padding this and the other per-worker state cut the
// seed-to-seed spread of throughput from 9.0% to 5.7%.
type opStream struct {
	_     [pad.CacheLine]byte
	rng   xrand.State
	block [100]wire.Op
	i     int
	_     [pad.CacheLine]byte
}

func newOpStream(mix []mixEntry, seed uint64) *opStream {
	var ops []wire.Op
	for _, e := range mix {
		for range e.weight {
			ops = append(ops, e.op)
		}
	}
	s := &opStream{rng: *xrand.New(seed)}
	if len(ops) != len(s.block) {
		panic(fmt.Sprintf("bench: mix weights sum to %d, want %d", len(ops), len(s.block)))
	}
	copy(s.block[:], ops)
	s.i = len(s.block)
	return s
}

func (s *opStream) next() wire.Op {
	if s.i == len(s.block) {
		for i := len(s.block) - 1; i > 0; i-- {
			j := s.rng.Intn(i + 1)
			s.block[i], s.block[j] = s.block[j], s.block[i]
		}
		s.i = 0
	}
	op := s.block[s.i]
	s.i++
	return op
}

// valueBits is the width of the sequence number in a tagged value; the
// bits above it name the worker that pushed the value.
const valueBits = 40

func tag(worker int, seq int64) int64 { return int64(worker)<<valueBits | seq }

// repConfig is one repetition's settings.
type repConfig struct {
	seed   uint64
	window time.Duration
	// traced turns on per-call timing spans, engine counters and the
	// value-exact check; spans go to tl.
	traced bool
	tl     *traceLog
	// traceEvery samples every traceEvery-th request of a traced served
	// connection for the latency decomposition, so the samples span the
	// whole window.
	traceEvery int64
	// altAPI runs a stack workload through the other session API
	// (explicit handles instead of the handle-free calls, or the
	// reverse): the traced run's isession arm.
	altAPI bool
}

// repResult is what one repetition measured.
type repResult struct {
	attempted int64 // operations issued
	failed    int64 // operations failed, lost, refused or unaccounted for
	elapsed   time.Duration
	setup     time.Duration
	lat       []*reservoir // client-observed latency samples
	rt        runtimeDelta
	heapLive  int64              // bytes live after the window, over the pre-construction heap
	layer     map[string]float64 // per-layer metrics, traced reps only
	notes     []string           // violations found, each counted in failed
	report    []string           // traced reps: lines to print besides the metrics
}

// fail counts n failures with a note saying what they were.
func (r *repResult) fail(n int64, note string) {
	if n == 0 {
		return
	}
	r.failed += n
	r.notes = append(r.notes, note)
}

// e2e derives the end-to-end metrics of one repetition.
func (r *repResult) e2e() map[string]float64 {
	p := percentiles(r.lat, 0.50, 0.99)
	ok := float64(r.attempted - r.failed)
	return map[string]float64{
		"throughput_ops_s": ok / r.elapsed.Seconds(),
		"latency_p50_us":   p[0] / 1e3,
		"latency_p99_us":   p[1] / 1e3,
		"error_rate":       float64(r.failed) / float64(max(r.attempted, 1)),
		"allocs_per_op":    float64(r.rt.mallocs) / max(ok, 1),
		"heap_live_kb":     float64(r.heapLive) / 1024,
		"setup_s":          r.setup.Seconds(),
	}
}

// nsPerOp is the mean time one worker spent per operation.
func (r *repResult) nsPerOp() float64 {
	return float64(r.elapsed.Nanoseconds()) * float64(workers()) / float64(max(r.attempted, 1))
}

// runtimeDelta is what the Go runtime and the kernel counted over one
// measurement window.
type runtimeDelta struct {
	mallocs    uint64
	schedP99us float64 // p99 goroutine run-queue wait
	gcCPUPct   float64 // GC CPU time over GOMAXPROCS x wall time
	cpuCores   float64 // process user+system CPU time over wall time
}

var runtimeSamples = []metrics.Sample{
	{Name: "/sched/latencies:seconds"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

type runtimeMark struct {
	at      time.Time
	mallocs uint64
	sched   []uint64
	buckets []float64
	gcCPU   float64
	cpu     time.Duration
}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	h := s[0].Value.Float64Histogram()
	return runtimeMark{
		at:      time.Now(),
		mallocs: ms.Mallocs,
		sched:   append([]uint64(nil), h.Counts...),
		buckets: h.Buckets,
		gcCPU:   s[1].Value.Float64(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

func (a runtimeMark) until(b runtimeMark) runtimeDelta {
	wall := b.at.Sub(a.at).Seconds()
	d := runtimeDelta{
		mallocs:  b.mallocs - a.mallocs,
		gcCPUPct: 100 * (b.gcCPU - a.gcCPU) / (wall * float64(runtime.GOMAXPROCS(0))),
		cpuCores: (b.cpu - a.cpu).Seconds() / wall,
	}
	counts := make([]uint64, len(b.sched))
	var total uint64
	for i := range counts {
		counts[i] = b.sched[i] - a.sched[i]
		total += counts[i]
	}
	// Interpolate the 99th percentile by rank within its bucket.
	target, cum := 0.99*float64(total), 0.0
	for i, c := range counts {
		if c > 0 && cum+float64(c) >= target {
			lo, hi := b.buckets[i], b.buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = lo
			}
			d.schedP99us = 1e6 * (lo + (hi-lo)*(target-cum)/float64(c))
			break
		}
		cum += float64(c)
	}
	return d
}

// runWindow runs body on n goroutines for d - each polls stop between
// operations - and returns how long they ran and what the runtime
// counted meanwhile.
func runWindow(n int, d time.Duration, body func(w int, stop *atomic.Bool)) (time.Duration, runtimeDelta) {
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		gate = make(chan struct{})
	)
	for w := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			body(w, &stop)
		}()
	}
	before := markRuntime()
	close(gate)
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	after := markRuntime()
	return after.at.Sub(before.at), before.until(after)
}

// liveHeap collects garbage and returns the bytes still allocated. The
// second collection empties the sync.Pool victim caches the first one
// filled.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
