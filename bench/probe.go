package main

import (
	"maps"
	"sync/atomic"
	"time"
)

// The host probe. This host's speed wanders: over minutes its vCPUs run
// faster or slower as neighbours load the machine, and at times the
// hypervisor takes whole time slices away. Every workload's times move
// with it, by more than a 10% bound allows between runs minutes apart.
// So each measured repetition is followed by probeLength of a fixed piece
// of work that calls no secstack code, and the repetition's throughput
// and latencies are scaled by how fast the probe ran against its
// reference speed (adjust). A change to secstack moves the workload and
// not the probe; a change in the host moves both.
const (
	probeLength = 100 * time.Millisecond
	// probeSteps is the arithmetic steps in one timed chunk of the probe,
	// about two microseconds of work: long against the two clock reads
	// around it, short against a stolen time slice.
	probeSteps = 1024
	// refProbeRate (chunks per second, over workers() goroutines) and
	// refChunkNS (the median chunk's ns) are the probe's speed on the
	// reference host: the Intel Xeon 2-vCPU machine BASELINE.json names,
	// measured at a quiet time. They fix the scale of the adjusted
	// metrics, so values stay comparable from run to run.
	refProbeRate = 1.0e6
	refChunkNS   = 1700.0
)

// probeResult is how fast the probe ran.
type probeResult struct {
	rate    float64 // chunks per wall-clock second, summed over the goroutines
	chunkNS float64 // median time of one chunk
}

// probeSink keeps the probe's arithmetic from being optimised away.
var probeSink atomic.Uint64

// hostProbe runs the probe on workers() goroutines for d. Its rate
// counts the time slices the host took away; its median chunk time
// does not, since a stolen slice lands in few chunks.
func hostProbe(d time.Duration) probeResult {
	n := workers()
	rs := make([]*reservoir, n)
	for w := range rs {
		rs[w] = newReservoir(1<<12, uint64(w)+1)
	}
	elapsed, _ := runWindow(n, d, func(w int, stop *atomic.Bool) {
		var table [256]uint64
		h := uint64(w) + 1
		for !stop.Load() {
			t0 := nowNS()
			for range probeSteps {
				h = h*6364136223846793005 + 1442695040888963407
				table[h>>56] += h
			}
			rs[w].add(nowNS() - t0)
		}
		probeSink.Add(h ^ table[0])
	})
	return probeResult{
		rate:    float64(samples(rs)) / elapsed.Seconds(),
		chunkNS: percentiles(rs, 0.5)[0],
	}
}

// adjust scales one repetition's end-to-end metrics to the reference
// host speed. Throughput and the p99 latency absorb time slices the
// host took away, so they scale with the probe's rate; the p50 latency
// is a typical operation that no stolen slice touched, so it scales with
// the probe's median chunk time. Counts, memory and set-up time are left
// as measured.
func adjust(m map[string]float64, p probeResult) map[string]float64 {
	a := maps.Clone(m)
	slow := refProbeRate / p.rate
	a["throughput_ops_s"] *= slow
	a["latency_p99_us"] /= slow
	a["latency_p50_us"] *= refChunkNS / p.chunkNS
	return a
}
