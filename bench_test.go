// Benchmark families regenerating the paper's evaluation, one family
// per distinct experiment shape (see DESIGN.md §3):
//
//	BenchmarkFig2   - throughput, 100%/50%/10% update mixes, all algorithms
//	BenchmarkFig3   - push-only and pop-only workloads, all algorithms
//	BenchmarkFig4   - SEC aggregator-count sweep (1..5)
//	BenchmarkTable1 - SEC batching/elimination/combining degrees
//
// plus the ablations DESIGN.md calls out:
//
//	BenchmarkAblationFreezerBackoff - freezer pre-freeze spin sweep
//	BenchmarkAblationNoElimination  - combining-only SEC vs full SEC
//	BenchmarkAblationReclaim        - node recycling on/off
//	BenchmarkAblationFastPath       - contention-adaptive solo fast path on/off (reports allocs)
//	BenchmarkAblationBatchReuse     - batch recycling on/off (reports allocs)
//	BenchmarkAblationSpin           - fixed FreezerSpin ladder vs the adaptive spin controller
//	BenchmarkPoolSteal              - pool Get peek-then-steal, hit and miss paths (reports allocs)
//
// Each family runs at two contention levels: "sub" (goroutines ==
// GOMAXPROCS) and "over" (4x GOMAXPROCS, reproducing the paper's
// oversubscribed right-hand figure regions). Thread-ladder sweeps over
// the paper's full machine configurations are driven by cmd/secbench.
package secstack_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"secstack/internal/harness"
	"secstack/internal/xrand"
	"secstack/pool"
	"secstack/stack"
)

// contention levels: SetParallelism multiplies GOMAXPROCS.
var parallelisms = []struct {
	name string
	par  int
}{
	{"sub", 1},
	{"over", 4},
}

// benchMix drives one stack with a workload mix under b.RunParallel.
func benchMix(b *testing.B, f harness.Factory, wl harness.Workload, prefill, par int) {
	b.Helper()
	s := f()
	if prefill > 0 {
		h := s.Register()
		for i := 0; i < prefill; i++ {
			h.Push(int64(1)<<48 | int64(i))
		}
		h.Close()
	}
	var tid atomic.Int64
	b.SetParallelism(par)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		t := tid.Add(1)
		h := s.Register()
		defer h.Close()
		rng := xrand.New(uint64(t) * 7919)
		base := t << 32
		i := int64(0)
		for pb.Next() {
			switch wl.Pick(rng.Intn(100)) {
			case harness.OpPush:
				h.Push(base | i)
			case harness.OpPop:
				h.Pop()
			case harness.OpPeek:
				h.Peek()
			}
			i++
		}
	})
}

// BenchmarkFig2 is the paper's Figure 2 family (throughput under the
// three update mixes, six algorithms). The paper's per-machine thread
// ladders are swept by `secbench -fig 2a|2b|5|9`.
func BenchmarkFig2(b *testing.B) {
	for _, wl := range harness.UpdateWorkloads() {
		for _, alg := range stack.Algorithms() {
			for _, p := range parallelisms {
				b.Run(fmt.Sprintf("%s/%s/%s", wl.Name, alg, p.name), func(b *testing.B) {
					benchMix(b, harness.FactoryFor(alg, stack.WithAggregators(2)), wl, 1000, p.par)
				})
			}
		}
	}
}

// BenchmarkFig3 is the paper's Figure 3 family (push-only / pop-only).
// Pop-only runs against a deep prefill, as the paper's pop benchmark
// drains a prefilled stack.
func BenchmarkFig3(b *testing.B) {
	for _, wl := range []harness.Workload{harness.PushOnly, harness.PopOnly} {
		prefill := 1000
		if wl.Name == harness.PopOnly.Name {
			prefill = 1 << 20
		}
		for _, alg := range stack.Algorithms() {
			for _, p := range parallelisms {
				b.Run(fmt.Sprintf("%s/%s/%s", wl.Name, alg, p.name), func(b *testing.B) {
					benchMix(b, harness.FactoryFor(alg, stack.WithAggregators(2)), wl, prefill, p.par)
				})
			}
		}
	}
}

// BenchmarkFig4 is the paper's Figure 4 family: SEC with 1..5
// aggregators under the three update mixes plus push-only.
func BenchmarkFig4(b *testing.B) {
	workloads := append(harness.UpdateWorkloads(), harness.PushOnly)
	for _, wl := range workloads {
		for aggs := 1; aggs <= 5; aggs++ {
			for _, p := range parallelisms {
				b.Run(fmt.Sprintf("%s/SEC_Agg%d/%s", wl.Name, aggs, p.name), func(b *testing.B) {
					benchMix(b, harness.FactoryFor(stack.SEC, stack.WithAggregators(aggs)), wl, 1000, p.par)
				})
			}
		}
	}
}

// BenchmarkTable1 reproduces the degree measurements of the paper's
// Tables 1-3: it runs the instrumented SEC stack and reports batching
// degree, %elimination and %combining as custom benchmark metrics.
func BenchmarkTable1(b *testing.B) {
	for _, wl := range harness.UpdateWorkloads() {
		b.Run(wl.Name, func(b *testing.B) {
			s := stack.NewSEC[int64](stack.WithAggregators(2), stack.WithMetrics())
			h0 := s.Register()
			for i := 0; i < 1000; i++ {
				h0.Push(int64(i))
			}
			var tid atomic.Int64
			b.SetParallelism(2)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				t := tid.Add(1)
				h := s.Register()
				defer h.Close()
				rng := xrand.New(uint64(t) * 104729)
				i := int64(0)
				for pb.Next() {
					switch wl.Pick(rng.Intn(100)) {
					case harness.OpPush:
						h.Push(i)
					case harness.OpPop:
						h.Pop()
					case harness.OpPeek:
						h.Peek()
					}
					i++
				}
			})
			b.StopTimer()
			snap := s.Metrics().Snapshot()
			b.ReportMetric(snap.BatchingDegree(), "batch-degree")
			b.ReportMetric(snap.EliminationPct(), "%elim")
			b.ReportMetric(snap.CombiningPct(), "%comb")
			b.ReportMetric(snap.OccupancyPct(), "%occ")
		})
	}
}

// BenchmarkAblationFreezerBackoff sweeps the freezer's batch-growing
// spin (§3.1: "a short backoff ... results in enhanced performance").
func BenchmarkAblationFreezerBackoff(b *testing.B) {
	for _, spin := range []int{0, 32, 128, 512, 2048} {
		b.Run(fmt.Sprintf("spin=%d", spin), func(b *testing.B) {
			f := func() stack.Stack[int64] {
				return stack.NewSEC[int64](stack.WithAggregators(2), stack.WithFreezerSpin(spin))
			}
			benchMix(b, f, harness.Update100, 1000, 4)
		})
	}
}

// BenchmarkAblationNoElimination isolates elimination's contribution:
// full SEC vs freezing+combining only, on the elimination-friendliest
// mix (100% updates).
func BenchmarkAblationNoElimination(b *testing.B) {
	for _, noElim := range []bool{false, true} {
		name := "full"
		if noElim {
			name = "no-elim"
		}
		b.Run(name, func(b *testing.B) {
			f := func() stack.Stack[int64] {
				opts := []stack.Option{stack.WithAggregators(2)}
				if noElim {
					opts = append(opts, stack.WithoutElimination())
				}
				return stack.NewSEC[int64](opts...)
			}
			benchMix(b, f, harness.Update100, 1000, 4)
		})
	}
}

// BenchmarkAblationFastPath isolates the contention-adaptive solo fast
// path (DESIGN.md §8): stock SEC vs WithAdaptive, at both contention
// levels, under the mix where the seed's EXPERIMENTS.md recorded the
// ~10x gap to the CAS baselines at batch degree 1.0. Allocations are
// reported so the scratch-batch path's zero-alloc claim is visible in
// -benchmem runs.
func BenchmarkAblationFastPath(b *testing.B) {
	for _, adaptive := range []bool{false, true} {
		name := "batched"
		if adaptive {
			name = "adaptive"
		}
		for _, p := range parallelisms {
			b.Run(fmt.Sprintf("%s/%s", name, p.name), func(b *testing.B) {
				b.ReportAllocs()
				f := func() stack.Stack[int64] {
					return stack.NewSEC[int64](stack.WithAggregators(2), stack.WithAdaptive(adaptive))
				}
				benchMix(b, f, harness.Update100, 1000, p.par)
			})
		}
	}
}

// BenchmarkAblationBatchReuse isolates batch recycling (DESIGN.md §8):
// the full batch protocol with freshly allocated batches vs recycled
// ones, node recycling on in both arms so the remaining allocations
// are the freeze path's own. The adaptive fast path stays off so every
// operation pays a freeze at low thread counts - the regime whose
// per-op batch allocation motivated recycling.
func BenchmarkAblationBatchReuse(b *testing.B) {
	for _, reuse := range []bool{false, true} {
		name := "alloc"
		if reuse {
			name = "reuse"
		}
		for _, p := range parallelisms {
			b.Run(fmt.Sprintf("%s/%s", name, p.name), func(b *testing.B) {
				b.ReportAllocs()
				f := func() stack.Stack[int64] {
					opts := []stack.Option{stack.WithAggregators(2), stack.WithRecycling()}
					if reuse {
						opts = append(opts, stack.WithBatchRecycling(true))
					}
					return stack.NewSEC[int64](opts...)
				}
				benchMix(b, f, harness.Update100, 1000, p.par)
			})
		}
	}
}

// BenchmarkAblationSpin is the freezer-backoff ablation (DESIGN.md
// §9): SEC across fixed FreezerSpin settings against the adaptive
// controller bounded by the ladder's top rung. The claim: adaptive
// spin tracks the best fixed setting in each regime (decayed to ~0
// where batches freeze near-empty, grown toward the ceiling where the
// backoff buys batch degree) while the worst fixed setting pays for
// one regime in the other. cmd/secbench -fig spin sweeps the same
// ladder across full thread ladders.
func BenchmarkAblationSpin(b *testing.B) {
	variants := []struct {
		name string
		opts []stack.Option
	}{
		{"fixed0", []stack.Option{stack.WithFreezerSpin(0)}},
		{"fixed128", []stack.Option{stack.WithFreezerSpin(128)}},
		{"fixed2048", []stack.Option{stack.WithFreezerSpin(2048)}},
		{"adaptive", []stack.Option{stack.WithFreezerSpin(2048), stack.WithAdaptiveSpin(true)}},
	}
	for _, v := range variants {
		for _, p := range parallelisms {
			b.Run(fmt.Sprintf("%s/%s", v.name, p.name), func(b *testing.B) {
				opts := append([]stack.Option{stack.WithAggregators(2)}, v.opts...)
				f := func() stack.Stack[int64] { return stack.NewSEC[int64](opts...) }
				benchMix(b, f, harness.Update100, 1000, p.par)
			})
		}
	}
}

// BenchmarkPoolSteal measures the pool's peek-then-steal Get
// (DESIGN.md §9). "miss" is a Get over an empty pool - one solo pop on
// the home shard plus one steal CAS per foreign shard; "hit" recovers
// elements a producer parks on a foreign shard. Allocations are
// reported: both paths claim 0 allocs/op on the Get side (the hit pair
// includes the Put's node allocation).
func BenchmarkPoolSteal(b *testing.B) {
	newPool := func() *pool.Pool[int64] {
		return pool.New[int64](pool.WithShards(4), pool.WithAdaptive(true), pool.WithBatchRecycling(true))
	}
	b.Run("miss", func(b *testing.B) {
		p := newPool()
		h := p.Register()
		defer h.Close()
		for i := 0; i < 512; i++ {
			h.Get()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Get()
		}
	})
	b.Run("hit", func(b *testing.B) {
		p := newPool()
		consumer := p.Register() // home shard 0
		producer := p.Register() // home shard 1
		defer consumer.Close()
		defer producer.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			producer.Put(int64(i))
			consumer.Get()
		}
	})
}

// BenchmarkAblationReclaim measures the cost/benefit of recycling
// popped nodes under hazard pointers instead of leaving them to the
// garbage collector.
func BenchmarkAblationReclaim(b *testing.B) {
	for _, recycle := range []bool{false, true} {
		name := "gc"
		if recycle {
			name = "recycle"
		}
		b.Run(name, func(b *testing.B) {
			f := func() stack.Stack[int64] {
				opts := []stack.Option{stack.WithAggregators(2)}
				if recycle {
					opts = append(opts, stack.WithRecycling())
				}
				return stack.NewSEC[int64](opts...)
			}
			benchMix(b, f, harness.Update100, 1000, 4)
		})
	}
}
