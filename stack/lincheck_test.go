package stack_test

import (
	"sync"
	"testing"

	"secstack/internal/lincheck"
	"secstack/internal/xrand"
	"secstack/stack"
)

// runHistory drives `threads` goroutines, each performing `opsPer`
// random operations on s, and returns the recorded history.
func runHistory(s stack.Stack[int64], threads, opsPer int, seed uint64) []lincheck.Op {
	rec := lincheck.NewRecorder(threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := s.Register()
			rng := xrand.New(seed + uint64(t)*7919)
			base := int64(t+1) << 32
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(4) {
				case 0, 1:
					v := base + int64(i)
					inv := rec.Begin()
					h.Push(v)
					rec.RecordPush(t, v, inv)
				case 2:
					inv := rec.Begin()
					v, ok := h.Pop()
					rec.RecordPop(t, v, ok, inv)
				default:
					inv := rec.Begin()
					v, ok := h.Peek()
					rec.RecordPeek(t, v, ok, inv)
				}
			}
		}(t)
	}
	wg.Wait()
	return rec.History()
}

// TestLinearizabilityAllAlgorithms checks many small concurrent
// histories of every algorithm with the exhaustive checker. History
// sizes stay small enough (<= 16 ops) for the search to be fast.
func TestLinearizabilityAllAlgorithms(t *testing.T) {
	const (
		threads = 4
		opsPer  = 4
		rounds  = 30
	)
	for _, alg := range stack.Algorithms() {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			for r := 0; r < rounds; r++ {
				s, _ := stack.New[int64](alg)
				h := runHistory(s, threads, opsPer, uint64(r)*104729+1)
				if !lincheck.CheckStack(h) {
					for _, op := range h {
						t.Logf("%s", op)
					}
					t.Fatalf("round %d: history not linearizable", r)
				}
			}
		})
	}
}

// TestLinearizabilityRecycledHandleSlots checks linearizability while
// handle slots churn: MaxThreads equals the goroutine count, and every
// goroutine closes and re-registers its handle between operations, so
// each operation may run on a thread id (and aggregator slot) that
// another goroutine's closed handle just vacated. Histories must stay
// linearizable across the recycling boundary.
func TestLinearizabilityRecycledHandleSlots(t *testing.T) {
	const (
		threads = 4
		opsPer  = 4
		rounds  = 25
	)
	for _, alg := range stack.Algorithms() {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			for r := 0; r < rounds; r++ {
				s, err := stack.New[int64](alg, stack.WithMaxThreads(threads))
				if err != nil {
					t.Fatal(err)
				}
				rec := lincheck.NewRecorder(threads)
				var wg sync.WaitGroup
				for tt := 0; tt < threads; tt++ {
					wg.Add(1)
					go func(tt int) {
						defer wg.Done()
						h := s.Register()
						rng := xrand.New(uint64(r)*65537 + uint64(tt)*7919)
						base := int64(tt+1) << 32
						for i := 0; i < opsPer; i++ {
							switch rng.Intn(4) {
							case 0, 1:
								v := base + int64(i)
								inv := rec.Begin()
								h.Push(v)
								rec.RecordPush(tt, v, inv)
							case 2:
								inv := rec.Begin()
								v, ok := h.Pop()
								rec.RecordPop(tt, v, ok, inv)
							default:
								inv := rec.Begin()
								v, ok := h.Peek()
								rec.RecordPeek(tt, v, ok, inv)
							}
							// Churn the slot: the next operation runs on
							// whatever id the free list hands back.
							h.Close()
							h = s.Register()
						}
						h.Close()
					}(tt)
				}
				wg.Wait()
				if h := rec.History(); !lincheck.CheckStack(h) {
					for _, op := range h {
						t.Logf("%s", op)
					}
					t.Fatalf("round %d: recycled-slot history not linearizable", r)
				}
			}
		})
	}
}

// TestLinearizabilitySECVariants stresses the SEC-specific knobs with
// the exhaustive checker.
func TestLinearizabilitySECVariants(t *testing.T) {
	variants := map[string][]stack.Option{
		"Agg1":        {stack.WithAggregators(1)},
		"Agg5":        {stack.WithAggregators(5)},
		"NoElim":      {stack.WithoutElimination()},
		"Recycle":     {stack.WithRecycling()},
		"NoSpin":      {stack.WithFreezerSpin(0)},
		"BigSpin":     {stack.WithFreezerSpin(2048)},
		"Everything":  {stack.WithAggregators(3), stack.WithRecycling(), stack.WithMetrics(), stack.WithFreezerSpin(512)},
		"NoElimRecyc": {stack.WithoutElimination(), stack.WithRecycling()},
		// Contention adaptivity (DESIGN.md §8): the solo fast path races
		// directly-CASing operations against full batch-protocol ones,
		// and batch recycling reuses frozen batches under the checker.
		"Adaptive":        {stack.WithAdaptive(true)},
		"AdaptiveRecycle": {stack.WithAdaptive(true), stack.WithBatchRecycling(true), stack.WithRecycling()},
		"BatchRecycle":    {stack.WithBatchRecycling(true)},
		"AdaptiveAgg5":    {stack.WithAdaptive(true), stack.WithAggregators(5), stack.WithBatchRecycling(true)},
		// Adaptive freezer backoff (DESIGN.md §9): the per-aggregator
		// spin controller retunes the freeze timing mid-history; alone,
		// stacked on the solo fast path + batch recycling (freeze timing
		// interacts with hazard publication), and with a large ceiling so
		// histories straddle grown and decayed spins.
		"AdaptiveSpin":     {stack.WithAdaptiveSpin(true)},
		"AdaptiveSpinBig":  {stack.WithAdaptiveSpin(true), stack.WithFreezerSpin(2048)},
		"AdaptiveSpinFull": {stack.WithAdaptiveSpin(true), stack.WithAdaptive(true), stack.WithBatchRecycling(true), stack.WithRecycling()},
	}
	for name, opt := range variants {
		name, opt := name, opt
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for r := 0; r < 20; r++ {
				s := stack.NewSEC[int64](opt...)
				h := runHistory(s, 4, 4, uint64(r)*31337+5)
				if !lincheck.CheckStack(h) {
					for _, op := range h {
						t.Logf("%s", op)
					}
					t.Fatalf("round %d: history not linearizable", r)
				}
			}
		})
	}
}

// runHistoryImplicit drives `threads` goroutines through the
// handle-free API only - no Register anywhere - so every operation
// borrows a cached per-P session from the implicit layer. Operations
// of one goroutine may run on sessions cached by another (slot
// scavenging, spill-pool handoff); the histories must linearize all
// the same.
func runHistoryImplicit(s stack.Stack[int64], threads, opsPer int, seed uint64) []lincheck.Op {
	rec := lincheck.NewRecorder(threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := xrand.New(seed + uint64(t)*7919)
			base := int64(t+1) << 32
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(4) {
				case 0, 1:
					v := base + int64(i)
					inv := rec.Begin()
					s.Push(v)
					rec.RecordPush(t, v, inv)
				case 2:
					inv := rec.Begin()
					v, ok := s.Pop()
					rec.RecordPop(t, v, ok, inv)
				default:
					inv := rec.Begin()
					v, ok := s.Peek()
					rec.RecordPeek(t, v, ok, inv)
				}
			}
		}(t)
	}
	wg.Wait()
	return rec.History()
}

// TestLinearizabilityImplicitOnly checks histories driven exclusively
// through the implicit API, across the SEC knobs the per-P session
// cache interacts with (solo fast path, batch + node recycling, the
// amortized announcement cadence) and with affinity off (spill-pool
// borrows only). A tight MaxThreads forces slot scavenging into the
// histories too.
func TestLinearizabilityImplicitOnly(t *testing.T) {
	variants := map[string][]stack.Option{
		"Default":  nil,
		"Adaptive": {stack.WithAdaptive(true), stack.WithBatchRecycling(true), stack.WithRecycling()},
		"EagerAnnounce": {stack.WithAdaptive(true), stack.WithBatchRecycling(true),
			stack.WithRecycling(), stack.WithAnnounceEvery(1)},
		"NoAffinity": {stack.WithImplicitSessions(false)},
		// MaxThreads == goroutine count: once every session is minted,
		// an op landing on a P with an empty slot must scavenge one
		// parked under another P instead of registering.
		"TightCap": {stack.WithMaxThreads(4)},
	}
	for name, opt := range variants {
		name, opt := name, opt
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for r := 0; r < 20; r++ {
				s := stack.NewSEC[int64](opt...)
				h := runHistoryImplicit(s, 4, 4, uint64(r)*92821+7)
				if !lincheck.CheckStack(h) {
					for _, op := range h {
						t.Logf("%s", op)
					}
					t.Fatalf("round %d: implicit-only history not linearizable", r)
				}
			}
		})
	}
}

// stealHandle is the steal-capable surface SEC handles
// (internal/core.Handle) expose beyond the public Handle interface:
// the single-CAS TryPush/TryPop primitives the pool's bidirectional
// load balancing is built from.
type stealHandle interface {
	stack.Handle[int64]
	TryPush(v int64) bool
	TryPop() (v int64, ok, applied bool)
}

// runHistoryPutSteal drives mixed histories in which every update
// first attempts its steal primitive - TryPush for pushes, TryPop for
// pops - and escalates to the full batch protocol only when the CAS
// reports contention, exactly as the pool's Put overflow and Get steal
// sweeps do. Applied steals and full-protocol operations must
// linearize together.
func runHistoryPutSteal(s *stack.SECStack[int64], threads, opsPer int, seed uint64) []lincheck.Op {
	rec := lincheck.NewRecorder(threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := s.Register().(stealHandle)
			defer h.Close()
			rng := xrand.New(seed + uint64(t)*7919)
			base := int64(t+1) << 32
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(4) {
				case 0, 1:
					v := base + int64(i)
					inv := rec.Begin()
					if !h.TryPush(v) {
						h.Push(v) // contended steal: full protocol
					}
					rec.RecordPush(t, v, inv)
				case 2:
					inv := rec.Begin()
					v, ok, applied := h.TryPop()
					if !applied {
						v, ok = h.Pop() // contended steal: full protocol
					}
					rec.RecordPop(t, v, ok, inv)
				default:
					inv := rec.Begin()
					v, ok := h.Peek()
					rec.RecordPeek(t, v, ok, inv)
				}
			}
		}(t)
	}
	wg.Wait()
	return rec.History()
}

// TestLinearizabilityPutSteal checks the steal primitives against the
// exhaustive checker across the SEC knobs they interact with: stock
// batching, adaptivity (steals race solo CASes and mode flips), batch
// recycling (scratch batches alongside recycled protocol batches),
// node recycling (steals draw from free lists and retire popped
// nodes under hazard pointers), and
// many shards under adaptive spin.
func TestLinearizabilityPutSteal(t *testing.T) {
	variants := map[string][]stack.Option{
		"PutSteal":         nil,
		"PutStealAdaptive": {stack.WithAdaptive(true), stack.WithBatchRecycling(true)},
		"PutStealRecycle":  {stack.WithRecycling()},
		"PutStealAgg5":     {stack.WithAggregators(5), stack.WithAdaptive(true)},
		"PutStealFull": {stack.WithAdaptive(true), stack.WithBatchRecycling(true),
			stack.WithRecycling(), stack.WithAdaptiveSpin(true)},
	}
	for name, opt := range variants {
		name, opt := name, opt
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for r := 0; r < 20; r++ {
				s := stack.NewSEC[int64](opt...)
				h := runHistoryPutSteal(s, 4, 4, uint64(r)*48611+3)
				if !lincheck.CheckStack(h) {
					for _, op := range h {
						t.Logf("%s", op)
					}
					t.Fatalf("round %d: put-steal history not linearizable", r)
				}
			}
		})
	}
}
