// Allocation-ceiling guards for the contention-adaptive engine
// (DESIGN.md §8): coarse, deterministic allocs/op bounds that fail CI
// on unexpected allocation growth in the steady-state hot paths,
// without needing benchstat or a baseline artifact. The measured
// regimes are single-goroutine on purpose - that is batch degree 1.0,
// exactly where the seed paid one batch allocation (plus payload) per
// operation and where the recycling + fast-path work claims zero.
package secstack_test

import (
	"testing"

	"secstack/funnel"
	"secstack/internal/core"
	"secstack/pool"
	"secstack/queue"
	"secstack/stack"
)

// allocCeiling is the per-op allocation budget the steady-state paths
// must stay under. The true steady-state rate is 0; the headroom
// absorbs amortized slice growth (retired and free node lists) that
// has not fully settled during warmup.
const allocCeiling = 0.25

// TestAllocCeilingSoloFastPath: with adaptivity on, a single
// uncontended goroutine runs the solo fast path - one Treiber-style
// CAS per op through the per-session scratch batch - and with node +
// batch recycling on top, pays no steady-state heap allocation.
func TestAllocCeilingSoloFastPath(t *testing.T) {
	s := stack.NewSEC[int64](
		stack.WithAggregators(2),
		stack.WithAdaptive(true),
		stack.WithBatchRecycling(true),
		stack.WithRecycling(),
	)
	h := s.Register()
	defer h.Close()
	for i := int64(0); i < 4096; i++ { // settle the node and batch free lists
		h.Push(i)
		h.Pop()
	}
	avg := testing.AllocsPerRun(2000, func() {
		h.Push(7)
		h.Pop()
	})
	if avg > allocCeiling {
		t.Fatalf("solo fast path allocates %.3f allocs/op, ceiling %.2f", avg, allocCeiling)
	}
}

// TestAllocCeilingBatchRecycling: with adaptivity OFF every
// single-threaded operation still pays a full freeze (a singleton
// batch per op - the seed's worst case, one slot-array + payload
// allocation each). Batch recycling must reduce that to zero: frozen
// batches cycle through the per-aggregator free list and the freeze
// path reuses them.
func TestAllocCeilingBatchRecycling(t *testing.T) {
	s := stack.NewSEC[int64](
		stack.WithAggregators(2),
		stack.WithBatchRecycling(true),
		stack.WithRecycling(),
	)
	h := s.Register()
	defer h.Close()
	for i := int64(0); i < 4096; i++ {
		h.Push(i)
		h.Pop()
	}
	avg := testing.AllocsPerRun(2000, func() {
		h.Push(7)
		h.Pop()
	})
	if avg > allocCeiling {
		t.Fatalf("recycling freeze path allocates %.3f allocs/op, ceiling %.2f", avg, allocCeiling)
	}
}

// TestAllocCeilingPoolStealMiss: a Get that misses every shard is one
// solo pop on the home shard plus one steal CAS (TryPop through the
// per-session scratch batch, no announcement) per foreign shard - no
// heap allocation anywhere on the miss path.
func TestAllocCeilingPoolStealMiss(t *testing.T) {
	p := pool.New[int64](
		pool.WithShards(4),
		pool.WithAdaptive(true),
		pool.WithBatchRecycling(true),
	)
	h := p.Register()
	defer h.Close()
	for i := 0; i < 512; i++ { // settle the per-shard scratch batches
		h.Get()
	}
	avg := testing.AllocsPerRun(2000, func() { h.Get() })
	if avg > allocCeiling {
		t.Fatalf("pool Get steal-miss allocates %.3f allocs/op, ceiling %.2f", avg, allocCeiling)
	}
}

// TestAllocCeilingPoolStealHit: recovering an element parked on a
// foreign shard costs the same steal CAS and still nothing on the
// heap (the stolen node itself was allocated by its Put).
func TestAllocCeilingPoolStealHit(t *testing.T) {
	p := pool.New[int64](
		pool.WithShards(4),
		pool.WithAdaptive(true),
		pool.WithBatchRecycling(true),
	)
	consumer := p.Register() // home shard 0
	producer := p.Register() // home shard 1
	defer consumer.Close()
	defer producer.Close()
	const runs = 2000
	for i := 0; i < 512+2*runs; i++ { // warmup drains + one element per run
		producer.Put(int64(i))
	}
	for i := 0; i < 512; i++ {
		consumer.Get()
	}
	avg := testing.AllocsPerRun(runs, func() {
		if _, ok := consumer.Get(); !ok {
			t.Fatal("steal hit ran out of prefilled elements")
		}
	})
	if avg > allocCeiling {
		t.Fatalf("pool Get steal-hit allocates %.3f allocs/op, ceiling %.2f", avg, allocCeiling)
	}
}

// TestAllocCeilingTryPushSteal: a TryPush/TryPop cycle - the steal
// primitives both of the pool's sweeps are built from - is two
// Treiber-style CASes through the session's scratch batch, with the
// node cycling through the handle's free list: nothing on the
// heap in steady state. (The contended-miss sides are pinned at 0 by
// internal/agg's TestTryPushStealBypassesProtocol and the forced
// overflow guards in the pool package.)
func TestAllocCeilingTryPushSteal(t *testing.T) {
	s := core.New[int64](core.Options{Aggregators: 1, MaxThreads: 4, Recycle: true})
	h := s.Register()
	defer h.Close()
	for i := int64(0); i < 4096; i++ { // settle the free list and the scratch batch
		h.TryPush(i)
		h.TryPop()
	}
	avg := testing.AllocsPerRun(2000, func() {
		if !h.TryPush(7) {
			t.Fatal("uncontended TryPush did not apply")
		}
		if _, ok, applied := h.TryPop(); !applied || !ok {
			t.Fatal("uncontended TryPop did not answer")
		}
	})
	if avg > allocCeiling {
		t.Fatalf("TryPush/TryPop steal cycle allocates %.3f allocs/op, ceiling %.2f", avg, allocCeiling)
	}
}

// TestAllocCeilingFunnelSolo: an adaptive funnel's uncontended FetchAdd
// is one hardware fetch&add through the scratch batch - no allocation
// at all.
func TestAllocCeilingFunnelSolo(t *testing.T) {
	f := funnel.New(funnel.WithAdaptive(true))
	h := f.Register()
	defer h.Close()
	for i := 0; i < 512; i++ {
		h.FetchAdd(1)
	}
	avg := testing.AllocsPerRun(2000, func() { h.FetchAdd(1) })
	if avg > allocCeiling {
		t.Fatalf("funnel solo FetchAdd allocates %.3f allocs/op, ceiling %.2f", avg, allocCeiling)
	}
}

// TestAllocCeilingQueue: an uncontended enqueue/dequeue cycle on the
// adaptive queue with batch recycling is two solo TryLock applies to
// the warmed segmented ring, announced through the handle's scratch
// field (not a heap-escaping local) - nothing on the heap in steady
// state. The ring's segments allocate on first touch during warmup
// and are retained, so the measured regime reuses them.
func TestAllocCeilingQueue(t *testing.T) {
	q := queue.New[int64](
		queue.WithCapacity(256),
		queue.WithAdaptive(true),
		queue.WithBatchRecycling(true),
	)
	h := q.Register()
	defer h.Close()
	for i := int64(0); i < 4096; i++ { // touch every segment, settle free lists
		h.Enqueue(i)
		h.Dequeue()
	}
	avg := testing.AllocsPerRun(2000, func() {
		h.Enqueue(7)
		h.Dequeue()
	})
	if avg > allocCeiling {
		t.Fatalf("queue solo enqueue/dequeue allocates %.3f allocs/op, ceiling %.2f", avg, allocCeiling)
	}
}

// TestAllocCeilingQueueTryMiss: the Try* forms' *miss* shapes - a
// TryDequeue observing empty and a TryEnqueue observing full - are one
// solo TryLock apply each and must also stay off the heap: the miss
// result travels through the session's scratch batch's response
// table, never through a fresh allocation.
func TestAllocCeilingQueueTryMiss(t *testing.T) {
	empty := queue.New[int64](
		queue.WithCapacity(8),
		queue.WithAdaptive(true),
		queue.WithBatchRecycling(true),
	)
	he := empty.Register()
	defer he.Close()
	for i := 0; i < 512; i++ { // settle the scratch batch
		he.TryDequeue()
	}
	avg := testing.AllocsPerRun(2000, func() {
		if _, ok := he.TryDequeue(); ok {
			t.Fatal("TryDequeue on an empty queue succeeded")
		}
	})
	if avg > allocCeiling {
		t.Fatalf("TryDequeue empty-miss allocates %.3f allocs/op, ceiling %.2f", avg, allocCeiling)
	}

	full := queue.New[int64](
		queue.WithCapacity(8),
		queue.WithAdaptive(true),
		queue.WithBatchRecycling(true),
	)
	hf := full.Register()
	defer hf.Close()
	for i := int64(0); i < 8; i++ {
		hf.Enqueue(i)
	}
	for i := 0; i < 512; i++ {
		hf.TryEnqueue(9)
	}
	avg = testing.AllocsPerRun(2000, func() {
		if hf.TryEnqueue(9) {
			t.Fatal("TryEnqueue on a full queue succeeded")
		}
	})
	if avg > allocCeiling {
		t.Fatalf("TryEnqueue full-miss allocates %.3f allocs/op, ceiling %.2f", avg, allocCeiling)
	}
}

// TestAllocCeilingImplicitQueue: handle-free Enqueue/Dequeue over a
// warm per-P session cache - the same zero-alloc solo cycle as the
// explicit guard, plus the slot swap.
func TestAllocCeilingImplicitQueue(t *testing.T) {
	q := queue.New[int64](
		queue.WithCapacity(256),
		queue.WithAdaptive(true),
		queue.WithBatchRecycling(true),
	)
	for i := int64(0); i < 4096; i++ {
		q.Enqueue(i)
		q.Dequeue()
	}
	avg := testing.AllocsPerRun(2000, func() {
		q.Enqueue(7)
		q.Dequeue()
	})
	if avg > allocCeiling {
		t.Fatalf("implicit Enqueue/Dequeue allocates %.3f allocs/op, ceiling %.2f", avg, allocCeiling)
	}
}

// TestAllocCeilingImplicitStack: the handle-free path over the solo
// fast path. Once the per-P session cache is warm, an implicit
// Push/Pop is a slot swap (two uncontended atomics) around the same
// zero-alloc solo path the explicit guard above measures - no pool
// lookups, no interface boxing, nothing on the heap. The rare
// registration a mid-measurement P migration triggers is what the
// ceiling's headroom absorbs.
func TestAllocCeilingImplicitStack(t *testing.T) {
	s := stack.NewSEC[int64](
		stack.WithAggregators(2),
		stack.WithAdaptive(true),
		stack.WithBatchRecycling(true),
		stack.WithRecycling(),
	)
	for i := int64(0); i < 4096; i++ { // warm the per-P cache, settle the free lists
		s.Push(i)
		s.Pop()
	}
	avg := testing.AllocsPerRun(2000, func() {
		s.Push(7)
		s.Pop()
	})
	if avg > allocCeiling {
		t.Fatalf("implicit Push/Pop allocates %.3f allocs/op, ceiling %.2f", avg, allocCeiling)
	}
}

// TestAllocCeilingImplicitPool: handle-free Put/Get over a warm per-P
// session cache - the uncontended cycle is the same home-shard solo
// CAS pair as the explicit guard, plus the slot swap.
func TestAllocCeilingImplicitPool(t *testing.T) {
	p := pool.New[int64](
		pool.WithShards(4),
		pool.WithAdaptive(true),
		pool.WithBatchRecycling(true),
		pool.WithRecycling(),
	)
	for i := int64(0); i < 4096; i++ {
		p.Put(i)
		p.Get()
	}
	avg := testing.AllocsPerRun(2000, func() {
		p.Put(7)
		p.Get()
	})
	if avg > allocCeiling {
		t.Fatalf("implicit Put/Get allocates %.3f allocs/op, ceiling %.2f", avg, allocCeiling)
	}
}

// TestAllocCeilingImplicitFunnel: handle-free Add over a warm per-P
// session cache.
func TestAllocCeilingImplicitFunnel(t *testing.T) {
	f := funnel.New(funnel.WithAdaptive(true))
	for i := 0; i < 512; i++ {
		f.Add(1)
	}
	avg := testing.AllocsPerRun(2000, func() { f.Add(1) })
	if avg > allocCeiling {
		t.Fatalf("implicit funnel Add allocates %.3f allocs/op, ceiling %.2f", avg, allocCeiling)
	}
}
