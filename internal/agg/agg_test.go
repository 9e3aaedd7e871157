package agg

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"secstack/internal/metrics"
	"secstack/internal/pad"
)

func TestEliminators(t *testing.T) {
	cases := []struct{ push, pop, want int64 }{
		{0, 0, 0}, {5, 0, 0}, {0, 5, 0}, {3, 5, 3}, {5, 3, 3}, {4, 4, 4},
	}
	for _, c := range cases {
		if got := PairElim(c.push, c.pop); got != c.want {
			t.Fatalf("PairElim(%d, %d) = %d, want %d", c.push, c.pop, got, c.want)
		}
		if got := NoElim(c.push, c.pop); got != 0 {
			t.Fatalf("NoElim(%d, %d) = %d, want 0", c.push, c.pop, got)
		}
	}
}

// noopSpec is an engine whose appliers do nothing; enough for lifecycle
// and sizing mechanics.
func noopSpec(aggs, maxThreads int, partitioned bool) Spec[int64, struct{}] {
	return Spec[int64, struct{}]{
		Aggregators: aggs,
		MaxThreads:  maxThreads,
		Partitioned: partitioned,
		ApplyPush:   func(int, *Batch[int64, struct{}], int64, int64) {},
		ApplyPop:    func(int, int, *Batch[int64, struct{}], int64, int64) {},
	}
}

func TestBatchSizingPartitioned(t *testing.T) {
	e := New(noopSpec(2, 64, true))
	if got := e.NewBatch().Cap(); got != 4 {
		t.Fatalf("empty engine batch size = %d, want minimum 4", got)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.Register(); err != nil {
			t.Fatal(err)
		}
	}
	// 10 sessions over 2 aggregators -> 5 per aggregator.
	if got := e.NewBatch().Cap(); got != 5 {
		t.Fatalf("batch size with 10 sessions = %d, want 5", got)
	}
}

func TestBatchSizingUnpartitioned(t *testing.T) {
	// Unpartitioned (deque-style): every live session may land on one
	// aggregator, so batches are sized for all of them.
	e := New(noopSpec(2, 64, false))
	for i := 0; i < 10; i++ {
		if _, err := e.Register(); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.NewBatch().Cap(); got != 10 {
		t.Fatalf("unpartitioned batch size with 10 sessions = %d, want 10", got)
	}
}

func TestBatchSizingCappedAtMaxThreads(t *testing.T) {
	e := New(noopSpec(2, 8, true))
	for i := 0; i < 8; i++ {
		if _, err := e.Register(); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.NewBatch().Cap(); got != 4 {
		t.Fatalf("batch size = %d, want per-aggregator cap 4", got)
	}
}

func TestFreezeClampsAndInstalls(t *testing.T) {
	e := New(noopSpec(1, 64, true))
	old := e.ActiveBatch(0)
	b := e.NewBatch() // 4 slots (no sessions, minimum)
	b.PushCount.Store(10)
	b.PopCount.Store(2)
	e.Freeze(0, b)
	if got := b.PushAtFreeze.Load(); got != 4 {
		t.Fatalf("PushAtFreeze = %d, want clamped 4", got)
	}
	if got := b.PopAtFreeze.Load(); got != 2 {
		t.Fatalf("PopAtFreeze = %d, want 2", got)
	}
	if e.ActiveBatch(0) == old {
		t.Fatal("Freeze did not install a fresh batch")
	}
}

func TestSessionRecycling(t *testing.T) {
	e := New(noopSpec(2, 2, true))
	a, err := e.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register(); err == nil {
		t.Fatal("Register succeeded past MaxThreads live sessions")
	}
	e.Release(a)
	if e.InUse() != 1 {
		t.Fatalf("InUse = %d after release, want 1", e.InUse())
	}
	if _, err := e.Register(); err != nil {
		t.Fatalf("Register after Release: %v", err)
	}
}

func TestMetricsOccupancyTwoSided(t *testing.T) {
	m := metrics.NewSEC(1)
	spec := noopSpec(1, 64, true)
	spec.Metrics = m
	e := New(spec)
	b := e.NewBatch() // 4 slots -> two-sided op capacity 8
	b.PushCount.Store(3)
	b.PopCount.Store(1)
	e.Freeze(0, b)
	snap := m.Snapshot()
	if snap.Batches != 1 || snap.Ops != 4 {
		t.Fatalf("snapshot = %+v, want 1 batch / 4 ops", snap)
	}
	if snap.Eliminated != 2 {
		t.Fatalf("eliminated = %d, want 2 (one pair)", snap.Eliminated)
	}
	if snap.Capacity != 8 {
		t.Fatalf("capacity = %d, want 8", snap.Capacity)
	}
	if got := snap.OccupancyPct(); got != 50 {
		t.Fatalf("occupancy = %.1f%%, want 50%%", got)
	}
}

func TestMetricsOccupancySingleSided(t *testing.T) {
	m := metrics.NewSEC(1)
	spec := noopSpec(1, 64, true)
	spec.Metrics = m
	spec.SingleSided = true
	spec.Eliminate = NoElim
	e := New(spec)
	b := e.NewBatch() // 4 slots -> single-sided op capacity 4
	b.PushCount.Store(3)
	e.Freeze(0, b)
	snap := m.Snapshot()
	if snap.Eliminated != 0 {
		t.Fatalf("identity eliminator recorded %d eliminated ops", snap.Eliminated)
	}
	if snap.Capacity != 4 {
		t.Fatalf("capacity = %d, want 4", snap.Capacity)
	}
	if got := snap.OccupancyPct(); got != 75 {
		t.Fatalf("occupancy = %.1f%%, want 75%%", got)
	}
}

// applyLog is a payload that counts applier invocations per batch.
type applyLog struct {
	pushCalls atomic.Int64
	popCalls  atomic.Int64
}

// TestCombinerUniqueness drives a push/pop mix hard and asserts the
// engine elected exactly one combiner per side per frozen batch - the
// at-most-once applier contract every structure's applier relies on.
func TestCombinerUniqueness(t *testing.T) {
	var batches sync.Map // *Batch -> struct{}
	e := New(Spec[int64, *applyLog]{
		Aggregators: 2,
		MaxThreads:  64,
		FreezerSpin: 64,
		Partitioned: true,
		MakeData:    func(int) *applyLog { return &applyLog{} },
		ApplyPush: func(_ int, b *Batch[int64, *applyLog], _, _ int64) {
			batches.Store(b, struct{}{})
			b.Data.pushCalls.Add(1)
		},
		ApplyPop: func(_, _ int, b *Batch[int64, *applyLog], _, _ int64) {
			batches.Store(b, struct{}{})
			b.Data.popCalls.Add(1)
		},
	})
	const g, per = 8, 3000
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		id, err := e.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w, id int) {
			defer wg.Done()
			val := int64(1)
			agg := e.AggOf(id)
			for i := 0; i < per; i++ {
				if (w+i)%2 == 0 {
					e.Push(id, agg, &val)
				} else {
					e.Pop(id, agg)
				}
			}
		}(w, id)
	}
	wg.Wait()
	batches.Range(func(k, _ any) bool {
		b := k.(*Batch[int64, *applyLog])
		if n := b.Data.pushCalls.Load(); n > 1 {
			t.Fatalf("push applier ran %d times on one batch", n)
		}
		if n := b.Data.popCalls.Load(); n > 1 {
			t.Fatalf("pop applier ran %d times on one batch", n)
		}
		return true
	})
}

// TestEliminationHandshake checks the elimination fast path end to end:
// a pop that eliminates receives exactly the record its push partner
// announced, and eliminated operations never reach an applier.
func TestEliminationHandshake(t *testing.T) {
	var applied atomic.Int64
	e := New(Spec[int64, struct{}]{
		Aggregators: 1,
		MaxThreads:  8,
		// Grow batches well past backoff's spins-per-yield threshold so
		// the freezer's spin reaches a Gosched: that guarantees the
		// opposite side gets scheduled into the batch even on a single
		// CPU, where shorter spins serialize the workers into singleton
		// batches.
		FreezerSpin: 1 << 16,
		Partitioned: true,
		ApplyPush: func(_ int, b *Batch[int64, struct{}], seq, pushAtF int64) {
			applied.Add(pushAtF - seq)
		},
		ApplyPop: func(_, _ int, b *Batch[int64, struct{}], el, popAtF int64) {
			applied.Add(popAtF - el)
		},
	})
	const g = 4
	per := 2000
	if testing.Short() {
		per = 200 // the large freezer spin is slow under -race -short
	}
	var wg sync.WaitGroup
	var eliminated atomic.Int64
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := make([]int64, per)
			for i := 0; i < per; i++ {
				if w%2 == 0 {
					vals[i] = int64(w)<<32 | int64(i)
					pt := e.Push(0, 0, &vals[i])
					if pt.Eliminated {
						eliminated.Add(1)
					}
				} else {
					pt := e.Pop(0, 0)
					if pt.Elim != nil {
						eliminated.Add(1)
						if *pt.Elim>>32%2 != 0 {
							t.Error("eliminated pop received a record no push announced")
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if eliminated.Load() == 0 {
		t.Fatal("balanced mix with large batches eliminated nothing")
	}
	if eliminated.Load()%2 != 0 {
		t.Fatalf("eliminated count %d is odd (elimination is pairwise)", eliminated.Load())
	}
	if total := applied.Load() + eliminated.Load(); total > int64(g*per) {
		t.Fatalf("applied %d + eliminated %d exceeds %d operations",
			applied.Load(), eliminated.Load(), g*per)
	}
}

// TestAggregatorPadding pins the layout property the aggregator's pads
// exist for: the struct is a whole number of cache lines, so in the
// engine's aggs slice no aggregator's hot batch pointer shares a line
// with a neighbour's fields (the recycling list headers in particular,
// which every Freeze rewrites).
func TestAggregatorPadding(t *testing.T) {
	size := unsafe.Sizeof(aggregator[int64, struct{}]{})
	if size%pad.CacheLine != 0 {
		t.Fatalf("sizeof(aggregator) = %d, not a multiple of the %d-byte cache line", size, pad.CacheLine)
	}
	if off := unsafe.Offsetof(aggregator[int64, struct{}]{}.limbo); off < pad.CacheLine {
		t.Fatalf("limbo at offset %d shares the batch pointer's cache line", off)
	}
}

// TestRecycledBatchAliasing is the freeze-recycle-refill aliasing
// check: a batch that cycles through the per-aggregator free list must
// come back with every announcement slot cleared, counters and flags
// zeroed, and its payload reset through the ResetData hook - a stale
// slot would satisfy the next incarnation's WaitSlot with the wrong
// record, and a stale payload would leak a previous incarnation's
// results.
func TestRecycledBatchAliasing(t *testing.T) {
	e := New(Spec[int64, []int64]{
		Aggregators: 1,
		MaxThreads:  4,
		Partitioned: true,
		Recycle:     true,
		Eliminate:   NoElim,
		MakeData:    func(n int) []int64 { return make([]int64, n) },
		ResetData: func(p *[]int64) {
			for i := range *p {
				(*p)[i] = -1 // reset marker the test looks for
			}
		},
		ApplyPush: func(_ int, b *Batch[int64, []int64], seq, pushAtF int64) {
			for i := seq; i < pushAtF; i++ {
				b.Data[i] = *b.WaitSlot(i) + 100
			}
		},
		ApplyPop: func(int, int, *Batch[int64, []int64], int64, int64) {},
	})
	id, err := e.Register()
	if err != nil {
		t.Fatal(err)
	}

	// Each singleton push freezes the active batch and retires it to
	// limbo; the reclaim epoch defers the hazard scan until
	// reclaimPeriod freezes have passed, after which quiescent batches
	// cycle back through the free list. Run until the installed batch
	// is one we have seen before - that is a recycled batch, reset by
	// the freezer and not yet touched by any announcer.
	seen := map[*Batch[int64, []int64]]bool{e.ActiveBatch(0): true}
	var active *Batch[int64, []int64]
	for i := 1; ; i++ {
		if i > 4*reclaimPeriod {
			t.Fatalf("no batch recycled within %d freezes (free list bypassed)", 4*reclaimPeriod)
		}
		v := int64(i)
		e.Push(id, 0, &v)
		e.Done(id)
		active = e.ActiveBatch(0)
		if seen[active] {
			break
		}
		seen[active] = true
	}
	if scans, _ := e.ReclaimStats(0); scans == 0 {
		t.Fatal("batch recycled without any hazard scan recorded")
	}
	if got := active.PushCount.Load(); got != 0 {
		t.Fatalf("recycled batch PushCount = %d, want 0", got)
	}
	if got := active.PushAtFreeze.Load(); got != 0 {
		t.Fatalf("recycled batch PushAtFreeze = %d, want 0", got)
	}
	if active.frozen.Load() || active.pushApplied.Load() || active.popApplied.Load() {
		t.Fatal("recycled batch came back with freeze/applied flags set")
	}
	for i := 0; i < active.Cap(); i++ {
		if p := active.Slot(int64(i)); p != nil {
			t.Fatalf("recycled batch slot %d still holds record %d", i, *p)
		}
	}
	for i, d := range active.Data {
		if d != -1 {
			t.Fatalf("recycled batch payload[%d] = %d, want reset marker -1", i, d)
		}
	}

	// Refill: the recycled batch must serve a fresh value, not an
	// aliased one from its first life.
	v3 := int64(33)
	pt := e.Push(id, 0, &v3)
	if got := pt.B.Data[pt.Seq]; got != 133 {
		t.Fatalf("refilled recycled batch served %d, want 133", got)
	}
	e.Done(id)
}

// TestAdaptiveSpinDecaysAndRegrows drives the freezer-backoff
// controller through both regimes by hand-freezing batches: sustained
// near-empty freezes must decay the effective spin from the configured
// value to zero (solo-ish load stops paying the backoff), and
// sustained well-filled freezes must grow it back, never past the
// configured ceiling.
func TestAdaptiveSpinDecaysAndRegrows(t *testing.T) {
	const ceiling = 256
	m := metrics.NewSEC(1)
	spec := noopSpec(1, 64, true)
	spec.FreezerSpin = ceiling
	spec.AdaptiveSpin = true
	spec.Metrics = m
	e := New(spec)
	if got := e.EffectiveSpin(0); got != ceiling {
		t.Fatalf("initial effective spin = %d, want configured %d", got, ceiling)
	}
	// Singleton batches: degree 1.0, below the decay threshold.
	for i := 0; i < 16; i++ {
		b := e.NewBatch()
		b.PushCount.Store(1)
		e.Freeze(0, b)
	}
	if got := e.EffectiveSpin(0); got != 0 {
		t.Fatalf("effective spin after near-empty freezes = %d, want 0", got)
	}
	// Full batches: 4 slots per side -> degree 8, above the growth
	// threshold.
	for i := 0; i < 32; i++ {
		b := e.NewBatch()
		b.PushCount.Store(int64(b.Cap()))
		b.PopCount.Store(int64(b.Cap()))
		e.Freeze(0, b)
		if got := e.EffectiveSpin(0); got > ceiling {
			t.Fatalf("effective spin %d exceeds configured ceiling %d", got, ceiling)
		}
	}
	if got := e.EffectiveSpin(0); got != ceiling {
		t.Fatalf("effective spin after well-filled freezes = %d, want ceiling %d", got, ceiling)
	}
	// The metrics collector saw the spin every batch actually paid, so
	// the average sits strictly between the extremes.
	if avg := m.Snapshot().SpinAvg(); avg <= 0 || avg >= ceiling {
		t.Fatalf("SpinAvg = %.1f, want within (0, %d)", avg, ceiling)
	}
}

// TestFixedSpinUnaffectedByController: without AdaptiveSpin the
// effective spin is the configuration, no matter what the EWMA does.
func TestFixedSpinUnaffectedByController(t *testing.T) {
	spec := noopSpec(1, 64, true)
	spec.FreezerSpin = 64
	e := New(spec)
	for i := 0; i < 8; i++ {
		b := e.NewBatch()
		b.PushCount.Store(1)
		e.Freeze(0, b)
	}
	if got := e.EffectiveSpin(0); got != 64 {
		t.Fatalf("fixed effective spin = %d, want 64", got)
	}
}

// TestReclaimEpochAmortization pins the reclaim epoch's contract under
// a steady recycling workload: the full hazard scan runs at most once
// per reclaimPeriod freezes (plus the bootstrap scan), deferred
// freezes are counted as skips, the limbo list stays bounded by its
// high-water mark, and the steady-state freeze path still recycles
// rather than allocate (the aliasing test covers reset-ness).
func TestReclaimEpochAmortization(t *testing.T) {
	spec := noopSpec(1, 8, true)
	spec.Recycle = true
	e := New(spec)
	id, err := e.Register()
	if err != nil {
		t.Fatal(err)
	}
	const ops = 200 // one freeze each: singleton batches
	v := int64(1)
	for i := 0; i < ops; i++ {
		e.Push(id, 0, &v)
		e.Done(id)
		if l := e.LimboLen(0); l > limboHighWater {
			t.Fatalf("limbo length %d exceeds high-water %d after op %d", l, limboHighWater, i)
		}
	}
	scans, skips := e.ReclaimStats(0)
	if scans == 0 {
		t.Fatal("steady recycling ran no hazard scans at all")
	}
	if max := int64(ops/reclaimPeriod + 1); scans > max {
		t.Fatalf("%d scans over %d freezes, want <= 1 per %d freezes (%d)",
			scans, ops, reclaimPeriod, max)
	}
	if skips == 0 {
		t.Fatal("no deferred scans recorded (epoch never engaged)")
	}
}

// TestReclaimEpochLimboBoundedUnderHazards: sessions parked on hazards
// (ticket consumed but Done withheld) pin their batches in limbo; the
// high-water trigger must still bound the list, scanning early instead
// of letting deferrals stack retired batches without limit.
func TestReclaimEpochLimboBoundedUnderHazards(t *testing.T) {
	spec := noopSpec(1, 16, true)
	spec.Recycle = true
	e := New(spec)
	ids := make([]int, 8)
	for i := range ids {
		id, err := e.Register()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	driver := ids[0]
	v := int64(1)
	// Park 7 sessions mid-operation: each announces (publishing its
	// hazard) and completes, but never calls Done, so its last batch
	// stays pinned in limbo across every scan.
	for _, id := range ids[1:] {
		e.Push(id, 0, &v)
	}
	for i := 0; i < 100; i++ {
		e.Push(driver, 0, &v)
		e.Done(driver)
		if l := e.LimboLen(0); l > limboHighWater {
			t.Fatalf("limbo length %d exceeds high-water %d with hazards parked", l, limboHighWater)
		}
	}
	// Release the parked sessions; the next scans drain their batches.
	for _, id := range ids[1:] {
		e.Done(id)
	}
	for i := 0; i < 2*reclaimPeriod; i++ {
		e.Push(driver, 0, &v)
		e.Done(driver)
	}
	if l := e.LimboLen(0); l > limboHighWater {
		t.Fatalf("limbo length %d after releasing hazards, want <= %d", l, limboHighWater)
	}
}

// TestTryPopStealBypassesProtocol: the steal primitive is one solo
// apply through the session's scratch batch - no announcement, no
// freeze, no fast-path accounting - and a contended attempt reports
// failure with the structure untouched. It must work with Adaptive
// off, since pool shards steal regardless of mode.
func TestTryPopStealBypassesProtocol(t *testing.T) {
	var state atomic.Int64
	state.Store(5)
	var contended atomic.Bool
	e := New(Spec[int64, []int64]{
		Aggregators: 2,
		MaxThreads:  4,
		Partitioned: true,
		Eliminate:   NoElim,
		MakeData:    func(n int) []int64 { return make([]int64, n) },
		ApplyPush:   func(int, *Batch[int64, []int64], int64, int64) {},
		ApplyPop:    func(int, int, *Batch[int64, []int64], int64, int64) {},
		TrySoloPop: func(_, _ int, b *Batch[int64, []int64]) bool {
			if contended.Load() {
				return false
			}
			b.Data[0] = state.Add(-1)
			return true
		},
	})
	id, err := e.Register()
	if err != nil {
		t.Fatal(err)
	}
	before := e.ActiveBatch(1)
	tk, ok := e.TryPop(id, 1)
	if !ok {
		t.Fatal("uncontended TryPop failed")
	}
	if tk.Off != 0 || tk.K != 1 || tk.B.Data[0] != 4 {
		t.Fatalf("TryPop ticket = {Off:%d K:%d Data:%d}, want {0 1 4}", tk.Off, tk.K, tk.B.Data[0])
	}
	if e.ActiveBatch(1) != before {
		t.Fatal("TryPop froze the victim aggregator's batch")
	}
	if hits, misses := e.FastPath(1); hits != 0 || misses != 0 {
		t.Fatalf("TryPop fed the fast-path counters (%d/%d), want none", hits, misses)
	}
	contended.Store(true)
	if _, ok := e.TryPop(id, 1); ok {
		t.Fatal("contended TryPop reported success")
	}
}

// TestSoloFastPathEngages: an adaptive engine under a single
// uncontended session starts in solo mode and serves every operation
// through the direct-apply path - no freezes, no batch installs, one
// scratch batch reused throughout.
func TestSoloFastPathEngages(t *testing.T) {
	var ctr atomic.Int64
	e := New(Spec[int64, []int64]{
		Aggregators: 2,
		MaxThreads:  4,
		Partitioned: true,
		Adaptive:    true,
		Eliminate:   NoElim,
		MakeData:    func(n int) []int64 { return make([]int64, n) },
		ApplyPush: func(_ int, b *Batch[int64, []int64], seq, pushAtF int64) {
			for i := seq; i < pushAtF; i++ {
				b.Data[i] = ctr.Add(*b.WaitSlot(i))
			}
		},
		ApplyPop: func(int, int, *Batch[int64, []int64], int64, int64) {},
		TrySoloPush: func(_ int, b *Batch[int64, []int64]) bool {
			b.Data[0] = ctr.Add(*b.Slot(0))
			return true
		},
	})
	id, err := e.Register()
	if err != nil {
		t.Fatal(err)
	}
	agg := e.AggOf(id)
	before := e.ActiveBatch(agg)
	const n = 50
	for i := 1; i <= n; i++ {
		v := int64(1)
		pt := e.Push(id, agg, &v)
		if got := pt.B.Data[pt.Seq]; got != int64(i) {
			t.Fatalf("op %d saw counter %d", i, got)
		}
		e.Done(id)
	}
	hits, misses := e.FastPath(agg)
	if hits != n || misses != 0 {
		t.Fatalf("fast path hits/misses = %d/%d, want %d/0", hits, misses, n)
	}
	if e.ActiveBatch(agg) != before {
		t.Fatal("solo ops froze a batch (active batch changed)")
	}
}

// TestSoloFallbackOnContention: a solo attempt that reports contention
// must fall back to the full protocol (the operation still completes,
// through a frozen batch), be counted as a miss, and - under a
// persistent contention signal - flip the aggregator out of solo mode.
func TestSoloFallbackOnContention(t *testing.T) {
	var applied atomic.Int64
	e := New(Spec[int64, struct{}]{
		Aggregators: 1,
		MaxThreads:  4,
		Partitioned: true,
		Adaptive:    true,
		Eliminate:   NoElim,
		ApplyPush: func(_ int, b *Batch[int64, struct{}], seq, pushAtF int64) {
			applied.Add(pushAtF - seq)
		},
		ApplyPop:    func(int, int, *Batch[int64, struct{}], int64, int64) {},
		TrySoloPush: func(int, *Batch[int64, struct{}]) bool { return false }, // always contended
	})
	id, err := e.Register()
	if err != nil {
		t.Fatal(err)
	}
	if !e.soloMode(0) {
		t.Fatal("adaptive engine did not start in solo mode")
	}
	const n = 20
	v := int64(1)
	for i := 0; i < n; i++ {
		e.Push(id, 0, &v)
		e.Done(id)
	}
	if got := applied.Load(); got != n {
		t.Fatalf("slow path applied %d ops, want all %d", got, n)
	}
	_, misses := e.FastPath(0)
	if misses == 0 {
		t.Fatal("contended solo attempts recorded no misses")
	}
	// Every op both missed (obs: heavy) and froze a singleton batch
	// (obs: degree 1); the miss weighting must win often enough that
	// the engine spent part of the run in batched mode.
	if misses == n {
		t.Fatalf("aggregator never left solo mode across %d contended ops", n)
	}
}

// TestShardScaling exercises the effective-aggregator resize rule
// directly: a sustained high mean degree grows the shard count toward
// the configured ceiling, a low one shrinks it toward 1, and every
// remap bumps the scale epoch and keeps AggOf within range.
func TestShardScaling(t *testing.T) {
	e := New(noopSpecAdaptive(4, 64))
	if got := e.EffectiveAggregators(); got != 4 {
		t.Fatalf("initial effective aggregators = %d, want configured 4", got)
	}
	// Sustained near-empty batches: consolidate to one shard.
	for i := 0; i < 16; i++ {
		for a := 0; a < 4; a++ {
			e.ctl[a].ewma.Store(degreeUnit) // degree 1.0
		}
		e.maybeResize()
	}
	if got := e.EffectiveAggregators(); got != 1 {
		t.Fatalf("effective aggregators after low-degree runs = %d, want 1", got)
	}
	epochAfterShrink := e.ScaleEpoch()
	if epochAfterShrink != 3 {
		t.Fatalf("scale epoch = %d after 4->1, want 3", epochAfterShrink)
	}
	for id := 0; id < 64; id += 7 {
		if a := e.AggOf(id); a != 0 {
			t.Fatalf("AggOf(%d) = %d with one effective shard", id, a)
		}
	}
	// Sustained saturated batches: grow back to the ceiling, not past.
	for i := 0; i < 16; i++ {
		for a := 0; a < 4; a++ {
			e.ctl[a].ewma.Store(16 * degreeUnit)
		}
		e.maybeResize()
	}
	if got := e.EffectiveAggregators(); got != 4 {
		t.Fatalf("effective aggregators after high-degree runs = %d, want ceiling 4", got)
	}
	if got := e.ScaleEpoch(); got != epochAfterShrink+3 {
		t.Fatalf("scale epoch = %d after regrow, want %d", got, epochAfterShrink+3)
	}
	for id := 0; id < 64; id += 7 {
		if a := e.AggOf(id); a < 0 || a >= 4 {
			t.Fatalf("AggOf(%d) = %d out of range", id, a)
		}
	}
}

// noopSpecAdaptive is noopSpec with adaptivity on (and a solo push so
// solo mode is reachable).
func noopSpecAdaptive(aggs, maxThreads int) Spec[int64, struct{}] {
	s := noopSpec(aggs, maxThreads, true)
	s.Adaptive = true
	s.TrySoloPush = func(int, *Batch[int64, struct{}]) bool { return true }
	return s
}

// TestAdaptiveRecyclingStress drives the full adaptive stack - solo
// attempts that genuinely succeed and fail under contention, fallback
// into the batch protocol, batch recycling with hazard reclamation,
// dynamic shard scaling - against a conservation invariant: with the
// identity eliminator every push adds 1 and every pop subtracts 1 from
// a shared counter, so after balanced workloads the counter is 0. Run
// with -race.
func TestAdaptiveRecyclingStress(t *testing.T) {
	var state atomic.Int64
	spec := Spec[int64, struct{}]{
		Aggregators: 3,
		MaxThreads:  16,
		FreezerSpin: 64,
		Partitioned: true,
		Adaptive:    true,
		Recycle:     true,
		Eliminate:   NoElim,
		ApplyPush: func(_ int, b *Batch[int64, struct{}], seq, pushAtF int64) {
			state.Add(pushAtF - seq)
		},
		ApplyPop: func(_, _ int, b *Batch[int64, struct{}], el, popAtF int64) {
			state.Add(-(popAtF - el))
		},
	}
	// Solo appliers with real contention: one CAS attempt each, exactly
	// the structure the stack builds from its top pointer.
	spec.TrySoloPush = func(_ int, b *Batch[int64, struct{}]) bool {
		old := state.Load()
		return state.CompareAndSwap(old, old+1)
	}
	spec.TrySoloPop = func(_, _ int, b *Batch[int64, struct{}]) bool {
		old := state.Load()
		return state.CompareAndSwap(old, old-1)
	}
	e := New(spec)
	const g, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		id, err := e.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer e.Release(id)
			val := int64(1)
			for i := 0; i < per; i++ {
				agg := e.AggOf(id)
				if i%2 == 0 {
					e.Push(id, agg, &val)
				} else {
					e.Pop(id, agg)
				}
				e.Done(id)
			}
		}(id)
	}
	wg.Wait()
	if got := state.Load(); got != 0 {
		t.Fatalf("conservation violated: counter = %d after balanced ops", got)
	}
	if k := e.EffectiveAggregators(); k < 1 || k > 3 {
		t.Fatalf("effective aggregators = %d out of [1,3]", k)
	}
}

// TestAdaptiveFullProtocolUnderContention: with adaptivity on, a
// structure whose solo attempts keep reporting contention must drop
// back to the full batch protocol and recover its batching behavior -
// batch degree above 1 and (with the pairwise eliminator) in-batch
// elimination - rather than thrash on the fast path. The big freezer
// spin reaches the backoff's yield threshold, which is what lets the
// opposite side get scheduled into the batch even on one CPU (see
// TestEliminationHandshake).
func TestAdaptiveFullProtocolUnderContention(t *testing.T) {
	m := metrics.NewSEC(1)
	e := New(Spec[int64, struct{}]{
		Aggregators: 1,
		MaxThreads:  8,
		FreezerSpin: 1 << 16,
		Partitioned: true,
		Adaptive:    true,
		ApplyPush:   func(int, *Batch[int64, struct{}], int64, int64) {},
		ApplyPop:    func(int, int, *Batch[int64, struct{}], int64, int64) {},
		TrySoloPush: func(int, *Batch[int64, struct{}]) bool { return false },
		TrySoloPop:  func(int, int, *Batch[int64, struct{}]) bool { return false },
		Metrics:     m,
	})
	const g = 4
	per := 2000
	if testing.Short() {
		per = 200
	}
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		id, err := e.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w, id int) {
			defer wg.Done()
			val := int64(1)
			for i := 0; i < per; i++ {
				if w%2 == 0 {
					e.Push(id, 0, &val)
				} else {
					e.Pop(id, 0)
				}
				e.Done(id)
			}
		}(w, id)
	}
	wg.Wait()
	snap := m.Snapshot()
	if snap.FastMisses == 0 {
		t.Fatal("contended solo attempts recorded no misses")
	}
	if snap.Batches == 0 {
		t.Fatal("full protocol never engaged under contention")
	}
	if d := snap.BatchingDegree(); d <= 1 {
		t.Fatalf("batch degree %.2f under contention, want > 1 (batches=%d ops=%d)",
			d, snap.Batches, snap.Ops)
	}
	if snap.Eliminated == 0 {
		t.Fatal("no in-batch elimination once the full protocol engaged")
	}
}

// TestPushTicketSeq: the ticket's sequence number indexes the batch the
// operation was actually served in - the contract the funnel's result
// table depends on.
func TestPushTicketSeq(t *testing.T) {
	e := New(Spec[int64, []int64]{
		Aggregators: 1,
		MaxThreads:  4,
		Partitioned: true,
		Eliminate:   NoElim,
		MakeData:    func(n int) []int64 { return make([]int64, n) },
		ApplyPush: func(_ int, b *Batch[int64, []int64], seq, pushAtF int64) {
			for i := seq; i < pushAtF; i++ {
				b.Data[i] = *b.WaitSlot(i) + 100
			}
		},
		ApplyPop: func(int, int, *Batch[int64, []int64], int64, int64) {},
	})
	for v := int64(0); v < 50; v++ {
		val := v
		pt := e.Push(0, 0, &val)
		if pt.Eliminated {
			t.Fatal("NoElim engine eliminated a push")
		}
		if got := pt.B.Data[pt.Seq]; got != v+100 {
			t.Fatalf("Data[%d] = %d, want %d", pt.Seq, got, v+100)
		}
	}
}

// TestTryPushStealBypassesProtocol: the push-side steal primitive is
// one solo apply through the session's scratch batch - no
// announcement, no freeze, no fast-path accounting - and a contended
// attempt reports failure with the structure untouched. Like TryPop it
// must work with Adaptive off, since pool shards overflow regardless
// of mode.
func TestTryPushStealBypassesProtocol(t *testing.T) {
	var sum atomic.Int64
	var contended atomic.Bool
	e := New(Spec[int64, []int64]{
		Aggregators: 2,
		MaxThreads:  4,
		Partitioned: true,
		Eliminate:   NoElim,
		MakeData:    func(n int) []int64 { return make([]int64, n) },
		ApplyPush:   func(int, *Batch[int64, []int64], int64, int64) {},
		ApplyPop:    func(int, int, *Batch[int64, []int64], int64, int64) {},
		TrySoloPush: func(_ int, b *Batch[int64, []int64]) bool {
			if contended.Load() {
				return false
			}
			b.Data[0] = sum.Add(*b.Slot(0))
			return true
		},
	})
	id, err := e.Register()
	if err != nil {
		t.Fatal(err)
	}
	before := e.ActiveBatch(1)
	v := int64(7)
	tk, ok := e.TryPush(id, 1, &v)
	if !ok {
		t.Fatal("uncontended TryPush failed")
	}
	if tk.Seq != 0 || tk.B.Data[0] != 7 {
		t.Fatalf("TryPush ticket = {Seq:%d Data:%d}, want {0 7}", tk.Seq, tk.B.Data[0])
	}
	if e.ActiveBatch(1) != before {
		t.Fatal("TryPush froze the victim aggregator's batch")
	}
	if hits, misses := e.FastPath(1); hits != 0 || misses != 0 {
		t.Fatalf("TryPush fed the fast-path counters (%d/%d), want none", hits, misses)
	}
	contended.Store(true)
	if _, ok := e.TryPush(id, 1, &v); ok {
		t.Fatal("contended TryPush reported success")
	}
	if got := sum.Load(); got != 7 {
		t.Fatalf("contended TryPush changed the structure: sum = %d, want 7", got)
	}
	// The miss path allocates nothing once the scratch batch exists: a
	// sweep over many contended shards must be CAS-cost only.
	if avg := testing.AllocsPerRun(200, func() { e.TryPush(id, 0, &v) }); avg > 0 {
		t.Fatalf("contended TryPush allocates %.2f allocs/op, want 0", avg)
	}
}

// TestTryPushWithoutSoloApplier: an engine whose structure provides no
// TrySoloPush (no solo semantics at all) reports every TryPush as not
// applied rather than panicking.
func TestTryPushWithoutSoloApplier(t *testing.T) {
	e := New(noopSpec(1, 4, true))
	id, err := e.Register()
	if err != nil {
		t.Fatal(err)
	}
	v := int64(1)
	if _, ok := e.TryPush(id, 0, &v); ok {
		t.Fatal("TryPush applied on an engine without a solo push applier")
	}
}

// TestSpinInheritanceOnResize pins the controller-seeding rule of
// dynamic shard scaling: when the effective shard count grows, the
// newly-live aggregator's spin controller and degree EWMA must be
// seeded from the mean of the surviving aggregators - not resume from
// the stale values the shard retired with (or the configured ceiling) -
// and the mode bit must be consistent with the inherited degree.
func TestSpinInheritanceOnResize(t *testing.T) {
	const ceiling = 1024
	m := metrics.NewSEC(4)
	spec := noopSpecAdaptive(4, 64)
	spec.FreezerSpin = ceiling
	spec.AdaptiveSpin = true
	spec.Metrics = m
	e := New(spec)

	// Consolidate to one shard: sustained near-empty batches.
	for i := 0; i < 16; i++ {
		for a := 0; a < 4; a++ {
			e.ctl[a].ewma.Store(degreeUnit)
		}
		e.maybeResize()
	}
	if got := e.EffectiveAggregators(); got != 1 {
		t.Fatalf("effective aggregators after low-degree runs = %d, want 1", got)
	}

	// Poison the dormant shard with the stale state the pre-inheritance
	// engine would have resumed with, and give the survivor a settled
	// mid-range tuning.
	e.ctl[1].spin.Store(ceiling)
	e.ctl[1].ewma.Store(degreeUnit)
	e.ctl[1].mode.Store(modeSolo)
	const survivorSpin, survivorDeg = 96, 8 * degreeUnit
	e.ctl[0].spin.Store(survivorSpin)
	e.ctl[0].ewma.Store(survivorDeg)
	e.ctl[0].mode.Store(modeBatched)

	e.maybeResize() // mean degree 8.0 >= growDegree: grow 1 -> 2
	if got := e.EffectiveAggregators(); got != 2 {
		t.Fatalf("effective aggregators after high-degree run = %d, want 2", got)
	}
	if got := e.EffectiveSpin(1); got != survivorSpin {
		t.Fatalf("newly-live shard's spin = %d, want inherited mean %d (stale was %d)",
			got, survivorSpin, ceiling)
	}
	if got := e.ctl[1].ewma.Load(); got != survivorDeg {
		t.Fatalf("newly-live shard's EWMA = %d, want inherited mean %d", got, survivorDeg)
	}
	if e.soloMode(1) {
		t.Fatal("newly-live shard kept stale solo mode despite inherited degree >= exit threshold")
	}
	if got := e.Inherits(1); got != 1 {
		t.Fatalf("Inherits(1) = %d, want 1", got)
	}
	if got := m.Snapshot().SpinInherits; got != 1 {
		t.Fatalf("metrics SpinInherits = %d, want 1", got)
	}

	// Grow 2 -> 3: the seed is the mean over both survivors.
	e.ctl[0].spin.Store(64)
	e.ctl[0].ewma.Store(8 * degreeUnit)
	e.ctl[1].spin.Store(128)
	e.ctl[1].ewma.Store(10 * degreeUnit)
	e.ctl[2].spin.Store(ceiling) // stale
	e.maybeResize()
	if got := e.EffectiveAggregators(); got != 3 {
		t.Fatalf("effective aggregators = %d, want 3", got)
	}
	if got := e.EffectiveSpin(2); got != 96 {
		t.Fatalf("second grow seeded spin %d, want mean(64, 128) = 96", got)
	}
	if got := e.ctl[2].ewma.Load(); got != 9*degreeUnit {
		t.Fatalf("second grow seeded EWMA %d, want mean %d", got, 9*degreeUnit)
	}
	if got := m.Snapshot().SpinInherits; got != 2 {
		t.Fatalf("metrics SpinInherits = %d after two grows, want 2", got)
	}
}

// TestSpinInheritanceSeedsSoloMode: a grow under a low inherited degree
// (possible when the resize races a load drop) seeds solo mode, so the
// new shard's first operations take the fast path its degree warrants.
func TestSpinInheritanceSeedsSoloMode(t *testing.T) {
	e := New(noopSpecAdaptive(2, 64))
	if got := e.EffectiveAggregators(); got != 2 {
		t.Fatalf("initial effective aggregators = %d, want 2", got)
	}
	// Shrink to 1, then poison the dormant shard's mode.
	for i := 0; i < 8; i++ {
		for a := 0; a < 2; a++ {
			e.ctl[a].ewma.Store(degreeUnit)
		}
		e.maybeResize()
	}
	if got := e.EffectiveAggregators(); got != 1 {
		t.Fatalf("effective aggregators = %d, want 1", got)
	}
	e.ctl[1].mode.Store(modeBatched)
	// inheritCtl is what maybeResize runs on a grow; drive it directly
	// with a low survivor degree (a grow immediately followed by a load
	// drop) to pin the solo seeding branch.
	e.ctl[0].ewma.Store(degreeUnit)
	e.inheritCtl(1)
	if !e.soloMode(1) {
		t.Fatal("inherited degree ~1 did not seed solo mode")
	}
}

// TestAllocCeilingBatchPinToggle: the number of retired batches some
// session's hazard still holds may rise and fall between two reclaim
// scans, as sessions park mid-operation and resume. Two sessions
// toggle hazards on the two newest batches every 8, 5 or 16 of a
// worker session's singleton-batch freezes; the free list must never run dry,
// so the steady-state freeze path allocates nothing.
func TestAllocCeilingBatchPinToggle(t *testing.T) {
	for _, every := range []int{8, 5, 16} {
		spec := noopSpec(1, 8, true)
		spec.Recycle = true
		e := New(spec)
		var ids [3]int
		for i := range ids {
			id, err := e.Register()
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		worker, p1, p2 := ids[0], ids[1], ids[2]
		v := int64(1)
		pinned := false
		run := func(n int) {
			for i := range n {
				if i%every == 0 {
					if pinned {
						e.Done(p1)
						e.Done(p2)
					} else {
						e.Push(p1, 0, &v) // freezes a batch and keeps it published
						e.Push(p2, 0, &v)
					}
					pinned = !pinned
				}
				e.Push(worker, 0, &v)
				e.Done(worker)
			}
		}
		run(1000) // warm-up: stock the free list
		if got := testing.AllocsPerRun(1, func() { run(10000) }); got != 0 {
			t.Errorf("toggling every %d freezes: %v mallocs over 10k worker freezes, want 0", every, got)
		}
	}
}
