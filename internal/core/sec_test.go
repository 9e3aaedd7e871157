package core_test

import (
	"sync"
	"testing"

	"secstack/internal/core"
	"secstack/internal/stacktest"
)

type adapter struct{ s *core.Stack[int64] }

func (a adapter) Register() stacktest.Handle { return a.s.Register() }

func factory() stacktest.Stack {
	return adapter{core.New[int64](core.Options{})}
}

func TestConformanceDefaults(t *testing.T) {
	stacktest.RunAll(t, factory)
}

func TestConformanceOneAggregator(t *testing.T) {
	stacktest.RunAll(t, func() stacktest.Stack {
		return adapter{core.New[int64](core.Options{Aggregators: 1})}
	})
}

func TestConformanceFiveAggregators(t *testing.T) {
	stacktest.RunAll(t, func() stacktest.Stack {
		return adapter{core.New[int64](core.Options{Aggregators: 5})}
	})
}

func TestConformanceNoElimination(t *testing.T) {
	stacktest.RunAll(t, func() stacktest.Stack {
		return adapter{core.New[int64](core.Options{NoElimination: true})}
	})
}

func TestConformanceRecycle(t *testing.T) {
	stacktest.RunAll(t, func() stacktest.Stack {
		return adapter{core.New[int64](core.Options{Recycle: true})}
	})
}

func TestConformanceNoFreezerSpin(t *testing.T) {
	stacktest.RunAll(t, func() stacktest.Stack {
		return adapter{core.New[int64](core.Options{FreezerSpin: -1})}
	})
}

func TestRegisterPanicsPastMaxThreads(t *testing.T) {
	s := core.New[int64](core.Options{MaxThreads: 2})
	s.Register()
	s.Register()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-registration")
		}
	}()
	s.Register()
}

func TestDefaultsApplied(t *testing.T) {
	s := core.New[int64](core.Options{})
	if got := s.Aggregators(); got != 2 {
		t.Fatalf("default Aggregators = %d, want 2", got)
	}
	if s.Metrics() != nil {
		t.Fatal("metrics collected without CollectMetrics")
	}
}

// TestSingleThreadBatches: a lone thread forms singleton batches; every
// operation must still complete with correct LIFO semantics.
func TestSingleThreadBatches(t *testing.T) {
	s := core.New[int64](core.Options{Aggregators: 2, FreezerSpin: 0})
	h := s.Register()
	for i := int64(0); i < 1000; i++ {
		h.Push(i)
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", s.Len())
	}
	for want := int64(999); want >= 0; want-- {
		v, ok := h.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
}

// TestMetricsDegreesBalanced: with a perfectly balanced push/pop mix
// driven hard, the elimination percentage must be substantial, and the
// identity elimination% + combining% = 100 must hold.
func TestMetricsDegreesBalanced(t *testing.T) {
	s := core.New[int64](core.Options{CollectMetrics: true, FreezerSpin: 256})
	var wg sync.WaitGroup
	const g, per = 8, 4000
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Register()
			for i := 0; i < per; i++ {
				if (i+w)%2 == 0 {
					h.Push(int64(i))
				} else {
					h.Pop()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := s.Metrics().Snapshot()
	if snap.Batches == 0 || snap.Ops == 0 {
		t.Fatalf("no batches recorded: %+v", snap)
	}
	if snap.Eliminated+snap.Combined != snap.Ops {
		t.Fatalf("eliminated %d + combined %d != ops %d", snap.Eliminated, snap.Combined, snap.Ops)
	}
	if snap.Eliminated%2 != 0 {
		t.Fatalf("eliminated count %d is odd (elimination is pairwise)", snap.Eliminated)
	}
}

// TestMetricsNoElimination: the ablation must report zero eliminated
// operations no matter the mix.
func TestMetricsNoElimination(t *testing.T) {
	s := core.New[int64](core.Options{CollectMetrics: true, NoElimination: true})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Register()
			for i := 0; i < 2000; i++ {
				if i%2 == 0 {
					h.Push(int64(i))
				} else {
					h.Pop()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := s.Metrics().Snapshot()
	if snap.Eliminated != 0 {
		t.Fatalf("NoElimination run eliminated %d operations", snap.Eliminated)
	}
	if snap.Combined != snap.Ops {
		t.Fatalf("combined %d != ops %d", snap.Combined, snap.Ops)
	}
}

// TestPushOnlyMetrics: with no pops there is nothing to eliminate, so
// combining must account for 100% of operations (paper Fig. 4's
// push-only column).
func TestPushOnlyMetrics(t *testing.T) {
	s := core.New[int64](core.Options{CollectMetrics: true})
	var wg sync.WaitGroup
	const g, per = 6, 2000
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Register()
			for i := 0; i < per; i++ {
				h.Push(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	snap := s.Metrics().Snapshot()
	if snap.Eliminated != 0 {
		t.Fatalf("push-only run eliminated %d operations", snap.Eliminated)
	}
	if snap.Ops != int64(g*per) {
		t.Fatalf("ops = %d, want %d", snap.Ops, g*per)
	}
	if s.Len() != g*per {
		t.Fatalf("Len = %d, want %d", s.Len(), g*per)
	}
}

// TestBatchSubstackOrder: values pushed by one batch must land on the
// shared stack in sequence-number order (smaller sequence numbers
// deeper), which is what makes SEC linearizable. We drive two threads
// of one aggregator in lockstep so their pushes share batches, then
// check the drain order is a valid linearization: within each thread's
// own values, LIFO order must hold.
func TestBatchSubstackOrder(t *testing.T) {
	s := core.New[int64](core.Options{Aggregators: 1, FreezerSpin: 512})
	var wg sync.WaitGroup
	const g, per = 4, 1000
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Register()
			base := int64(w) << 32
			for i := 1; i <= per; i++ {
				h.Push(base + int64(i))
			}
		}(w)
	}
	wg.Wait()
	h := s.Register()
	last := map[int64]int64{}
	n := 0
	for {
		v, ok := h.Pop()
		if !ok {
			break
		}
		n++
		w, seq := v>>32, v&0xffffffff
		if prev, seen := last[w]; seen && seq >= prev {
			t.Fatalf("thread %d: popped %d after %d (substack order broken)", w, seq, prev)
		}
		last[w] = seq
	}
	if n != g*per {
		t.Fatalf("drained %d, want %d", n, g*per)
	}
}

// TestRecycleActuallyRecycles: under sustained push/pop churn with
// recycling enabled, nodes must flow through the handles' free lists.
func TestRecycleActuallyRecycles(t *testing.T) {
	s := core.New[int64](core.Options{Recycle: true})
	var wg sync.WaitGroup
	const g, per = 4, 5000
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Register()
			for i := 0; i < per; i++ {
				h.Push(int64(i))
				h.Pop()
			}
		}(w)
	}
	wg.Wait()
	// Conservation after churn: drain what's left and count.
	h := s.Register()
	for {
		if _, ok := h.Pop(); !ok {
			break
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after drain", s.Len())
	}
}

// TestAggregatorIsolation: threads of different aggregators share only
// the stack top, not batches; a push flood on one aggregator must not
// stall a popper on another.
func TestAggregatorIsolation(t *testing.T) {
	s := core.New[int64](core.Options{Aggregators: 2})
	h0 := s.Register() // tid 0 -> aggregator 0
	h1 := s.Register() // tid 1 -> aggregator 1
	h0.Push(7)
	if v, ok := h1.Pop(); !ok || v != 7 {
		t.Fatalf("cross-aggregator Pop = (%d, %v), want (7, true)", v, ok)
	}
}

// TestManyAggregatorsFewThreads: more aggregators than threads leaves
// some aggregators idle; operations must still complete.
func TestManyAggregatorsFewThreads(t *testing.T) {
	s := core.New[int64](core.Options{Aggregators: 16})
	h := s.Register()
	h.Push(1)
	h.Push(2)
	if v, _ := h.Pop(); v != 2 {
		t.Fatal("LIFO broken with idle aggregators")
	}
	if v, _ := h.Pop(); v != 1 {
		t.Fatal("LIFO broken with idle aggregators")
	}
}

// TestCloseRecyclesThreadIDs checks that MaxThreads bounds live
// handles, not lifetime registrations: closed handles' thread ids flow
// back and Register succeeds forever under churn.
func TestCloseRecyclesThreadIDs(t *testing.T) {
	s := core.New[int64](core.Options{MaxThreads: 2})
	for i := 0; i < 10; i++ {
		h := s.Register()
		h.Push(int64(i))
		h.Close()
		h.Close() // idempotent
	}
	if got := s.RegisteredThreads(); got != 0 {
		t.Fatalf("RegisteredThreads = %d after closing all handles, want 0", got)
	}
	a, b := s.Register(), s.Register() // exactly MaxThreads live handles fit
	if v, ok := a.Pop(); !ok || v != 9 {
		t.Fatalf("Pop = (%d, %v) after churn, want (9, true)", v, ok)
	}
	a.Close()
	b.Close()
}

func TestTryRegisterBackpressure(t *testing.T) {
	s := core.New[int64](core.Options{MaxThreads: 1})
	h, err := s.TryRegister()
	if err != nil {
		t.Fatalf("first TryRegister: %v", err)
	}
	if _, err := s.TryRegister(); err == nil {
		t.Fatal("TryRegister succeeded past MaxThreads live handles")
	}
	h.Close()
	h2, err := s.TryRegister()
	if err != nil {
		t.Fatalf("TryRegister after Close: %v", err)
	}
	h2.Close()
}

// TestTryPopStealAnswers pins the steal primitive's three outcomes on
// a live stack: a hit detaches the top, an empty stack answers with
// applied=true/ok=false, and the stack stays consistent with full
// operations interleaved.
func TestTryPopStealAnswers(t *testing.T) {
	s := core.New[int64](core.Options{Aggregators: 1, MaxThreads: 4})
	h := s.Register()
	defer h.Close()
	if _, ok, applied := h.TryPop(); !applied || ok {
		t.Fatalf("TryPop on empty stack = (ok=%v, applied=%v), want (false, true)", ok, applied)
	}
	h.Push(7)
	h.Push(9)
	if v, ok, applied := h.TryPop(); !applied || !ok || v != 9 {
		t.Fatalf("TryPop = (%d, %v, %v), want (9, true, true)", v, ok, applied)
	}
	if v, ok := h.Pop(); !ok || v != 7 {
		t.Fatalf("Pop after steal = (%d, %v), want (7, true)", v, ok)
	}
	if _, ok, applied := h.TryPop(); !applied || ok {
		t.Fatalf("TryPop on drained stack = (ok=%v, applied=%v), want (false, true)", ok, applied)
	}
}

// BenchmarkEmptyProbe is the pool Get miss loop's per-shard cost,
// before and after the steal primitive: "full" is what probing a
// foreign shard used to cost (a full-protocol Pop observing EMPTY -
// announcement, freeze, combiner election), "steal" is the TryPop that
// replaced it (one top-pointer load through the scratch batch). Both
// report allocations; steal must show 0 allocs/op.
func BenchmarkEmptyProbe(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		s := core.New[int64](core.Options{Aggregators: 1, MaxThreads: 4})
		h := s.Register()
		defer h.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Pop()
		}
	})
	b.Run("steal", func(b *testing.B) {
		s := core.New[int64](core.Options{Aggregators: 1, MaxThreads: 4})
		h := s.Register()
		defer h.Close()
		h.TryPop() // allocate the scratch batch once
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.TryPop()
		}
	})
}

// TestTryPushStealAnswers pins the push-side steal primitive on a live
// stack: an applied TryPush is a real push (LIFO-ordered against full
// operations), it works with node recycling on, and a sequence of
// TryPushes drains back in reverse order through both TryPop and Pop.
func TestTryPushStealAnswers(t *testing.T) {
	for _, recycle := range []bool{false, true} {
		s := core.New[int64](core.Options{Aggregators: 1, MaxThreads: 4, Recycle: recycle})
		h := s.Register()
		if !h.TryPush(7) {
			t.Fatalf("recycle=%v: uncontended TryPush did not apply", recycle)
		}
		h.Push(9) // full protocol on top of a stolen push
		if !h.TryPush(11) {
			t.Fatalf("recycle=%v: TryPush over a full push did not apply", recycle)
		}
		if got := s.Len(); got != 3 {
			t.Fatalf("recycle=%v: Len = %d after three pushes, want 3", recycle, got)
		}
		if v, ok, applied := h.TryPop(); !applied || !ok || v != 11 {
			t.Fatalf("recycle=%v: TryPop = (%d, %v, %v), want (11, true, true)", recycle, v, ok, applied)
		}
		if v, ok := h.Pop(); !ok || v != 9 {
			t.Fatalf("recycle=%v: Pop = (%d, %v), want (9, true)", recycle, v, ok)
		}
		if v, ok := h.Pop(); !ok || v != 7 {
			t.Fatalf("recycle=%v: Pop = (%d, %v), want (7, true)", recycle, v, ok)
		}
		if _, ok := h.Pop(); ok {
			t.Fatalf("recycle=%v: Pop on drained stack succeeded", recycle)
		}
		h.Close()
	}
}
