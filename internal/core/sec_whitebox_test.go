package core

// White-box tests exercising SEC's batch mechanics through the shared
// agg engine: batch sizing, counter clamping at freeze, substack chain
// shapes, and the surviving-pop countdown. The engine's own lifecycle
// mechanics (freezer race, eliminators, occupancy accounting) are
// covered by internal/agg's tests.

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestNewBatchSizing(t *testing.T) {
	s := New[int](Options{Aggregators: 2, MaxThreads: 64})
	// No registrations yet: minimum size.
	if got := s.eng.NewBatch().Cap(); got != 4 {
		t.Fatalf("empty-stack batch size = %d, want 4", got)
	}
	for i := 0; i < 10; i++ {
		s.Register()
	}
	// 10 threads over 2 aggregators -> 5 per aggregator.
	if got := s.eng.NewBatch().Cap(); got != 5 {
		t.Fatalf("batch size with 10 threads = %d, want 5", got)
	}
}

func TestNewBatchSizeCappedAtPerAgg(t *testing.T) {
	s := New[int](Options{Aggregators: 2, MaxThreads: 8})
	for i := 0; i < 8; i++ {
		s.Register()
	}
	if got, want := s.eng.NewBatch().Cap(), 4; got != want {
		t.Fatalf("batch size = %d, want cap %d", got, want)
	}
}

func TestFreezeClampsToElimArray(t *testing.T) {
	s := New[int](Options{Aggregators: 1, MaxThreads: 64})
	s.Register()
	b := s.eng.NewBatch() // size 4 (one registered thread, min 4)
	// Simulate 10 announced pushes against a 4-slot batch.
	b.PushCount.Store(10)
	b.PopCount.Store(2)
	s.eng.Freeze(0, b)
	if got := b.PushAtFreeze.Load(); got != 4 {
		t.Fatalf("PushAtFreeze = %d, want clamped 4", got)
	}
	if got := b.PopAtFreeze.Load(); got != 2 {
		t.Fatalf("PopAtFreeze = %d, want 2", got)
	}
}

func TestFreezeInstallsNewBatch(t *testing.T) {
	s := New[int](Options{Aggregators: 1})
	old := s.eng.ActiveBatch(0)
	s.eng.Freeze(0, old)
	if s.eng.ActiveBatch(0) == old {
		t.Fatal("freeze did not replace the aggregator's batch")
	}
}

// TestApplyPushChainShape verifies the substack built by the push
// combiner: sequence order must map to depth (larger sequence number
// nearer the top), and the chain must connect down to the old top -
// the connectivity the paper's top=⊥ pseudocode typo would break.
func TestApplyPushChainShape(t *testing.T) {
	s := New[int](Options{Aggregators: 1})

	// A pre-existing element to splice on top of.
	under := &node[int]{value: 99}
	s.top.Store(under)

	b := s.eng.NewBatch()
	for i := 0; i < 4; i++ {
		b.StoreSlot(int64(i), &node[int]{value: i})
	}
	// Combiner seq 0 applies pushes 0..3.
	s.applyPush(0, b, 0, 4)

	want := []int{3, 2, 1, 0, 99}
	got := []int{}
	for p := s.top.Load(); p != nil; p = p.next {
		got = append(got, p.value)
	}
	if len(got) != len(want) {
		t.Fatalf("stack = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stack = %v, want %v", got, want)
		}
	}
}

// TestApplyPushPartialBatch: a combiner with a non-zero sequence
// number (some pushes eliminated) must splice only slots seq..pushAtF-1.
func TestApplyPushPartialBatch(t *testing.T) {
	s := New[int](Options{Aggregators: 1})
	b := s.eng.NewBatch()
	for i := 0; i < 4; i++ {
		b.StoreSlot(int64(i), &node[int]{value: i})
	}
	s.applyPush(0, b, 2, 4) // slots 2 and 3 survive
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if v := s.top.Load().value; v != 3 {
		t.Fatalf("top = %d, want 3", v)
	}
}

// TestApplyPopExactCount verifies the pop combiner removes exactly
// k nodes - the off-by-one the paper's pseudocode loop would introduce.
func TestApplyPopExactCount(t *testing.T) {
	for k := int64(1); k <= 5; k++ {
		s := New[int](Options{Aggregators: 1})
		var chain *node[int]
		for i := 9; i >= 0; i-- { // stack 0(top) .. 9(bottom)... build top-down
			chain = &node[int]{value: i, next: chain}
		}
		// chain: 0 -> 1 -> ... -> 9, top value 0
		s.top.Store(chain)

		b := s.eng.NewBatch()
		s.applyPop(0, 0, b, 0, k)
		if got := int64(10) - int64(s.Len()); got != k {
			t.Fatalf("k=%d: removed %d nodes", k, got)
		}
		// The detached chain's j-th node is the j-th popped value.
		for j := int64(0); j < k; j++ {
			v, ok := getValue(b, j)
			if !ok || v != int(j) {
				t.Fatalf("k=%d: getValue(%d) = (%d, %v), want (%d, true)", k, j, v, ok, j)
			}
		}
	}
}

// TestApplyPopDrainsShortStack: k greater than the stack size
// empties the stack; waiters past the chain get EMPTY.
func TestApplyPopDrainsShortStack(t *testing.T) {
	s := New[int](Options{Aggregators: 1})
	s.top.Store(&node[int]{value: 1, next: &node[int]{value: 2}})
	b := s.eng.NewBatch()
	s.applyPop(0, 0, b, 0, 4)
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if v, ok := getValue(b, 0); !ok || v != 1 {
		t.Fatalf("getValue(0) = (%d, %v)", v, ok)
	}
	if v, ok := getValue(b, 1); !ok || v != 2 {
		t.Fatalf("getValue(1) = (%d, %v)", v, ok)
	}
	if _, ok := getValue(b, 2); ok {
		t.Fatal("getValue past the chain returned a value")
	}
	if _, ok := getValue(b, 3); ok {
		t.Fatal("getValue past the chain returned a value")
	}
}

// TestApplyPopEmptyStack: the combiner on an empty stack publishes
// a nil chain and every waiter sees EMPTY.
func TestApplyPopEmptyStack(t *testing.T) {
	s := New[int](Options{Aggregators: 1})
	b := s.eng.NewBatch()
	s.applyPop(0, 0, b, 0, 3)
	if b.Data.top.Load() != nil {
		t.Fatal("detached chain non-nil on empty stack")
	}
	for j := int64(0); j < 3; j++ {
		if _, ok := getValue(b, j); ok {
			t.Fatalf("getValue(%d) returned a value from an empty stack", j)
		}
	}
}

// TestReleaseSubstackCountdown: with recycling on, only the LAST of k
// readers triggers retirement, and exactly k nodes are retired.
func TestReleaseSubstackCountdown(t *testing.T) {
	s := New[int](Options{Aggregators: 1, Recycle: true})
	h := s.Register()

	var chain *node[int]
	for i := 0; i < 5; i++ {
		chain = &node[int]{value: i, next: chain}
	}
	s.top.Store(chain)

	b := s.eng.NewBatch()
	const k = 3
	s.applyPop(0, 0, b, 0, k)
	if got := b.Data.pending.Load(); got != k {
		t.Fatalf("pending = %d, want %d", got, k)
	}
	h.releaseSubstack(b, k)
	h.releaseSubstack(b, k)
	if got := len(h.rec.retired); got != 0 {
		t.Fatalf("nodes retired before the last reader: retired=%d", got)
	}
	h.releaseSubstack(b, k)
	if got := len(h.rec.retired); got != k {
		t.Fatalf("retired = %d after last reader, want %d", got, k)
	}
}

// TestQuickSingleThreadAnyOptions drives random option combinations
// single-threaded against a model.
func TestQuickSingleThreadAnyOptions(t *testing.T) {
	check := func(aggs, spin uint8, noElim, recycle bool, ops []int16) bool {
		s := New[int64](Options{
			Aggregators:   int(aggs%6) + 1,
			FreezerSpin:   int(spin) % 64,
			NoElimination: noElim,
			Recycle:       recycle,
		})
		h := s.Register()
		var model []int64
		for _, op := range ops {
			if op >= 0 {
				h.Push(int64(op))
				model = append(model, int64(op))
			} else {
				v, ok := h.Pop()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if !ok || v != want {
					return false
				}
			}
		}
		return s.Len() == len(model)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFreezerUniqueness: every batch must record exactly the
// operations that belonged to it; summing the metrics ops over a closed
// workload must equal the number of performed operations (each op
// belongs to exactly one frozen batch).
func TestConcurrentFreezerUniqueness(t *testing.T) {
	s := New[int64](Options{Aggregators: 3, CollectMetrics: true})
	const g, per = 9, 2000
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Register()
			for i := 0; i < per; i++ {
				if (w+i)%2 == 0 {
					h.Push(int64(i))
				} else {
					h.Pop()
				}
			}
		}(w)
	}
	wg.Wait()
	// Metrics count ops at freeze time; unfrozen residue lives in the 3
	// still-active batches (at most one per aggregator, snapshot-able
	// because the system is quiescent).
	snap := s.Metrics().Snapshot()
	residue := int64(0)
	for i := 0; i < s.eng.Aggregators(); i++ {
		b := s.eng.ActiveBatch(i)
		residue += b.PushCount.Load() + b.PopCount.Load()
	}
	if snap.Ops+residue != int64(g*per) {
		t.Fatalf("recorded %d + residue %d != %d ops (batch accounting broken)",
			snap.Ops, residue, g*per)
	}
}
