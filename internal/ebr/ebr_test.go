package ebr

import (
	"sync"
	"sync/atomic"
	"testing"
)

type obj struct {
	val      int64
	poisoned atomic.Bool
}

func TestRegisterAssignsDistinctSlots(t *testing.T) {
	m := NewManager[obj](4)
	h1 := m.Register()
	h2 := m.Register()
	if h1.id == h2.id {
		t.Fatal("two handles share a slot")
	}
}

func TestRegisterPanicsPastCapacity(t *testing.T) {
	m := NewManager[obj](1)
	m.Register()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-registration")
		}
	}()
	m.Register()
}

func TestExitWithoutEnterPanics(t *testing.T) {
	m := NewManager[obj](1)
	h := m.Register()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Exit without Enter")
		}
	}()
	h.Exit()
}

func TestRetireOutsideCriticalSectionPanics(t *testing.T) {
	m := NewManager[obj](1)
	h := m.Register()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Retire outside Enter/Exit")
		}
	}()
	h.Retire(&obj{})
}

func TestNestedEnterExit(t *testing.T) {
	m := NewManager[obj](1)
	h := m.Register()
	h.Enter()
	h.Enter()
	h.Retire(&obj{})
	h.Exit()
	h.Retire(&obj{}) // still inside outer section
	h.Exit()
	if h.depth != 0 {
		t.Fatalf("depth = %d after balanced enter/exit", h.depth)
	}
}

func TestAllocPrefersFreeList(t *testing.T) {
	m := NewManager[obj](1)
	h := m.Register()
	p := &obj{val: 42}
	// Retire p and drive epochs forward until it is recycled.
	h.Enter()
	h.Retire(p)
	h.Exit()
	for i := 0; i < 10 && h.FreeCount() == 0; i++ {
		m.tryAdvance()
		h.Enter()
		h.Exit()
	}
	if h.FreeCount() != 1 {
		t.Fatalf("FreeCount = %d, want 1 (limbo=%d, epoch=%d)", h.FreeCount(), h.LimboCount(), m.Epoch())
	}
	got := h.Alloc()
	if got != p {
		t.Fatal("Alloc did not return the recycled object")
	}
	if h.Recycled != 1 {
		t.Fatalf("Recycled = %d, want 1", h.Recycled)
	}
}

func TestAllocFreshWhenEmpty(t *testing.T) {
	m := NewManager[obj](1)
	h := m.Register()
	p := h.Alloc()
	if p == nil {
		t.Fatal("Alloc returned nil")
	}
	if h.Fresh != 1 {
		t.Fatalf("Fresh = %d, want 1", h.Fresh)
	}
}

// TestNoRecycleWhileProtected pins the core safety property: an object
// retired while another thread is inside a critical section that began
// before the retirement cannot be recycled until that thread exits.
func TestNoRecycleWhileProtected(t *testing.T) {
	m := NewManager[obj](2)
	reader := m.Register()
	writer := m.Register()

	reader.Enter() // reader is now pinned at the current epoch

	p := &obj{}
	writer.Enter()
	writer.Retire(p)
	writer.Exit()

	// Drive the writer as hard as we like: the epoch cannot advance by 2
	// while the reader sits in its critical section.
	for i := 0; i < 100; i++ {
		m.tryAdvance()
		writer.Enter()
		writer.Exit()
	}
	if writer.FreeCount() != 0 {
		t.Fatal("object recycled while a reader was inside its critical section")
	}

	reader.Exit()
	// Now the reader re-announces on each Enter, so epochs can move.
	for i := 0; i < 100 && writer.FreeCount() == 0; i++ {
		m.tryAdvance()
		reader.Enter()
		reader.Exit()
		writer.Enter()
		writer.Exit()
	}
	if writer.FreeCount() != 1 {
		t.Fatalf("object not recycled after reader exited (limbo=%d)", writer.LimboCount())
	}
}

func TestEpochAdvanceRequiresAllActive(t *testing.T) {
	m := NewManager[obj](3)
	a := m.Register()
	b := m.Register()
	_ = m.Register() // never enters: quiescent threads must not block advance

	a.Enter()
	b.Enter()
	e := m.Epoch()
	if m.tryAdvance(); m.Epoch() != e+1 {
		t.Fatalf("epoch did not advance with all active threads current: %d", m.Epoch())
	}
	// a and b are now stale (announced e, epoch is e+1): advance stalls.
	if m.tryAdvance(); m.Epoch() != e+1 {
		t.Fatal("epoch advanced past stale active threads")
	}
	b.Exit()
	b.Enter() // b re-announces at e+1; a is still stale
	if m.tryAdvance(); m.Epoch() != e+1 {
		t.Fatal("epoch advanced past one remaining stale thread")
	}
	a.Exit()
	a.Enter() // now both are current
	if m.tryAdvance(); m.Epoch() != e+2 {
		t.Fatal("epoch did not advance after all stale threads re-announced")
	}
	a.Exit()
	b.Exit()
}

// TestStressPoisonDetection runs readers and writers concurrently.
// Writers retire objects and poison them when they come back through
// the free list; readers grab the currently published object inside a
// critical section and verify it is never poisoned while held.
func TestStressPoisonDetection(t *testing.T) {
	const (
		readers = 4
		writers = 2
		iters   = 20000
	)
	m := NewManager[obj](readers + writers)
	var published atomic.Pointer[obj]
	published.Store(&obj{})

	var wg sync.WaitGroup
	var failures atomic.Int64

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Register()
			for i := 0; i < iters; i++ {
				h.Enter()
				next := h.Alloc()
				// Reinitializing a recycled object is only safe if no
				// pinned reader can still observe it; a reader seeing
				// val change mid-hold proves premature recycling.
				atomic.StoreInt64(&next.val, int64(i))
				old := published.Swap(next)
				h.Retire(old)
				h.Exit()
			}
		}()
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Register()
			for i := 0; i < iters; i++ {
				h.Enter()
				p := published.Load()
				// While we are in the critical section, p must not be
				// recycled out from under us: val must stay stable.
				v1 := atomic.LoadInt64(&p.val)
				for spin := 0; spin < 10; spin++ {
					if atomic.LoadInt64(&p.val) != v1 {
						failures.Add(1)
						break
					}
				}
				h.Exit()
			}
		}()
	}

	wg.Wait()
	if f := failures.Load(); f > 0 {
		t.Fatalf("%d protected objects were modified while held", f)
	}
}

func TestRecycleEventuallyHappensUnderChurn(t *testing.T) {
	m := NewManager[obj](2)
	h := m.Register()
	other := m.Register()
	for i := 0; i < 1000; i++ {
		h.Enter()
		h.Retire(h.Alloc())
		h.Exit()
		other.Enter()
		other.Exit()
	}
	if h.Recycled == 0 {
		t.Fatalf("no objects recycled after 1000 retire cycles (limbo=%d, free=%d, epoch=%d)",
			h.LimboCount(), h.FreeCount(), m.Epoch())
	}
}

func TestLimboPlusFreeConservation(t *testing.T) {
	m := NewManager[obj](1)
	h := m.Register()
	const n = 500
	for i := 0; i < n; i++ {
		h.Enter()
		h.Retire(&obj{})
		h.Exit()
		m.tryAdvance()
	}
	total := h.LimboCount() + h.FreeCount()
	if total != n {
		t.Fatalf("limbo+free = %d, want %d (objects lost or duplicated)", total, n)
	}
}

// TestStallRetentionBounded: a participant stalled inside a critical
// section holds the epoch back while another handle retires thousands
// of objects. Once the stall ends, the retirer keeps maxFree of them for
// reuse and leaves the rest, and the limbo array the stall grew, to the
// garbage collector.
func TestStallRetentionBounded(t *testing.T) {
	m := NewManager[obj](2)
	h, stalled := m.Register(), m.Register()
	stalled.Enter()
	const n = 8 * maxFree
	for i := 0; i < n; i++ {
		h.Enter()
		h.Retire(h.Alloc())
		h.Exit()
	}
	if h.Fresh != n || h.LimboCount() != n {
		t.Fatalf("during the stall: fresh=%d limbo=%d, want %d each", h.Fresh, h.LimboCount(), n)
	}
	stalled.Exit()
	for i := 0; i < 3; i++ {
		h.Enter()
		h.Exit()
		m.tryAdvance()
	}
	if h.LimboCount() != 0 || h.FreeCount() != maxFree || h.Recycled != maxFree {
		t.Fatalf("after the stall: limbo=%d free=%d recycled=%d, want 0, %d, %d",
			h.LimboCount(), h.FreeCount(), h.Recycled, maxFree, maxFree)
	}
	for i := range h.bags {
		if c := cap(h.bags[i].items); c > maxFree {
			t.Fatalf("bag %d keeps a %d-slot array after the stall", i, c)
		}
	}
	// The bound caps what is kept, not reuse: the kept objects serve
	// allocations before any fresh one is made.
	for i := 0; i < maxFree; i++ {
		h.Alloc()
	}
	if h.Fresh != n {
		t.Fatalf("fresh = %d after reusing the kept objects, want %d", h.Fresh, n)
	}
}

func BenchmarkEnterExit(b *testing.B) {
	m := NewManager[obj](1)
	h := m.Register()
	for i := 0; i < b.N; i++ {
		h.Enter()
		h.Exit()
	}
}

func BenchmarkRetireAllocCycle(b *testing.B) {
	m := NewManager[obj](1)
	h := m.Register()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Enter()
		h.Retire(h.Alloc())
		h.Exit()
		if i%64 == 0 {
			m.tryAdvance()
		}
	}
}

// TestCloseRecyclesSlot checks that Close returns the handle's slot for
// reuse: a capacity-1 manager must support unbounded register/close
// churn, and a closed (quiescent) slot must never block epoch advance.
func TestCloseRecyclesSlot(t *testing.T) {
	m := NewManager[int](1)
	for i := 0; i < 5; i++ {
		h := m.Register()
		h.Enter()
		h.Retire(new(int))
		h.Exit()
		h.Close()
		h.Close() // idempotent
	}
	// The survivor can still advance epochs: closed slots are quiescent.
	h := m.Register()
	before := m.Epoch()
	for i := 0; i < 200; i++ {
		h.Enter()
		h.Retire(new(int))
		h.Exit()
	}
	if m.Epoch() == before {
		t.Fatal("epoch never advanced after churned slots were closed")
	}
	h.Close()
}

func TestClosePanicsInsideCriticalSection(t *testing.T) {
	m := NewManager[int](1)
	h := m.Register()
	h.Enter()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Close inside critical section")
		}
	}()
	h.Close()
}
