// Package ebr implements DEBRA-style epoch-based memory reclamation
// (Brown, PODC '15), the reclamation substrate the paper deploys in SEC
// for batches and stack nodes.
//
// Go is garbage collected, so "reclamation" here drives *recycling*: a
// retired object goes into a per-thread limbo bag and is handed back for
// reuse only once no concurrent operation can still hold a reference to
// it. This mirrors the role DEBRA plays in the C++ artifact and is what
// makes node reuse safe in the CAS-based stacks (an object cannot be
// recycled - and thus cannot cause ABA - while a reader that might have
// observed it is still in its critical section).
//
// The scheme is the classic three-epoch design. A global epoch counter
// advances only when every thread currently inside a critical section
// has announced the current epoch. Each handle keeps three limbo bags;
// objects retired two epochs ago are moved to a free list when the
// handle observes an epoch change.
//
// Like DEBRA (and unlike its neutralization-based successors), a thread
// that stalls inside a critical section blocks epoch advance; bags grow
// but safety is never violated. What a stall grows is not kept: once
// the epoch moves on, a handle keeps at most maxFree objects for reuse
// and leaves the rest to the garbage collector.
package ebr

import (
	"fmt"
	"sync/atomic"

	"secstack/internal/pad"
	"secstack/internal/tid"
)

const (
	// advancePeriod is how many Retire calls a handle performs between
	// attempts to advance the global epoch.
	advancePeriod = 32

	// maxFree bounds a handle's free list. While a participant stalls
	// inside a critical section - descheduled, or yielding while it
	// waits on a batch - the epoch stands still and every other
	// handle's current limbo bag grows with each retire. Moved whole to
	// the free list, a stall's objects would stay there for the
	// handle's lifetime, since only Alloc shrinks a free list, so the
	// memory a handle pins would be set by its longest stall. Objects
	// past the bound, and a limbo array a stall grew past it, go to the
	// garbage collector instead. A free list stays at a few hundred
	// objects without stalls.
	maxFree = 512

	// activeBit marks a slot's announcement as "inside a critical
	// section"; the remaining bits carry the announced epoch.
	activeBit = 1
)

type paddedSlot struct {
	// ann = epoch<<1 | activeBit while in a critical section,
	// epoch<<1 when quiescent.
	ann atomic.Uint64
	_   [pad.CacheLine - 8]byte
}

// Manager coordinates epochs across up to maxThreads participants and
// recycles objects of type T.
type Manager[T any] struct {
	epoch atomic.Uint64
	slots []paddedSlot
	ids   *tid.Allocator
}

// NewManager returns a manager supporting up to maxThreads concurrently
// registered handles.
func NewManager[T any](maxThreads int) *Manager[T] {
	if maxThreads < 1 {
		maxThreads = 1
	}
	return &Manager[T]{slots: make([]paddedSlot, maxThreads), ids: tid.New(maxThreads)}
}

// Epoch reports the current global epoch, for tests and monitoring.
func (m *Manager[T]) Epoch() uint64 { return m.epoch.Load() }

// Register allocates a handle for one thread (goroutine). Slot ids are
// recycled through Close, so maxThreads bounds concurrently live
// handles, not lifetime registrations; Register panics only when that
// many handles are simultaneously open. Handles are not safe for
// concurrent use; each worker goroutine owns exactly one.
func (m *Manager[T]) Register() *Handle[T] {
	id, err := m.ids.Acquire()
	if err != nil {
		panic(fmt.Sprintf("ebr: more than %d handles live", len(m.slots)))
	}
	h := &Handle[T]{m: m, id: id}
	h.localEpoch = m.epoch.Load()
	// Start quiescent at the current epoch.
	m.slots[id].ann.Store(h.localEpoch << 1)
	return h
}

// tryAdvance bumps the global epoch if every active participant has
// announced it. Returns true if the epoch moved (by this or another
// thread).
func (m *Manager[T]) tryAdvance() bool {
	e := m.epoch.Load()
	n := m.ids.HighWater()
	for i := 0; i < n; i++ {
		a := m.slots[i].ann.Load()
		if a&activeBit != 0 && a>>1 != e {
			return m.epoch.Load() != e
		}
	}
	return m.epoch.CompareAndSwap(e, e+1) || m.epoch.Load() != e
}

// limboBag holds objects retired during one epoch.
type limboBag[T any] struct {
	epoch uint64
	items []*T
}

// Handle is one thread's view of the manager: its epoch announcement
// slot, its three limbo bags, and its free list of recycled objects.
type Handle[T any] struct {
	m           *Manager[T]
	id          int
	localEpoch  uint64
	bags        [3]limboBag[T]
	free        []*T
	retireCount int
	depth       int // critical-section nesting depth
	closed      bool

	// Stats, exposed for tests and the reclamation ablation bench.
	Recycled int64 // objects moved from limbo to the free list
	Fresh    int64 // objects allocated because the free list was empty
}

// Enter begins a critical section: the handle announces the current
// global epoch and is guaranteed that no object retired from now on is
// recycled until the matching Exit. Enter/Exit pairs may nest; only the
// outermost pair performs announcements.
func (h *Handle[T]) Enter() {
	h.depth++
	if h.depth > 1 {
		return
	}
	e := h.m.epoch.Load()
	h.m.slots[h.id].ann.Store(e<<1 | activeBit)
	if e != h.localEpoch {
		h.rotate(e)
	}
}

// Exit ends the critical section begun by the matching Enter.
func (h *Handle[T]) Exit() {
	if h.depth == 0 {
		panic("ebr: Exit without matching Enter")
	}
	h.depth--
	if h.depth > 0 {
		return
	}
	h.m.slots[h.id].ann.Store(h.localEpoch << 1)
}

// rotate adopts global epoch e: every bag whose retirement epoch is at
// least two behind e is drained to the free list (an object retired at
// epoch b can only be referenced by threads that announced b or b+1, so
// once the global epoch reaches b+2 no critical section can still see
// it), up to maxFree objects on the list. Because bag indices are
// epoch%3 and a bag sharing an index with the new current epoch is at
// least three epochs old, the current bag is always empty after
// draining.
func (h *Handle[T]) rotate(e uint64) {
	for i := range h.bags {
		b := &h.bags[i]
		if len(b.items) > 0 && b.epoch+2 <= e {
			n := min(len(b.items), max(maxFree-len(h.free), 0))
			h.Recycled += int64(n)
			h.free = append(h.free, b.items[:n]...)
			if cap(b.items) > maxFree {
				b.items = nil
			} else {
				clear(b.items[n:])
				b.items = b.items[:0]
			}
		}
	}
	h.localEpoch = e
}

// Retire submits p for recycling once it is safe. Must be called inside
// a critical section (between Enter and Exit).
func (h *Handle[T]) Retire(p *T) {
	if h.depth == 0 {
		panic("ebr: Retire outside critical section")
	}
	b := &h.bags[h.localEpoch%3]
	if len(b.items) == 0 {
		b.epoch = h.localEpoch
	}
	b.items = append(b.items, p)
	h.retireCount++
	if h.retireCount%advancePeriod == 0 {
		h.m.tryAdvance()
	}
}

// Unalloc returns an object obtained from Alloc straight to the free
// list, without the epoch delay Retire imposes. It is only safe for
// objects that were never made reachable to another thread - e.g. a
// node whose publishing CAS lost - since an unpublished object cannot
// be held by any concurrent reader.
func (h *Handle[T]) Unalloc(p *T) {
	h.free = append(h.free, p)
}

// Alloc returns a recycled object if one is available, or a fresh
// zero-valued one otherwise. The caller is responsible for
// re-initializing recycled objects.
func (h *Handle[T]) Alloc() *T {
	if n := len(h.free); n > 0 {
		p := h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
		return p
	}
	h.Fresh++
	return new(T)
}

// Close releases the handle's slot for reuse by a future Register.
// Close must be called outside any critical section; it panics between
// Enter and Exit. The handle's limbo bags and free list are dropped to
// the garbage collector - an object in limbo may still be referenced by
// a concurrent critical section, and letting the GC reclaim it is
// always safe in Go, whereas handing it to another handle's free list
// would not be. Close is idempotent; any other use of a closed handle
// is a bug.
func (h *Handle[T]) Close() {
	if h.closed {
		return
	}
	if h.depth != 0 {
		panic("ebr: Close inside critical section")
	}
	h.closed = true
	for i := range h.bags {
		h.bags[i].items = nil
	}
	h.free = nil
	// The slot was left quiescent by the last Exit (or never activated),
	// so a released slot can never block epoch advance.
	h.m.ids.Release(h.id)
}

// FreeCount reports the number of objects currently on the free list.
func (h *Handle[T]) FreeCount() int { return len(h.free) }

// LimboCount reports the number of objects in limbo bags, i.e. retired
// but not yet recyclable.
func (h *Handle[T]) LimboCount() int {
	return len(h.bags[0].items) + len(h.bags[1].items) + len(h.bags[2].items)
}
