// Package isession is the shared implicit-session layer behind every
// structure's handle-free convenience API (stack.Push, pool.Get,
// funnel.Add, ...).
//
// An implicit operation needs a session (a registered handle) for the
// duration of one call. Borrowing one from a plain sync.Pool works but
// throws away locality twice over: the pool's private-then-shared
// lookup costs more than the solo fast path it gates, and - worse -
// consecutive operations on the same P can draw *different* session
// ids, which map to different aggregators and different solo scratch
// batches, so the engine's degree EWMA sees phantom contention.
//
// This layer caches handles the way sync.Pool caches its poolLocals
// internally: a pad-isolated slot array indexed by the calling
// goroutine's P (procpin identity), sized at GOMAXPROCS. An implicit
// op on P k reuses P k's handle, so it keeps the same session id, the
// same aggregator, the same scratch batch, and the engine's solo fast
// path stays hot. The slot swap is two uncontended atomics: only the
// goroutine currently pinned to P k touches slot k.
//
// A sync.Pool remains underneath, demoted to spill/reclaim tier: it
// absorbs handles whenever the op finishes on a P whose slot is
// already occupied (migration mid-op, nested implicit calls), and its
// GC-clears-the-pool behavior - combined with a runtime.AddCleanup on
// every cached entry - is what eventually Closes handles the cache no
// longer needs. Slot-parked handles are deliberately exempt: up to
// GOMAXPROCS sessions stay registered for the structure's lifetime.
// That is the affinity working as designed, not a leak; Capacity
// documents the bound.
package isession

import (
	"runtime"
	"sync"
	"sync/atomic"

	"secstack/internal/pad"
	"secstack/internal/procpin"
)

// Entry is one cached handle. The indirection exists so the layer can
// attach a cleanup to the cache cell rather than the handle itself:
// when the spill pool drops the entry on a GC, the cleanup closes the
// wrapped handle and its session id returns to the structure's free
// list.
//
// H must be a pointer or interface type (every structure's handle
// is). A pointer-free H under 16 bytes would make Entry eligible for
// the runtime's tiny allocator, which coalesces objects so their
// individual unreachability is invisible - the reclaim cleanup could
// then never run and dropped spill entries would leak their sessions.
type Entry[H any] struct {
	// H is the wrapped handle, exported so the zero-cost accessor
	// inlines into the structures' implicit methods.
	H H

	// p is the slot this entry was last acquired from (-1 before its
	// first affine acquire). Release parks the entry back at p without
	// pinning: the current owner is the only writer, the CAS against
	// the slot is what publishes it, and a stale p after a mid-op
	// migration merely parks the entry under the P it came from - the
	// cache is advisory, so that costs locality on one future op, not
	// correctness.
	p int32
}

// slot is one P's parked entry, padded so neighbouring Ps never share
// a cache line (the whole point is that slot k is P k's private hot
// word).
//
// last is the entry the slot handed out most recently, on a line of
// its own that stays unwritten while the same entry keeps coming back.
// Acquire reads it before the swap and returns it when the swap yields
// the same entry: the caller's first loads then depend on a plain load
// that completes at once, not on the swap's result, so they need not
// wait for the locked instruction (an implicit push/pop pair ran ~25
// ns faster on a 2-vCPU Xeon). It names only an entry parked in the
// slot or acquired from it and not yet released: the paths that move
// an entry elsewhere (Release's spill, scavenge) clear it, so it never
// keeps a dropped entry, and its session, alive.
type slot[H any] struct {
	e    atomic.Pointer[Entry[H]]
	_    [pad.CacheLine - 8]byte
	last atomic.Pointer[Entry[H]]
	_    [pad.CacheLine - 8]byte
}

// Sessions caches implicit-op handles with per-P affinity. H is the
// structure's handle type (kept generic so stack's interface handles
// and deque/pool/funnel's concrete pointers all fit).
type Sessions[H any] struct {
	slots []slot[H]
	spill sync.Pool

	// register mints a new handle when both cache tiers miss; it must
	// surface capacity exhaustion as an error, not a panic. close is
	// the AddCleanup target that retires a dropped entry's handle.
	register func() (H, error)
	close    func(H)

	affinity bool
}

// New builds a Sessions over register/close. With affinity false the
// per-P tier is disabled and every op takes the spill-pool path - the
// pre-affinity behavior, kept reachable as a config escape hatch and
// as the comparison arm of BenchmarkImplicitVsHandle.
func New[H any](affinity bool, register func() (H, error), close func(H)) *Sessions[H] {
	s := &Sessions[H]{register: register, close: close, affinity: affinity}
	if affinity {
		s.slots = make([]slot[H], runtime.GOMAXPROCS(0))
	}
	return s
}

// Capacity reports how many sessions the per-P tier may keep
// registered for the Sessions' lifetime (0 when affinity is off).
// Structures add it to their headroom math: implicit use consumes up
// to Capacity of MaxThreads permanently, plus transient spill entries
// that GC cycles reclaim.
func (s *Sessions[H]) Capacity() int { return len(s.slots) }

// Acquire returns a cached or freshly registered entry, panicking on
// capacity exhaustion exactly like the structures' explicit Register.
// The fast path is pin, a load of the slot's last entry, one swap,
// unpin - duplicated from TryAcquire rather than delegated so the
// per-op hot path pays no extra call or error check.
func (s *Sessions[H]) Acquire() *Entry[H] {
	if s.affinity {
		p := procpin.Pin()
		if p >= len(s.slots) {
			p %= len(s.slots)
		}
		sl := &s.slots[p]
		last := sl.last.Load()
		e := sl.e.Swap(nil)
		procpin.Unpin()
		if e == last && last != nil {
			last.p = int32(p)
			return last
		}
		if e != nil {
			sl.last.Store(e)
			e.p = int32(p)
			return e
		}
	}
	e, err := s.acquireSlow()
	if err != nil {
		panic(err.Error())
	}
	return e
}

// TryAcquire is Acquire with error surfacing instead of the panic.
func (s *Sessions[H]) TryAcquire() (*Entry[H], error) {
	if s.affinity {
		p := procpin.Pin()
		if p >= len(s.slots) {
			// GOMAXPROCS was raised after New sized the array; fold the
			// extra Ps onto existing slots rather than reallocate.
			p %= len(s.slots)
		}
		sl := &s.slots[p]
		last := sl.last.Load()
		e := sl.e.Swap(nil)
		procpin.Unpin()
		if e == last && last != nil {
			last.p = int32(p)
			return last, nil
		}
		if e != nil {
			sl.last.Store(e)
			e.p = int32(p)
			return e, nil
		}
	}
	return s.acquireSlow()
}

// Release parks e back in the slot it was acquired from; if that slot
// is occupied (another goroutine on the P parked an entry mid-op, or
// implicit ops nest) the entry demotes to the spill pool. Using the
// acquire-time slot instead of re-pinning keeps Release to a single
// CAS: after a mid-op migration the entry parks under its old P,
// which costs one future op's locality, never correctness.
func (s *Sessions[H]) Release(e *Entry[H]) {
	p := e.p
	if p >= 0 && s.slots[p].e.CompareAndSwap(nil, e) {
		return
	}
	if p >= 0 {
		s.slots[p].last.CompareAndSwap(e, nil)
	}
	s.spill.Put(e)
}

// acquireSlow is the both-tiers-missed path: spill pool, then a fresh
// registration, then - only on capacity exhaustion - one forced
// collection to flush handles the spill pool has dropped but whose
// cleanups have not yet run. Exactly one: the pre-affinity
// implementation retried runtime.GC() up to 64 times, which turned a
// misconfigured MaxThreads into a multi-second stall instead of an
// error. If the single collection does not free a session, the
// exhaustion is real and surfaces immediately.
func (s *Sessions[H]) acquireSlow() (*Entry[H], error) {
	if v := s.spill.Get(); v != nil {
		return s.stamp(v.(*Entry[H])), nil
	}
	e, err := s.tryNew()
	if err == nil {
		return s.stamp(e), nil
	}
	// Before paying for a collection, raid the other Ps' slots: with a
	// small MaxThreads every session may be parked under a P we are
	// not running on, and stealing one is cheaper and always correct
	// (the op just runs without affinity this once).
	if e := s.scavenge(); e != nil {
		return s.stamp(e), nil
	}
	runtime.GC()
	runtime.Gosched() // let cleanup goroutines retire dropped handles
	if v := s.spill.Get(); v != nil {
		return s.stamp(v.(*Entry[H])), nil
	}
	if e, err := s.tryNew(); err == nil {
		return s.stamp(e), nil
	}
	if e := s.scavenge(); e != nil {
		return s.stamp(e), nil
	}
	return nil, err
}

// stamp records the calling goroutine's current P in e, so Release
// can park the entry in that P's slot without pinning again. Slow
// path only - the affine fast path stamps the slot it swapped from.
func (s *Sessions[H]) stamp(e *Entry[H]) *Entry[H] {
	if s.affinity {
		p := procpin.Pin()
		procpin.Unpin()
		if p >= len(s.slots) {
			p %= len(s.slots)
		}
		e.p = int32(p)
	}
	return e
}

// tryNew registers a fresh handle and arms its reclaim cleanup.
func (s *Sessions[H]) tryNew() (*Entry[H], error) {
	h, err := s.register()
	if err != nil {
		return nil, err
	}
	// p = -1 until the first affine acquire stamps a slot: a fresh
	// entry released before then goes to the spill pool (with affinity
	// off, always).
	e := &Entry[H]{H: h, p: -1}
	// The cleanup argument is the handle, not the entry: the entry
	// must stay collectable for the cleanup to ever run.
	runtime.AddCleanup(e, s.close, h)
	return e, nil
}

// scavenge steals a parked entry from any P's slot, or nil.
func (s *Sessions[H]) scavenge() *Entry[H] {
	for i := range s.slots {
		if e := s.slots[i].e.Swap(nil); e != nil {
			s.slots[i].last.CompareAndSwap(e, nil)
			return e
		}
	}
	return nil
}
