// Package tid provides a lock-free allocator of small dense integer
// ids, the substrate behind handle-slot recycling across the
// repository: every Register path (SEC stack, deque ends, funnel
// aggregators, pools) draws its thread id from an Allocator and hands
// it back on Handle.Close, so id slots - and the per-slot state they
// index, such as the batch and node hazard slots - survive unbounded
// goroutine churn under a fixed capacity.
//
// Ids are allocated from two sources: a monotone fresh counter (ids
// that have never been used) and a Treiber-style free list of released
// ids. The free list threads through a next array indexed by id, with
// an ABA tag packed into the head word, so both Acquire and Release are
// a single CAS in the common case and the allocator never allocates
// after construction.
package tid

import (
	"fmt"
	"sync/atomic"
)

// Allocator hands out ids in [0, Cap()). It is safe for concurrent use.
type Allocator struct {
	capacity int

	// fresh is the count of never-recycled ids handed out; ids below it
	// came from the fresh counter, ids at or above it do not exist yet.
	fresh atomic.Int64

	// head is the free list: tag<<32 | (id+1), with 0 meaning empty.
	// The tag increments on every successful push and pop, defeating
	// ABA between a racing pop's head read and its CAS.
	head atomic.Uint64

	// next[id] is the id+1 encoding of the free-list successor of id
	// (0 terminates). Written only while id is off the list.
	next []atomic.Uint32

	inUse atomic.Int64
}

// New returns an allocator of ids 0..capacity-1.
func New(capacity int) *Allocator {
	if capacity < 1 {
		capacity = 1
	}
	return &Allocator{capacity: capacity, next: make([]atomic.Uint32, capacity)}
}

// Cap reports the total number of ids the allocator manages.
func (a *Allocator) Cap() int { return a.capacity }

// InUse reports how many ids are currently acquired.
func (a *Allocator) InUse() int { return int(a.inUse.Load()) }

// HighWater reports the number of distinct ids ever handed out. Ids
// are dense - fresh ones come from a monotone counter and recycled
// ones are always below it - so every id that can possibly be live is
// strictly below HighWater, and per-id state only ever needs scanning
// up to this bound. The counter is advanced before Acquire returns,
// never by a racing thread on behalf of another, so the bound covers
// every returned id at the moment it is returned.
func (a *Allocator) HighWater() int { return int(a.fresh.Load()) }

// Acquire returns a free id, preferring recycled ids (whose per-slot
// state is warm) over fresh ones. It fails only when all capacity ids
// are simultaneously live.
func (a *Allocator) Acquire() (int, error) {
	for {
		h := a.head.Load()
		idx := uint32(h)
		if idx == 0 {
			break // free list empty: fall through to the fresh counter
		}
		nxt := a.next[idx-1].Load()
		if a.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(nxt)) {
			a.inUse.Add(1)
			return int(idx - 1), nil
		}
	}
	for {
		f := a.fresh.Load()
		if f >= int64(a.capacity) {
			// Fresh ids are exhausted; a concurrent Release may have
			// refilled the free list since we last looked.
			h := a.head.Load()
			idx := uint32(h)
			if idx == 0 {
				return 0, fmt.Errorf("tid: all %d ids in use", a.capacity)
			}
			nxt := a.next[idx-1].Load()
			if a.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(nxt)) {
				a.inUse.Add(1)
				return int(idx - 1), nil
			}
			continue
		}
		if a.fresh.CompareAndSwap(f, f+1) {
			a.inUse.Add(1)
			return int(f), nil
		}
	}
}

// Release returns id to the free list. Releasing an id that is not
// currently acquired corrupts the allocator; callers guard against
// double release (Handle.Close is idempotent at the handle layer).
func (a *Allocator) Release(id int) {
	if id < 0 || id >= a.capacity {
		panic(fmt.Sprintf("tid: Release(%d) out of range [0,%d)", id, a.capacity))
	}
	for {
		h := a.head.Load()
		a.next[id].Store(uint32(h))
		if a.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(id+1)) {
			a.inUse.Add(-1)
			return
		}
	}
}
