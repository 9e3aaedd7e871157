// Package core implements SEC (Sharded Elimination and Combining), the
// blocking linearizable concurrent stack of Singh, Metaxakis and
// Fatourou (PPoPP '26) - the primary contribution this repository
// reproduces.
//
// Threads are partitioned across K aggregators; the operations of each
// aggregator's threads are grouped into batches. Announcing an
// operation is one fetch&increment on the batch's push or pop counter;
// the returned sequence number doubles as the thread's slot in the
// batch's elimination array. The first push and first pop race on a
// test&set bit to become the batch's freezer, which - after a short
// batch-growing backoff - snapshots both counters and installs a fresh
// batch in the aggregator. Opposite operations with equal sequence
// numbers below the snapshot eliminate each other; the survivors (all
// of one type) are applied to the shared stack by a single per-batch
// combiner with one CAS: push combiners splice a pre-linked substack
// under the top pointer, pop combiners detach a chain of nodes and
// publish it for their batch's waiters to read return values from.
//
// The aggregator/batch lifecycle itself - announcement, the freezer
// race and its backoff, elimination bookkeeping, combiner election,
// batch sizing, session recycling, degree metrics - lives in
// internal/agg, shared with the deque and funnel packages. This
// package instantiates the engine with SEC's pairwise eliminator and
// the stack's appliers: the splice-substack CAS for surviving pushes
// and the detach-chain CAS for surviving pops.
//
// Deviations from the paper's pseudocode, both required for a connected
// substack (see DESIGN.md §7); both live in the appliers below:
//
//   - applyPush initializes the chain head at the combiner's own node
//     (the paper's top=⊥ would disconnect it from the nodes linked on
//     top of it);
//   - applyPop advances k = popCountAtFreeze-pushCountAtFreeze nodes
//     past the old top (the paper's loop advances k-1, which would leave
//     the last served pop's node on the stack).
package core

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"secstack/internal/agg"
	"secstack/internal/metrics"
	"secstack/internal/pad"
)

// node is one cell of the shared stack (and of batch substacks).
type node[T any] struct {
	value T
	next  *node[T]
}

// popChain is the per-batch payload: the chain the pop combiner
// detached from the shared stack, which waiters index into by
// sequence-number offset, plus the surviving-pop countdown used by
// node recycling.
type popChain[T any] struct {
	// top is the detached chain's head; published to waiters by the
	// engine's applied handshake.
	top atomic.Pointer[node[T]]

	// pending (recycling only) counts surviving pops that have not yet
	// read their return value; the reader that decrements it to zero
	// retires the detached chain. Retiring per-node as values are read
	// would be unsound: the chain stays reachable through top, and a
	// sibling waiter still walking to its offset publishes no hazard for
	// the detached nodes it traverses.
	pending atomic.Int64
}

const (
	// scanFloor is the fewest retires between two hazard scans of a
	// handle. A scan reads the two slots of every HighWater session, so
	// it also waits for at least twice that many slots' worth of
	// retires: each scan then frees at least half of what it examines.
	scanFloor = 64

	// maxFree bounds a handle's free list; nodes a scan frees past it go
	// to the garbage collector.
	maxFree = 256
)

// nodeHazards is one session's pair of published node references
// (recycling only), indexed by its engine tid like agg's batch
// HazardSlots and padded so sessions do not share a line. Slot 0 holds
// the top a pop loaded; slot 1 the node below it that a pop combiner
// is reading. Only the owning session writes them; they may stay set
// between operations, pinning at most two nodes, and Close clears them.
type nodeHazards[T any] struct {
	p [2]atomic.Pointer[node[T]]
	_ [pad.CacheLine - 16]byte
}

// recycler is a handle's node-recycling state: its hazard slots, the
// nodes it popped from the shared stack and retired, and the free list
// a scan moves unpublished ones to.
type recycler[T any] struct {
	hp      *nodeHazards[T]
	free    []*node[T]
	retired []*node[T]

	// snap is the scan's scratch: the addresses of the nodes published
	// in its single pass over the hazard slots. Addresses, not pointers,
	// so the scratch never keeps a node alive.
	snap []uintptr
}

// secBatch and secEngine name this package's engine instantiation.
type (
	secBatch[T any]  = agg.Batch[node[T], popChain[T]]
	secEngine[T any] = agg.Engine[node[T], popChain[T]]
)

// Options configures a SEC stack. The zero value selects the defaults
// the paper's evaluation uses where applicable.
type Options struct {
	// Aggregators is K, the number of shards threads are partitioned
	// into. The paper's evaluation defaults to 2.
	Aggregators int

	// MaxThreads bounds Register calls; it also sizes elimination
	// arrays (ceil(MaxThreads/Aggregators) slots each). Default 256.
	MaxThreads int

	// FreezerSpin is the freezer's pre-freeze backoff in spin
	// iterations, which grows batches and with them the elimination and
	// combining degrees (§3.1 of the paper). Default 128; 0 disables.
	FreezerSpin int

	// AdaptiveSpin turns FreezerSpin into the ceiling of a
	// per-aggregator controller driven by the batch-degree EWMA: the
	// effective spin grows toward FreezerSpin while batches freeze
	// well-filled and decays toward zero while they freeze near-empty
	// (see DESIGN.md §9).
	AdaptiveSpin bool

	// NoElimination disables in-batch elimination, leaving freezing and
	// combining intact: both a push and a pop combiner may then apply
	// their sides of a batch. This is the ablation isolating how much
	// of SEC's win comes from elimination versus combining.
	NoElimination bool

	// Recycle reuses popped nodes instead of allocating a fresh node
	// per push, the Go analogue of the paper's DEBRA deployment. A node
	// returns to a handle's free list once no session's hazard pointer
	// names it (DESIGN.md §4).
	Recycle bool

	// CollectMetrics enables the batching/elimination/combining degree
	// counters behind the paper's Tables 1-3.
	CollectMetrics bool

	// Adaptive enables contention adaptivity: the solo fast path (a
	// push or pop attempts one Treiber-style CAS directly when its
	// aggregator's recent batch degree is ~1, falling back to the full
	// batch protocol on contention) and dynamic shard scaling between 1
	// and Aggregators. See DESIGN.md §8.
	Adaptive bool

	// BatchRecycle retires frozen batches to per-aggregator free lists
	// for reuse - slot arrays and pop-chain payloads included - so the
	// steady-state freeze path allocates nothing.
	BatchRecycle bool
}

func (o Options) withDefaults() Options {
	if o.Aggregators <= 0 {
		o.Aggregators = 2
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = 256
	}
	if o.FreezerSpin < 0 {
		o.FreezerSpin = 0
	}
	return o
}

// Stack is a SEC stack. Use Register to obtain per-goroutine handles.
type Stack[T any] struct {
	top atomic.Pointer[node[T]]

	eng *secEngine[T]
	hp  []nodeHazards[T] // per-session node hazards; nil when recycling is off
}

// New returns an empty SEC stack configured by opts.
func New[T any](opts Options) *Stack[T] {
	o := opts.withDefaults()
	s := &Stack[T]{}
	eliminate := agg.PairElim
	if o.NoElimination {
		eliminate = agg.NoElim
	}
	var m *metrics.SEC
	if o.CollectMetrics {
		m = metrics.NewSEC(o.Aggregators)
	}
	if o.Recycle {
		s.hp = make([]nodeHazards[T], o.MaxThreads)
	}
	s.eng = agg.New(agg.Spec[node[T], popChain[T]]{
		Aggregators:  o.Aggregators,
		MaxThreads:   o.MaxThreads,
		FreezerSpin:  o.FreezerSpin,
		AdaptiveSpin: o.AdaptiveSpin,
		Partitioned:  true,
		Recycle:      o.BatchRecycle,
		Adaptive:     o.Adaptive,
		Eliminate:    eliminate,
		ResetData:    s.resetChain,
		ApplyPush:    s.applyPush,
		ApplyPop:     s.applyPop,
		TrySoloPush:  s.trySoloPush,
		TrySoloPop:   s.trySoloPop,
		Metrics:      m,
	})
	return s
}

// resetChain clears a recycled batch's pop-chain payload so a reused
// batch cannot publish a previous incarnation's detached chain (or
// keep its nodes reachable for the GC).
func (s *Stack[T]) resetChain(p *popChain[T]) {
	p.top.Store(nil)
	p.pending.Store(0)
}

// Metrics returns the degree snapshot collector, or nil if
// CollectMetrics was not set.
func (s *Stack[T]) Metrics() *metrics.SEC { return s.eng.Metrics() }

// Handle is one goroutine's session on the stack: its thread id maps
// to its aggregator (consulted per operation, since dynamic shard
// scaling may remap it). Handles must not be shared between
// goroutines.
type Handle[T any] struct {
	s      *Stack[T]
	tid    int
	rec    *recycler[T] // nil when recycling is off
	closed bool

	// hz is the session's cached hazard slot (nil without batch
	// recycling): the op-end Done bookkeeping runs through it inline
	// instead of an engine call per operation.
	hz *agg.HazardSlot[node[T], popChain[T]]

	// spare is a scrubbed node recovered from a failed TryPush when no
	// free list exists to take it (rec == nil); the next
	// alloc reuses it, so a contended steal sweep costs CASes, not
	// dead allocations.
	spare *node[T]
}

// Register returns a new handle. Thread ids are drawn from a lock-free
// free list and assigned round-robin across aggregators, giving the
// even distribution the paper prescribes; ids released by Close are
// reused, so MaxThreads bounds concurrently live handles rather than
// lifetime registrations. It panics once MaxThreads handles are live at
// the same time.
func (s *Stack[T]) Register() *Handle[T] {
	h, err := s.TryRegister()
	if err != nil {
		panic(err.Error())
	}
	return h
}

// TryRegister is Register with an error in place of the exhaustion
// panic, for callers that prefer backpressure over crashing.
func (s *Stack[T]) TryRegister() (*Handle[T], error) {
	tid, err := s.eng.Register()
	if err != nil {
		return nil, fmt.Errorf("core: more than MaxThreads=%d handles live", s.eng.MaxThreads())
	}
	h := &Handle[T]{s: s, tid: tid, hz: s.eng.Hazard(tid)}
	if s.hp != nil {
		h.rec = &recycler[T]{hp: &s.hp[tid]}
	}
	return h, nil
}

// SetDoneCadence amortizes this handle's announcement: the session's
// hazard is cleared on every k-th operation instead of every one, so
// long runs on one aggregator skip the per-op publish-and-revalidate
// (see agg.Engine.SetDoneCadence for the safety bound). The implicit
// session layer sets it on its cached handles; explicit callers may
// too when a handle lives for many operations. No-op without batch
// recycling.
func (h *Handle[T]) SetDoneCadence(k int) {
	h.s.eng.SetDoneCadence(h.tid, k)
}

// Close releases the handle's thread id for reuse by a future
// Register, so goroutine churn cannot exhaust MaxThreads, and clears
// the session's node hazards so an idle id pins nothing. The handle's
// retired and free nodes go to the garbage collector: a retired node
// may still be published by another session, and letting the GC have
// it is always safe in Go. Close is idempotent; any other use of a
// closed handle is a bug. It must not be called while an operation on
// the handle is in flight.
func (h *Handle[T]) Close() {
	if h.closed {
		return
	}
	h.closed = true
	if r := h.rec; r != nil {
		r.hp.p[0].Store(nil)
		r.hp.p[1].Store(nil)
		r.free, r.retired, r.snap = nil, nil, nil
	}
	h.s.eng.Release(h.tid)
}

// alloc produces an initialized node, recycled when possible (from the
// handle's free list, or from the spare a failed TryPush left behind).
func (h *Handle[T]) alloc(v T) *node[T] {
	if r := h.rec; r != nil {
		if i := len(r.free) - 1; i >= 0 {
			n := r.free[i]
			r.free[i] = nil
			r.free = r.free[:i]
			n.value = v
			n.next = nil
			return n
		}
		return &node[T]{value: v}
	}
	if n := h.spare; n != nil {
		h.spare = nil
		n.value = v
		return n
	}
	return &node[T]{value: v}
}

// unalloc hands a node that never reached the shared stack straight
// back to the free list: no other session can have published it.
func (r *recycler[T]) unalloc(n *node[T]) {
	if len(r.free) < maxFree {
		r.free = append(r.free, n)
	}
}

// retire queues a node this handle popped from the shared stack, and
// runs a hazard scan once the queue is long enough: at least scanFloor
// nodes and at least twice the two slots of every HighWater session.
func (h *Handle[T]) retire(n *node[T]) {
	r := h.rec
	r.retired = append(r.retired, n)
	if len(r.retired) < scanFloor {
		return
	}
	if hw := h.s.eng.HighWater(); len(r.retired) >= 4*hw {
		r.scan(h.s.hp[:hw])
	}
}

// scan moves every retired node no hazard slot in hp names to the free
// list (up to maxFree; the rest go to the garbage collector) and keeps
// the published ones for a later scan. One pass reads the slots into
// the snapshot; agg.ScanRetired filters the retired list against it.
// A node that leaves has its link cleared, so neither a node some
// hazard still pins nor one on the free list keeps a chain of dropped
// nodes reachable.
//
// Soundness: a reader publishes a node and then re-checks that it is
// still reachable from the top before dereferencing it. A node is
// retired only after a CAS removed it from the stack, and no removed
// node returns to the stack unless recycled. So a reader whose check
// succeeded published before the retire, and this scan sees its slot;
// one whose check failed never touches the node.
func (r *recycler[T]) scan(hp []nodeHazards[T]) {
	snap := r.snap[:0]
	for i := range hp {
		for j := range hp[i].p {
			if p := hp[i].p[j].Load(); p != nil {
				snap = append(snap, uintptr(unsafe.Pointer(p)))
			}
		}
	}
	r.retired, r.free = agg.ScanRetired(snap, r.retired, r.free, maxFree, unlink[T])
	r.snap = snap
}

// unlink clears a node's link as it leaves the retired list. No hazard
// names the node then, so no reader can still follow the link.
func unlink[T any](n *node[T]) { n.next = nil }

// protectTop loads the top and publishes it in slot, re-loading until
// the published node is still the top: from then on it cannot be
// recycled while slot names it, so its fields are safe to read. A slot
// that already names the loaded top needs no new publish: only the
// owner writes it, so it named the node while the load found the node
// on the stack.
func (s *Stack[T]) protectTop(slot *atomic.Pointer[node[T]]) *node[T] {
	n := s.top.Load()
	for n != nil && slot.Load() != n {
		slot.Store(n)
		m := s.top.Load()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// Push adds v to the stack (Algorithm 1 of the paper). The batch
// lifecycle - announcement, freeze, elimination, combiner election -
// runs in the engine; an eliminated push returns right away (the
// paired pop reads the node from the elimination array), a surviving
// push returns once its batch's combiner spliced the substack.
func (h *Handle[T]) Push(v T) {
	eng := h.s.eng
	eng.Push(h.tid, eng.AggOf(h.tid), h.alloc(v))
	if hz := h.hz; hz != nil && hz.Tick() {
		hz.Clear()
	}
}

// applyPush is the paper's PushToStack, executed only by a batch's
// push combiner: link the surviving nodes into a substack and splice it
// onto the shared stack with one CAS. WaitSlot covers announcers still
// between their fetch&increment and their slot store.
func (s *Stack[T]) applyPush(_ int, b *secBatch[T], seq, pushAtF int64) {
	bot := b.WaitSlot(seq) // the combiner's own node, already stored
	top := bot
	for i := seq + 1; i < pushAtF; i++ {
		n := b.WaitSlot(i)
		n.next = top
		top = n
	}
	for {
		oldTop := s.top.Load()
		bot.next = oldTop
		if s.top.CompareAndSwap(oldTop, top) {
			return
		}
	}
}

// Pop removes and returns the top element (Algorithm 2 of the paper);
// ok is false if the stack did not hold enough elements for this
// operation's slice of its batch.
func (h *Handle[T]) Pop() (v T, ok bool) {
	eng := h.s.eng
	t := eng.Pop(h.tid, eng.AggOf(h.tid))
	if t.Elim != nil {
		// Eliminated: the paired push's node came straight from the
		// elimination array. It never reached the shared stack, so no
		// hazard can name it and it is free for reuse at once.
		val := t.Elim.value
		if h.rec != nil {
			h.rec.unalloc(t.Elim)
		}
		if hz := h.hz; hz != nil && hz.Tick() {
			hz.Clear()
		}
		return val, true
	}
	v, ok = getValue(t.B, t.Off)
	h.releaseSubstack(t.B, t.K)
	if hz := h.hz; hz != nil && hz.Tick() {
		hz.Clear() // finished with the batch's published chain
	}
	return v, ok
}

// TryPop attempts to serve one pop with a single Treiber-style CAS
// through the session's scratch batch, bypassing the batch protocol
// regardless of the aggregator's mode - the cheap steal primitive
// behind the pool's peek-then-steal Get. applied=false means the CAS
// lost to a concurrent operation: the stack is unchanged, nothing was
// announced, and the caller may walk away or escalate to the full
// Pop. applied=true answers the pop: ok=false when the stack was
// observed empty (linearizing at the top load, like Pop), ok=true
// with the detached top's value otherwise. Unlike Pop it never joins
// a batch, never eliminates, and feeds no adaptivity signal - a
// foreign thief's probe says nothing about the home threads' degree.
func (h *Handle[T]) TryPop() (v T, ok, applied bool) {
	eng := h.s.eng
	t, applied := eng.TryPop(h.tid, eng.AggOf(h.tid))
	if !applied {
		return v, false, false
	}
	v, ok = getValue(t.B, t.Off)
	h.releaseSubstack(t.B, t.K)
	// No Done: TryPop announces on no shared batch, so the session's
	// batch hazard was never published.
	return v, ok, true
}

// TryPush is TryPop's push-side twin: one Treiber-style CAS attempt
// splicing a single node under the top pointer through the session's
// scratch batch, bypassing the batch protocol regardless of the
// aggregator's mode - the steal primitive behind the pool's
// Put-overflow sweep. applied=false means the CAS lost to a concurrent
// operation: the stack is unchanged, nothing was announced, the node
// is recovered (onto the handle's free list, or as the handle's spare
// when recycling is off), and the caller may try elsewhere or
// escalate to the full Push. Like TryPop it never joins a batch, never
// eliminates, and feeds no adaptivity signal.
func (h *Handle[T]) TryPush(v T) (applied bool) {
	eng := h.s.eng
	n := h.alloc(v)
	if _, applied = eng.TryPush(h.tid, eng.AggOf(h.tid), n); !applied {
		// The node was never published; clear it and hand it straight
		// back so a failed attempt costs no allocation in steady state.
		var zero T
		n.value = zero
		n.next = nil
		if h.rec != nil {
			h.rec.unalloc(n)
		} else {
			h.spare = n
		}
	}
	// No Done: TryPush announces on no shared batch, so the session's
	// batch hazard was never published.
	return applied
}

// applyPop is the paper's PopFromStack, executed only by a batch's
// pop combiner (session id): detach k nodes (or as many as exist) from
// the shared stack with one CAS and publish the removed chain.
func (s *Stack[T]) applyPop(id, _ int, b *secBatch[T], e, popAtF int64) {
	k := popAtF - e
	if s.hp != nil {
		b.Data.pending.Store(k) // published to waiters by the applied flag
		b.Data.top.Store(s.detachProtected(&s.hp[id], k))
		return
	}
	for {
		oldTop := s.top.Load()
		newTop := oldTop
		for i := int64(0); i < k && newTop != nil; i++ {
			newTop = newTop.next
		}
		if s.top.CompareAndSwap(oldTop, newTop) {
			b.Data.top.Store(oldTop)
			return
		}
	}
}

// detachProtected is applyPop's detach loop under node recycling. The
// combiner keeps the top it loaded published in slot 0 and each node
// it reads below it in slot 1, hand over hand, re-checking after every
// publish that the top has not moved: while it has not, the chain down
// to the published node is still on the stack, so no read touches a
// recycled node. A moved top restarts the attempt, as a lost CAS does.
// The protected top also excludes ABA: it cannot be recycled and pushed
// back, so a successful CAS means it never left the stack.
func (s *Stack[T]) detachProtected(hp *nodeHazards[T], k int64) *node[T] {
retry:
	for {
		oldTop := s.protectTop(&hp.p[0])
		newTop := oldTop
		for i := int64(0); i < k && newTop != nil; i++ {
			if i > 0 {
				hp.p[1].Store(newTop)
				if s.top.Load() != oldTop {
					continue retry
				}
			}
			newTop = newTop.next
		}
		if s.top.CompareAndSwap(oldTop, newTop) {
			return oldTop
		}
	}
}

// trySoloPush is the solo fast path's push applier: one Treiber-style
// CAS attempt splicing the scratch batch's single node under the top
// pointer. Failure leaves the stack unchanged and sends the operation
// through the full batch protocol.
func (s *Stack[T]) trySoloPush(_ int, b *secBatch[T]) bool {
	n := b.Slot(0)
	old := s.top.Load()
	n.next = old
	return s.top.CompareAndSwap(old, n)
}

// trySoloPop is the solo fast path's pop applier: one Treiber-style
// CAS attempt detaching the top node, published through the scratch
// batch's chain payload exactly as applyPop publishes a k-node chain
// (so getValue and releaseSubstack serve solo pops unchanged). An
// observed-empty stack "succeeds" with a nil chain - the operation
// linearizes at the top load. ABA is excluded the same way as in
// applyPop: under recycling session id's hazard slot 0 protects the
// top before its next field is read, and without recycling the garbage
// collector pins the node.
func (s *Stack[T]) trySoloPop(id, _ int, b *secBatch[T]) bool {
	var old *node[T]
	if s.hp != nil {
		old = s.protectTop(&s.hp[id].p[0])
	} else {
		old = s.top.Load()
	}
	if old != nil && !s.top.CompareAndSwap(old, old.next) {
		return false
	}
	if s.hp != nil {
		b.Data.pending.Store(1)
	}
	b.Data.top.Store(old)
	return true
}

// getValue is the paper's GetValue: the pop with offset off into its
// batch's surviving pops receives the off-th node of the removed chain,
// or EMPTY if the stack ran out.
func getValue[T any](b *secBatch[T], off int64) (v T, ok bool) {
	n := b.Data.top.Load()
	for i := int64(0); i < off && n != nil; i++ {
		n = n.next
	}
	if n == nil {
		return v, false
	}
	return n.value, true
}

// releaseSubstack notes that one surviving pop has read its value; the
// last reader retires the batch's detached chain (recycling only).
func (h *Handle[T]) releaseSubstack(b *secBatch[T], k int64) {
	if h.rec == nil {
		return
	}
	if b.Data.pending.Add(-1) != 0 {
		return
	}
	n := b.Data.top.Load()
	for i := int64(0); i < k && n != nil; i++ {
		next := n.next
		h.retire(n)
		n = next
	}
}

// Peek returns the top element without removing it; a single atomic
// read of the top pointer, as in the paper. Under recycling the top is
// published in the session's hazard slot 0 before its value is read,
// since a popped node may be scrubbed and reused at any moment.
func (h *Handle[T]) Peek() (v T, ok bool) {
	var n *node[T]
	if r := h.rec; r != nil {
		n = h.s.protectTop(&r.hp.p[0])
	} else {
		n = h.s.top.Load()
	}
	if n != nil {
		v, ok = n.value, true
	}
	return v, ok
}

// Len counts the elements currently on the shared stack; a racy
// diagnostic for tests and quiescent states.
func (s *Stack[T]) Len() int {
	n := 0
	for p := s.top.Load(); p != nil; p = p.next {
		n++
	}
	return n
}

// Aggregators reports K, for harness labeling.
func (s *Stack[T]) Aggregators() int { return s.eng.Aggregators() }

// EffectiveAggregators reports the current effective shard count
// (equal to Aggregators unless Adaptive shard scaling shrank it).
func (s *Stack[T]) EffectiveAggregators() int { return s.eng.EffectiveAggregators() }

// RegisteredThreads reports how many handles are currently live
// (registered and not yet closed).
func (s *Stack[T]) RegisteredThreads() int { return s.eng.InUse() }

// DegreeEWMA reports the mean batch-degree EWMA across the stack's
// effective aggregators, in operations per batch - the per-shard
// contention estimate the pool's elastic controller reads.
func (s *Stack[T]) DegreeEWMA() float64 {
	k := s.eng.EffectiveAggregators()
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += s.eng.DegreeEWMA(i)
	}
	return sum / float64(k)
}

// Solo reports whether every effective aggregator currently runs the
// solo fast path - the stack has seen no recent contention. Always
// false when Adaptive is off.
func (s *Stack[T]) Solo() bool {
	k := s.eng.EffectiveAggregators()
	for i := 0; i < k; i++ {
		if !s.eng.SoloMode(i) {
			return false
		}
	}
	return true
}
