// Package agg is the generic sharded-batching engine underneath every
// SEC-style structure in the repository: the aggregator/batch lifecycle
// of Singh, Metaxakis and Fatourou (PPoPP '26), factored out of the
// concrete stack so that the deque and the aggregating-funnel counter
// (Roh et al., PPoPP '24 - the work the paper credits for SEC's
// nested-sharding idea) instantiate the same protocol instead of
// re-implementing it.
//
// The engine owns everything that is structure-agnostic:
//
//   - aggregators (padded active-batch pointers) and the thread-id
//     free list that assigns sessions to them;
//   - announcement by fetch&increment into per-batch push/pop counters,
//     with the push side's value slots;
//   - the freezer race (first announcer of either side wins a test&set),
//     the batch-growing freezer backoff, the clamped counter snapshot,
//     and the fresh-batch install that releases spinning announcers;
//   - elimination bookkeeping, combiner election (the first survivor of
//     a side), and the applied-flag handshake waiters block on;
//   - batch sizing that tracks live sessions, and the per-batch
//     occupancy / elimination-rate counters behind the paper's tables.
//
// A structure parameterises the engine with an Eliminator - how
// opposite-type sequence numbers cancel (pairwise for stack and deque,
// identity for the funnel, which has no opposite type) - and with
// appliers: the push-side and pop-side combiner bodies that apply a
// frozen batch's survivors to the shared structure (a splice-substack
// CAS for the stack, a per-end mutex apply for the deque, one hardware
// fetch&add plus prefix sums for the funnel).
//
// # Lifecycle of one operation
//
// Every full-protocol operation moves through four stages:
//
//  1. Announce: Push/Pop load the session's aggregator's active batch
//     (publishing it through the session's hazard slot when recycling
//     is on) and fetch&increment its side's counter; the returned
//     sequence number is the operation's slot in the batch.
//  2. Freeze: the first announcer of either side wins the freezer race,
//     waits out the batch-growing backoff (fixed or adaptive), snapshots
//     both counters, and installs the next batch - which releases every
//     spinning announcer. Operations that announced past the snapshot
//     retry in the new batch.
//  3. Combine: sequence numbers below the eliminator's e cancel against
//     the opposite side in place; the first survivor of each side
//     becomes that side's combiner, applies all its survivors to the
//     shared structure through the Spec applier, and raises the applied
//     flag its sibling survivors wait on.
//  4. Reclaim: once the caller has consumed its ticket it calls Done,
//     dropping its hazard; retired batches sit in the aggregator's limbo
//     list until an epoch-batched hazard scan proves them quiescent and
//     recycles them (Spec.Recycle) or the GC takes them.
//
// # Contention adaptivity
//
// The full batch lifecycle is worth paying only when there is something
// to batch; the paper's own evaluation shows SEC trailing CAS-per-op
// baselines until contention fills batches (see DESIGN.md §8). Three
// optional mechanisms adapt the machinery to the observed load:
//
//   - Batch recycling (Spec.Recycle): frozen batches retire to a
//     per-aggregator free list and are reused - slot arrays, payloads
//     and all - once no session can still hold them, so the
//     steady-state freeze path allocates nothing. Safety comes from
//     per-session hazard slots: an announcer publishes the batch it is
//     about to use and re-validates the aggregator pointer, so once a
//     batch is uninstalled, the set of sessions that can still touch it
//     is exactly the set whose hazard slot names it.
//   - Solo fast path (Spec.Adaptive + TrySoloPush/TrySoloPop): when an
//     aggregator's recent batch-degree EWMA is ~1, an operation first
//     attempts one direct apply through a per-session single-slot
//     scratch batch - no freezer race, no announcement store, no
//     fresh-batch install; for the stack this degenerates to one
//     Treiber-style CAS - and falls back to the full protocol when the
//     attempt detects contention.
//   - Dynamic shard scaling (Spec.Adaptive, partitioned engines): the
//     effective aggregator count grows and shrinks between 1 and
//     Spec.Aggregators on the same degree signal, remapping AggOf
//     through an atomic epoch so sparse load consolidates into batches
//     and dense load spreads across shards.
//   - Adaptive freezer backoff (Spec.AdaptiveSpin): the freezer's
//     batch-growing pre-freeze spin becomes a per-aggregator controller
//     driven by the same degree EWMA - it grows toward the configured
//     FreezerSpin while batches freeze well-filled (waiting longer is
//     buying batch degree) and decays toward zero while they freeze
//     near-empty (waiting was pure latency), so solo-ish load stops
//     paying the backoff the paper sizes for high contention.
//   - Epoch-batched hazard reclamation (with Spec.Recycle): the full
//     hazard-slot scan that reclaims limbo batches runs at most once
//     per reclaimPeriod freezes (or when the limbo list crosses its
//     high-water mark) instead of on every freeze with a dry free
//     list, and each scan reads the hazard slots once for the whole
//     limbo list rather than once per limbo batch. Scan/skip counters
//     prove the amortization.
//   - Steal primitives (TryPop and TryPush): one direct solo apply
//     through the per-session scratch batch, bypassing mode and
//     announcement entirely - the pool's peek-then-steal probe of
//     foreign shards on the Get side, and its Put-overflow valve on
//     the push side.
//   - Per-aggregator state inheritance on dynamic shard scaling: when
//     the effective shard count grows, the newly-live aggregator's
//     spin controller and batch-degree EWMA are seeded from the mean
//     of the surviving aggregators instead of whatever stale state the
//     shard retired with, so sessions remapped onto it do not pay a
//     spin (or mode) tuned for a load that no longer exists.
package agg

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"secstack/internal/backoff"
	"secstack/internal/metrics"
	"secstack/internal/pad"
	"secstack/internal/tid"
)

// Eliminator decides e, the number of eliminated pairs of a frozen
// batch, from the two counter snapshots: operations with sequence
// number < e are eliminated against the opposite side; the combiner of
// each surviving side is the operation with sequence number exactly e.
type Eliminator func(pushAtFreeze, popAtFreeze int64) int64

// PairElim cancels equal sequence numbers of opposite type - SEC's
// elimination rule, shared by the stack and (per end) the deque.
func PairElim(pushAtFreeze, popAtFreeze int64) int64 {
	return min(pushAtFreeze, popAtFreeze)
}

// NoElim eliminates nothing: the identity eliminator of the funnel
// (which has no opposite operation type) and of the paper's
// combining-only ablation.
func NoElim(pushAtFreeze, popAtFreeze int64) int64 { return 0 }

// Batch is the unit of freezing, elimination and combining (Figure 1
// of the paper). S is the announced record type (a stack node, a deque
// value, a funnel amount); P is the structure's per-batch payload (the
// detached substack, a pop-result table, a prefix-sum table). The
// counter fields are exported for the structures' appliers and
// whitebox tests; the freeze and applied flags belong to the engine.
//
// The three words every announcer hammers - the push counter, the pop
// counter, and the freezer-race bit - live on separate cache lines:
// push announcers fetch&increment PushCount, pop announcers PopCount,
// and the two seq-0 announcers race on frozen, so co-locating them
// (as the pre-pad layout did) bounced one line between all three
// groups.
type Batch[S, P any] struct {
	PushCount atomic.Int64
	_         [pad.CacheLine - 8]byte

	PopCount atomic.Int64
	_        [pad.CacheLine - 8]byte

	frozen atomic.Bool // the freezer race's test&set bit
	_      [pad.CacheLine - 1]byte

	// Snapshots taken by the freezer; published to the other threads by
	// the aggregator's batch-pointer swap (release) that every
	// non-freezer waits on (acquire). Read-mostly after the freeze, so
	// they share a line with the applied flags.
	PushAtFreeze atomic.Int64
	PopAtFreeze  atomic.Int64

	pushApplied atomic.Bool // push combiner finished
	popApplied  atomic.Bool // pop combiner finished; payload valid

	// slots[i] is the record announced by the push-side operation with
	// sequence number i.
	slots []atomic.Pointer[S]

	// Data is the structure-specific payload the pop combiner (or the
	// funnel's delegate) publishes results through.
	Data P
}

// Cap is the batch's per-side capacity (the announcement-slot count).
func (b *Batch[S, P]) Cap() int { return len(b.slots) }

// Slot returns the record announced with sequence number i, or nil if
// the announcer is still between its fetch&increment and its store.
func (b *Batch[S, P]) Slot(i int64) *S { return b.slots[i].Load() }

// StoreSlot announces a record directly; used by the engine's push path
// and by whitebox tests that assemble batches by hand.
func (b *Batch[S, P]) StoreSlot(i int64, v *S) { b.slots[i].Store(v) }

// WaitSlot returns the record announced with sequence number i,
// waiting out the announcer's window between its fetch&increment and
// its slot store.
func (b *Batch[S, P]) WaitSlot(i int64) *S {
	var w backoff.Waiter
	for {
		if p := b.slots[i].Load(); p != nil {
			return p
		}
		w.Wait()
	}
}

// aggregator holds the pointer to its currently active batch, padded so
// that distinct aggregators do not share a cache line. The limbo and
// free lists behind batch recycling also live here: they are touched
// only inside Freeze, and freezes of one aggregator are serialized (a
// batch's freezer can only start after the previous install made the
// batch visible), so plain slices suffice - the install's release store
// is the happens-before edge between successive freezers.
type aggregator[S, P any] struct {
	batch atomic.Pointer[Batch[S, P]]
	_     [pad.CacheLine - 8]byte

	limbo []*Batch[S, P] // retired, possibly still held through a hazard
	free  []*Batch[S, P] // quiescent, ready for reuse

	// snap is the reclaim scan's scratch: the addresses of the batches
	// its single pass over the hazard slots found published. Addresses,
	// not pointers, so it never pins a batch; freezer-owned like the
	// lists.
	snap []uintptr

	// sinceScan counts freezes since the last full hazard scan; the
	// reclaim epoch (reclaimPeriod) is measured against it.
	sinceScan int

	// Round the struct to a cache-line multiple so the next
	// aggregator's hot batch pointer does not share a line with this
	// one's list headers (which every Freeze rewrites); sharing a line
	// with our *own* batch pointer would be harmless - Freeze writes
	// that too - but the neighbour's is announcer-hot.
	_ [2*pad.CacheLine - 3*24 - 8]byte
}

// aggCtl is one aggregator's adaptivity state: the batch-degree EWMA
// (fixed point, degreeUnit = 1.0), the solo/batched mode bit, and the
// fast-path hit/miss counters feeding internal/metrics. Padded so the
// solo regime's per-op updates stay on a line owned by one aggregator.
type aggCtl struct {
	// First line: the control words every operation reads (and, in
	// steady state, only reads - observe skips identity stores). Kept
	// apart from the counters below so the per-op counter RMWs do not
	// bounce the line the mode gate lives on.
	mode atomic.Int64 // modeBatched or modeSolo
	ewma atomic.Int64 // batch-degree EWMA in degreeUnit fixed point

	// spin is the current effective pre-freeze backoff in spin
	// iterations (adaptive spin only; fixed engines read freezerSpin
	// directly). Written only by freezers - but the update runs after
	// the next-batch install, so a descheduled freezer can overlap the
	// next one's update and lose a step; like the EWMA, the controller
	// tolerates that (the value stays clamped in [0, ceiling]) rather
	// than pay a CAS loop. Atomic so concurrent readers and writers
	// stay defined.
	spin atomic.Int64

	_ [pad.CacheLine - 3*8]byte

	// Second line: per-event counters.
	freezes  atomic.Int64 // frozen batches; drives resize checks
	fastHits atomic.Int64 // solo attempts that applied directly
	fastMiss atomic.Int64 // solo attempts that hit contention

	// reclaimScans and reclaimSkips count, per aggregator, the freezes
	// whose reclaim ran a full hazard scan versus those that deferred
	// one the pre-epoch engine would have run (free list dry, limbo
	// non-empty). skips/(scans+skips) is the amortization win.
	reclaimScans atomic.Int64
	reclaimSkips atomic.Int64

	// inherits counts how many times this aggregator went live through
	// a shard-scaling grow and had its controller state seeded from the
	// surviving aggregators' mean.
	inherits atomic.Int64

	_ [pad.CacheLine - 6*8]byte
}

const (
	modeBatched = 0
	modeSolo    = 1

	// degreeUnit is the fixed-point scale of the batch-degree EWMA.
	degreeUnit = 16

	// soloEnterMax and soloExitMin bound the hysteresis band: an
	// aggregator whose EWMA decays to <= 1.25 ops/batch enters solo
	// mode, one whose EWMA climbs to >= 2.0 returns to the full
	// protocol; in between the mode holds.
	soloEnterMax = 5 * degreeUnit / 4
	soloExitMin  = 2 * degreeUnit

	// soloObsHit and soloObsMiss are the degree observations a solo
	// attempt feeds the EWMA: a direct apply is a degree-1 batch, a
	// contention failure is evidence of concurrent operations and is
	// weighted heavily so a burst of misses exits solo mode within a
	// few operations.
	soloObsHit  = degreeUnit
	soloObsMiss = 4 * degreeUnit

	// resizePeriod is how many freezes an aggregator performs between
	// shard-scaling checks; growDegree/shrinkDegree are the mean-EWMA
	// thresholds that grow or shrink the effective aggregator count.
	resizePeriod = 64
	growDegree   = 6 * degreeUnit
	shrinkDegree = 2 * degreeUnit

	// maxFree bounds each aggregator's recycled-batch free list; excess
	// quiescent batches drop to the garbage collector.
	maxFree = 8

	// reclaimPeriod is K of the reclaim epoch: with recycling on, the
	// full hazard scan runs at most once per reclaimPeriod freezes of an
	// aggregator. It is half of maxFree on purpose: a scan refills what
	// the epoch's freezes took, less any rise in the batches sessions'
	// hazards hold, so the list's other half must carry the next epoch
	// through such a rise, or a freeze finds the list dry and allocates.
	reclaimPeriod = maxFree / 2

	// limboHighWater forces a scan early when retired batches pile up
	// (many sessions parked on hazards), bounding the limbo list
	// independently of the epoch.
	limboHighWater = 2 * maxFree

	// spinGrowDeg and spinDecayDeg are the EWMA thresholds of the
	// adaptive freezer backoff: batches freezing with degree >= 2.5
	// show the backoff buying batch degree, so the spin grows toward
	// the configured ceiling; degree <= 1.5 shows it buying nothing, so
	// the spin decays toward zero. In between the spin holds.
	spinGrowDeg  = 5 * degreeUnit / 2
	spinDecayDeg = 3 * degreeUnit / 2
)

// HazardSlot is one session's published batch reference (recycling
// only), padded so sessions do not share hazard lines. It is exported
// (with unexported fields) so structure handles can cache their slot
// pointer via Engine.Hazard and run the op-end Done bookkeeping
// inline: the indexed engine-side Engine.Done sits just over the
// inlining budget, and the op-end clear is on every operation's path.
//
// every and count drive amortized announcement (SetDoneCadence): Done
// clears the hazard only on every every-th call, so a session that
// performs bursts of operations pays one hazard clear (and one
// republish in announce) per cadence window instead of per op. The
// fields are plain, not atomic: they are read and written only by the
// session holding this id, and the tid free list's CAS handoff is the
// happens-before edge when the id moves to a new owner. A stale
// hazard left up between ops pins at most one retired batch per
// session, the same bound the scan already tolerates for a session
// parked mid-operation.
type HazardSlot[S, P any] struct {
	p     atomic.Pointer[Batch[S, P]]
	every int32
	count int32
	_     [pad.CacheLine - 16]byte
}

// Done ends one operation for the session owning this slot: count the
// cadence window and clear the published hazard when it closes. Split
// into Tick and Clear because the combined body lands just over the
// generic-shape inlining budget: separately each half inlines, so
// every structure op ends in straight-line code.
func (hz *HazardSlot[S, P]) Done() {
	if hz.Tick() {
		hz.Clear()
	}
}

// Tick advances the cadence window and reports whether the hazard is
// due for a clear. With no cadence set (every <= 1) the comparison
// fails immediately and every call is due - the eager default.
func (hz *HazardSlot[S, P]) Tick() bool {
	if n := hz.count + 1; n < hz.every {
		hz.count = n
		return false
	}
	hz.count = 0
	return true
}

// Clear drops the published hazard.
func (hz *HazardSlot[S, P]) Clear() {
	hz.p.Store(nil)
}

// Spec parameterises an Engine. Aggregators and MaxThreads are clamped
// to at least 1; MinBatch defaults to 4.
type Spec[S, P any] struct {
	// Aggregators is K, the number of shards. The deque instantiates
	// one aggregator per end. Under Adaptive this is the ceiling of the
	// effective shard count.
	Aggregators int

	// MaxThreads bounds concurrently live sessions; it also caps batch
	// slot arrays.
	MaxThreads int

	// FreezerSpin is the freezer's batch-growing pre-freeze backoff in
	// spin iterations (§3.1 of the paper); 0 disables it. Under
	// AdaptiveSpin it is the ceiling of the per-aggregator controller.
	FreezerSpin int

	// AdaptiveSpin replaces the fixed FreezerSpin with a per-aggregator
	// controller driven by the batch-degree EWMA: the effective spin
	// grows toward FreezerSpin while batches freeze well-filled and
	// decays toward zero while they freeze near-empty. With
	// FreezerSpin 0 there is nothing to adapt and the spin stays 0.
	AdaptiveSpin bool

	// MinBatch floors the slot-array size of freshly allocated batches
	// (default 4).
	MinBatch int

	// Partitioned selects how sessions map to aggregators. True (stack,
	// funnel): session tid mod the effective aggregator count fixes the
	// aggregator, and batches are sized for ceil(live/K) threads. False
	// (deque): any session may announce on any aggregator - ends are
	// chosen per operation - so batches are sized for every live
	// session and capped at MaxThreads. Dynamic shard scaling applies
	// only to partitioned engines; an unpartitioned engine's
	// aggregators are semantic (the deque's ends).
	Partitioned bool

	// SingleSided marks engines whose structures announce on the push
	// side only (the funnel); it halves the occupancy denominator the
	// metrics record per frozen batch.
	SingleSided bool

	// Recycle enables batch recycling: frozen batches return to a
	// per-aggregator free list once hazard-quiescent and are reused
	// instead of reallocated.
	Recycle bool

	// Adaptive enables the solo fast path (when TrySoloPush/TrySoloPop
	// are provided) and, for partitioned engines with Aggregators > 1,
	// dynamic shard scaling.
	Adaptive bool

	// Eliminate is the eliminator; nil defaults to PairElim.
	Eliminate Eliminator

	// MakeData builds the per-batch payload for a batch with n slots;
	// nil leaves Data as P's zero value.
	MakeData func(n int) P

	// ResetData re-initializes a recycled batch's payload before reuse
	// (clear published pointers, drop references the GC should have).
	// nil skips payload reset - correct only when every payload entry a
	// reader can reach is overwritten by the applier first.
	ResetData func(p *P)

	// ApplyPush is the push-side combiner body: apply the surviving
	// pushes (sequence numbers seq..pushAtFreeze-1, seq the combiner's
	// own) of batch b on aggregator agg to the shared structure. It runs
	// on exactly one thread per frozen batch; the engine publishes its
	// completion to the batch's waiting survivors.
	ApplyPush func(agg int, b *Batch[S, P], seq, pushAtFreeze int64)

	// ApplyPop is the pop-side combiner body: serve the surviving pops
	// (offsets 0..popAtFreeze-e-1) of batch b on aggregator agg,
	// publishing their results through b.Data. Like ApplyPush it runs on
	// exactly one thread per frozen batch; id is that combiner's session,
	// for structures that publish per-session hazards while they read
	// the shared structure.
	ApplyPop func(id, agg int, b *Batch[S, P], e, popAtFreeze int64)

	// TrySoloPush attempts to apply the single push announced in slot 0
	// of the one-slot scratch batch b directly to the shared structure,
	// without the batch protocol. It must either apply the operation
	// and return true, or leave the structure unchanged and return
	// false (contention detected). One CAS attempt for the stack, a
	// TryLock for the deque, an unconditional hardware fetch&add for
	// the funnel.
	TrySoloPush func(agg int, b *Batch[S, P]) bool

	// TrySoloPop is TrySoloPush's pop-side twin: serve one pop of
	// session id directly, publishing the result through b.Data as the
	// pop applier would.
	TrySoloPop func(id, agg int, b *Batch[S, P]) bool

	// Metrics, when non-nil, receives one occupancy/elimination record
	// per frozen batch plus the solo fast path's hit/miss counters.
	Metrics *metrics.SEC
}

// Engine runs the aggregator/batch lifecycle for one shared structure.
type Engine[S, P any] struct {
	aggs         []aggregator[S, P]
	ctl          []aggCtl
	minBatch     int
	freezerSpin  int
	adaptiveSpin bool
	partitioned  bool
	singleSided  bool
	recycle      bool
	adaptive     bool
	eliminate    Eliminator
	makeData     func(n int) P
	resetData    func(p *P)
	applyPush    func(agg int, b *Batch[S, P], seq, pushAtFreeze int64)
	applyPop     func(id, agg int, b *Batch[S, P], e, popAtFreeze int64)
	trySoloPush  func(agg int, b *Batch[S, P]) bool
	trySoloPop   func(id, agg int, b *Batch[S, P]) bool
	m            *metrics.SEC
	tids         *tid.Allocator
	maxThreads   int

	// soloPushOn/soloPopOn precompute "adaptive && applier present" so
	// the per-op solo gate in Push/Pop is one flag test plus the mode
	// load instead of three loads and branches.
	soloPushOn bool
	soloPopOn  bool

	// effK is the effective aggregator count in [1, len(aggs)];
	// scaleEpoch increments on every resize so observers (and tests)
	// can detect remappings. Non-adaptive engines pin effK = len(aggs).
	// resizeMu serializes resizes (rare: at most one check per
	// resizePeriod freezes per aggregator), so a grow's controller
	// seeding cannot race another grow into clobbering a shard that
	// just went live; freezers never block on it (TryLock).
	effK       atomic.Int32
	scaleEpoch atomic.Uint64
	resizeMu   sync.Mutex

	// hazards[id] is session id's published batch reference; solo[id]
	// its scratch batch. Both indexed by session id, each entry owned
	// by the session holding that id (the tid free list's CAS handoff
	// is the happens-before edge across owners).
	hazards []HazardSlot[S, P]
	solo    []*Batch[S, P]
}

// New returns an engine with one freshly installed batch per
// aggregator.
func New[S, P any](spec Spec[S, P]) *Engine[S, P] {
	if spec.Aggregators < 1 {
		spec.Aggregators = 1
	}
	if spec.MaxThreads < 1 {
		spec.MaxThreads = 1
	}
	if spec.MinBatch < 1 {
		spec.MinBatch = 4
	}
	if spec.Eliminate == nil {
		spec.Eliminate = PairElim
	}
	e := &Engine[S, P]{
		aggs:         make([]aggregator[S, P], spec.Aggregators),
		ctl:          make([]aggCtl, spec.Aggregators),
		minBatch:     spec.MinBatch,
		freezerSpin:  spec.FreezerSpin,
		adaptiveSpin: spec.AdaptiveSpin && spec.FreezerSpin > 0,
		partitioned:  spec.Partitioned,
		singleSided:  spec.SingleSided,
		recycle:      spec.Recycle,
		adaptive:     spec.Adaptive,
		eliminate:    spec.Eliminate,
		makeData:     spec.MakeData,
		resetData:    spec.ResetData,
		applyPush:    spec.ApplyPush,
		applyPop:     spec.ApplyPop,
		trySoloPush:  spec.TrySoloPush,
		trySoloPop:   spec.TrySoloPop,
		m:            spec.Metrics,
		tids:         tid.New(spec.MaxThreads),
		maxThreads:   spec.MaxThreads,
	}
	e.soloPushOn = e.adaptive && e.trySoloPush != nil
	e.soloPopOn = e.adaptive && e.trySoloPop != nil
	e.effK.Store(int32(spec.Aggregators))
	if e.recycle {
		e.hazards = make([]HazardSlot[S, P], spec.MaxThreads)
	}
	if e.adaptive || e.trySoloPush != nil || e.trySoloPop != nil {
		// Scratch batches back both the solo fast path and the TryPop
		// steal primitive; the latter works with Adaptive off.
		e.solo = make([]*Batch[S, P], spec.MaxThreads)
	}
	if e.adaptive || e.adaptiveSpin {
		for i := range e.ctl {
			// Start optimistic: assume no contention until a freeze or a
			// solo miss proves otherwise. Engines without solo appliers
			// stay in batched mode regardless.
			e.ctl[i].ewma.Store(degreeUnit)
			if e.adaptive && e.trySoloPush != nil {
				e.ctl[i].mode.Store(modeSolo)
			}
		}
	}
	if e.adaptiveSpin {
		for i := range e.ctl {
			// Start at the configured (paper-sized) spin: a contended
			// start behaves exactly like the fixed setting, and solo-ish
			// load decays it within a few near-empty freezes.
			e.ctl[i].spin.Store(int64(spec.FreezerSpin))
		}
	}
	for i := range e.aggs {
		e.aggs[i].batch.Store(e.NewBatch())
	}
	return e
}

// sizeBatch is the live-session batch sizing rule: size for the
// sessions currently live (per effective aggregator when partitioned),
// floored at MinBatch and capped at each aggregator's worst-case share
// of MaxThreads.
func (e *Engine[S, P]) sizeBatch() int {
	p := e.tids.InUse()
	cap := e.maxThreads
	if e.partitioned {
		k := int(e.effK.Load())
		p = (p + k - 1) / k
		cap = (e.maxThreads + k - 1) / k
	}
	if p < e.minBatch {
		p = e.minBatch
	}
	if p > cap {
		p = cap
	}
	return p
}

// NewBatch allocates a batch sized for the sessions currently live, not
// for the MaxThreads worst case: without recycling, batches are
// allocated on every freeze, so a worst-case array would dominate the
// allocation rate at low thread counts. Announcers past the array
// (registered after the batch was created) are pushed to the next,
// larger batch by the snapshot clamp in Freeze.
func (e *Engine[S, P]) NewBatch() *Batch[S, P] {
	p := e.sizeBatch()
	b := &Batch[S, P]{slots: make([]atomic.Pointer[S], p)}
	if e.makeData != nil {
		b.Data = e.makeData(p)
	}
	return b
}

// resetBatch re-initializes a recycled batch for a fresh announcement
// cycle: every slot cleared (a stale record here would satisfy the next
// cycle's WaitSlot with the wrong value), counters, snapshots and flags
// zeroed, payload reset through the structure's hook. Runs only inside
// Freeze, before the install that publishes the batch.
func (e *Engine[S, P]) resetBatch(b *Batch[S, P]) {
	for i := range b.slots {
		b.slots[i].Store(nil)
	}
	b.PushCount.Store(0)
	b.PopCount.Store(0)
	b.PushAtFreeze.Store(0)
	b.PopAtFreeze.Store(0)
	b.pushApplied.Store(false)
	b.popApplied.Store(false)
	b.frozen.Store(false)
	if e.resetData != nil {
		e.resetData(&b.Data)
	}
}

// reclaim is the full hazard scan: one pass over the HighWater hazard
// slots collecting the published batches, then ScanRetired over a's
// limbo list - hazard-quiescent batches move to the free list
// (overflow drops to the GC). Hazard-major order makes the scan cost
// HighWater atomic loads per *scan*, not per limbo entry; the epoch in
// nextBatch makes scans rare. Called only inside Freeze.
//
// Soundness: every session publishes its batch before using it and
// re-validates the aggregator pointer afterwards, so once a batch is
// uninstalled (which happens before it can reach limbo), a session
// whose re-validation succeeded is visible to this scan's hazard-slot
// pass, and one whose re-validation will fail never touches the batch
// again.
func (e *Engine[S, P]) reclaim(a *aggregator[S, P]) {
	snap := a.snap[:0]
	n := e.tids.HighWater()
	for i := 0; i < n; i++ {
		if p := e.hazards[i].p.Load(); p != nil {
			snap = append(snap, uintptr(unsafe.Pointer(p)))
		}
	}
	a.limbo, a.free = ScanRetired(snap, a.limbo, a.free, maxFree, nil)
	a.snap = snap
}

// ScanRetired is the filter step of a hazard-pointer scan, shared by
// the engine's batch recycling and the SEC stack's node recycling.
// snap holds the addresses the scan found published in the hazard
// slots; ScanRetired sorts it and binary-searches it once per retired
// object. Every object in retired that snap does not name leaves it:
// scrub, when non-nil, runs on it, and it joins free while free holds
// fewer than maxFree (the rest go to the garbage collector). The
// published objects stay, compacted at the front of retired; the
// vacated tail is cleared so it keeps nothing alive.
func ScanRetired[T any](snap []uintptr, retired, free []*T, maxFree int, scrub func(*T)) (kept, newFree []*T) {
	slices.Sort(snap)
	kept = retired[:0]
	for _, x := range retired {
		if _, held := slices.BinarySearch(snap, uintptr(unsafe.Pointer(x))); held {
			kept = append(kept, x)
			continue
		}
		if scrub != nil {
			scrub(x)
		}
		if len(free) < maxFree {
			free = append(free, x)
		}
	}
	clear(retired[len(kept):])
	return kept, free
}

// nextBatch produces the batch Freeze installs: a recycled one when
// recycling is on and a quiescent batch of sufficient capacity exists,
// a fresh allocation otherwise. Called only inside Freeze.
//
// The reclaim epoch lives here: a full hazard scan runs at most once
// per reclaimPeriod freezes - or early, when the limbo list crosses
// its high-water mark - instead of on every freeze that finds the free
// list dry. reclaimPeriod is half of maxFree, so a scan leaves the
// free list deep enough to feed the deferred freezes until the next
// one even when more batches are held by hazards than at the last.
func (e *Engine[S, P]) nextBatch(agg int) *Batch[S, P] {
	if !e.recycle {
		return e.NewBatch()
	}
	a := &e.aggs[agg]
	a.sinceScan++
	if len(a.limbo) > 0 {
		switch {
		case a.sinceScan >= reclaimPeriod || len(a.limbo) >= limboHighWater:
			a.sinceScan = 0
			e.ctl[agg].reclaimScans.Add(1)
			e.m.RecordReclaim(agg, true)
			e.reclaim(a)
		case len(a.free) == 0:
			// The pre-epoch engine scanned here; count the deferral.
			e.ctl[agg].reclaimSkips.Add(1)
			e.m.RecordReclaim(agg, false)
		}
	}
	want := e.sizeBatch()
	for n := len(a.free); n > 0; n = len(a.free) {
		b := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		if len(b.slots) >= want {
			e.resetBatch(b)
			return b
		}
		// Undersized for the current session count (threads grew since
		// it was allocated): drop it and let the GC have it.
	}
	return e.NewBatch()
}

// ErrExhausted is returned by Register when MaxThreads sessions are
// live at the same time.
var ErrExhausted = errors.New("agg: all MaxThreads session slots live")

// Register acquires a session: a thread id drawn from the lock-free
// free list. Ids released by Release are reused, so MaxThreads bounds
// concurrently live sessions rather than lifetime registrations.
func (e *Engine[S, P]) Register() (id int, err error) {
	id, err = e.tids.Acquire()
	if err != nil {
		return 0, ErrExhausted
	}
	return id, nil
}

// Release returns a session's id to the free list for reuse. Any
// hazard the session still published is cleared so an idle slot can
// never pin a retired batch, and the amortized-announcement cadence
// resets so a recycled id never inherits the previous owner's.
func (e *Engine[S, P]) Release(id int) {
	if e.recycle {
		hz := &e.hazards[id]
		hz.every, hz.count = 0, 0
		hz.p.Store(nil)
	}
	e.tids.Release(id)
}

// Done marks the end of one operation: the session is finished reading
// the ticket its Push or Pop returned (including the batch payload),
// so its hazard no longer pins the batch. Structures call it once per
// operation, after consuming the ticket; it is a no-op without batch
// recycling.
//
// Under a Done cadence (SetDoneCadence) the clear is amortized: the
// hazard stays published for every-1 of every calls, so the next
// announce on the same batch skips its publish-and-revalidate. Kept
// under the inlining budget on purpose - every structure op ends here.
func (e *Engine[S, P]) Done(id int) {
	if e.recycle {
		e.hazards[id].Done()
	}
}

// Hazard returns session id's hazard slot, or nil when batch recycling
// is off. Structure handles cache the pointer at registration so their
// op-end Done (and its cadence bookkeeping) inlines instead of paying
// an engine call per operation; the slice is sized at MaxThreads in
// New and never reallocates, so the pointer stays valid for the
// engine's lifetime.
func (e *Engine[S, P]) Hazard(id int) *HazardSlot[S, P] {
	if !e.recycle {
		return nil
	}
	return &e.hazards[id]
}

// SetDoneCadence makes session id clear its hazard on every k-th Done
// instead of every one - amortized announcement for callers (the
// implicit-session layer) whose handles perform long runs of
// operations on one aggregator. Between clears the session's hazard
// keeps the current batch published, so consecutive announces skip
// their publish-and-revalidate; the cost is that an idle session may
// pin one retired batch until its cadence window closes, which the
// reclaim scan already tolerates (same bound as a session parked
// mid-operation). k < 1 is treated as 1, the eager default. No-op
// without batch recycling (there is no hazard to amortize).
func (e *Engine[S, P]) SetDoneCadence(id, k int) {
	if !e.recycle {
		return
	}
	if k < 1 {
		k = 1
	}
	hz := &e.hazards[id]
	hz.every = int32(k)
	hz.count = 0
}

// AggOf maps a session id to its fixed aggregator (partitioned engines
// assign round-robin over the effective aggregator count, giving the
// even distribution the paper prescribes; unpartitioned engines have no
// fixed assignment and ops name their aggregator directly). Under
// dynamic shard scaling the mapping changes with the scale epoch, so
// handles consult it per operation rather than caching the result.
func (e *Engine[S, P]) AggOf(id int) int { return id % int(e.effK.Load()) }

// Aggregators reports K, the configured shard ceiling.
func (e *Engine[S, P]) Aggregators() int { return len(e.aggs) }

// EffectiveAggregators reports the current effective shard count in
// [1, Aggregators]; fixed at Aggregators when Adaptive is off.
func (e *Engine[S, P]) EffectiveAggregators() int { return int(e.effK.Load()) }

// ScaleEpoch reports how many times the effective shard count has been
// remapped.
func (e *Engine[S, P]) ScaleEpoch() uint64 { return e.scaleEpoch.Load() }

// FastPath reports aggregator agg's solo fast-path hit and miss
// counts.
func (e *Engine[S, P]) FastPath(agg int) (hits, misses int64) {
	return e.ctl[agg].fastHits.Load(), e.ctl[agg].fastMiss.Load()
}

// EffectiveSpin reports the pre-freeze backoff aggregator agg
// currently pays (equal to Spec.FreezerSpin unless AdaptiveSpin
// retuned it).
func (e *Engine[S, P]) EffectiveSpin(agg int) int { return e.spinFor(agg) }

// ReclaimStats reports how many of aggregator agg's freezes ran a full
// hazard scan and how many deferred one under the reclaim epoch.
func (e *Engine[S, P]) ReclaimStats(agg int) (scans, skips int64) {
	return e.ctl[agg].reclaimScans.Load(), e.ctl[agg].reclaimSkips.Load()
}

// LimboLen reports how many retired batches aggregator agg currently
// holds in limbo (diagnostics and boundedness tests; racy against a
// concurrent freezer).
func (e *Engine[S, P]) LimboLen(agg int) int { return len(e.aggs[agg].limbo) }

// InUse reports how many sessions are currently live.
func (e *Engine[S, P]) InUse() int { return e.tids.InUse() }

// HighWater reports one past the highest session id ever handed out:
// every live session's id lies below it, so a scan of per-session
// state indexed by id stops there.
func (e *Engine[S, P]) HighWater() int { return e.tids.HighWater() }

// MaxThreads reports the live-session bound.
func (e *Engine[S, P]) MaxThreads() int { return e.maxThreads }

// Metrics returns the engine's degree collector, or nil when metrics
// are disabled.
func (e *Engine[S, P]) Metrics() *metrics.SEC { return e.m }

// ActiveBatch returns aggregator agg's currently installed batch
// (diagnostics and whitebox tests; the batch may freeze at any time).
func (e *Engine[S, P]) ActiveBatch(agg int) *Batch[S, P] {
	return e.aggs[agg].batch.Load()
}

// observe folds one degree observation (in degreeUnit fixed point)
// into aggregator ctl's EWMA (alpha = 1/4) and applies the solo-mode
// hysteresis. The load/store pair is deliberately not a CAS loop: the
// EWMA is a heuristic and a lost update under a race costs nothing.
func (e *Engine[S, P]) observe(c *aggCtl, obs int64) {
	o := c.ewma.Load()
	v := o - o/4 + obs/4
	if v != o {
		// At the EWMA's fixed points (every op a solo hit, or a steady
		// batched degree) the fold is the identity; skipping the store
		// then keeps the control line in shared state across the Ps
		// hammering this aggregator instead of invalidating it per op.
		c.ewma.Store(v)
	}
	if !e.adaptive {
		return // spin-only engines track the EWMA but never switch modes
	}
	switch {
	case v <= soloEnterMax:
		if e.trySoloPush != nil && c.mode.Load() != modeSolo {
			c.mode.Store(modeSolo)
		}
	case v >= soloExitMin:
		if c.mode.Load() != modeBatched {
			c.mode.Store(modeBatched)
		}
	}
}

// updateSpin folds the post-freeze EWMA into aggregator agg's spin
// controller: multiplicative growth toward the configured ceiling
// while batches freeze well-filled, halving toward zero while they
// freeze near-empty. Only freezers call it, but it runs after the
// install that releases the next freezer, so the load/store pair is
// deliberately not a CAS loop for the same reason observe's is not: a
// rare overlapped update loses one step of a bounded heuristic and
// nothing else.
func (e *Engine[S, P]) updateSpin(c *aggCtl) {
	d := c.ewma.Load()
	cur := c.spin.Load()
	switch {
	case d >= spinGrowDeg:
		// +1 restarts growth from a fully decayed (zero) spin.
		next := min(cur*2+1, int64(e.freezerSpin))
		if next != cur {
			c.spin.Store(next)
		}
	case d <= spinDecayDeg:
		if cur > 0 {
			c.spin.Store(cur / 2)
		}
	}
}

// spinFor is the pre-freeze backoff aggregator agg currently pays: the
// controller's value under adaptive spin, the fixed configuration
// otherwise.
func (e *Engine[S, P]) spinFor(agg int) int {
	if e.adaptiveSpin {
		return int(e.ctl[agg].spin.Load())
	}
	return e.freezerSpin
}

// maybeResize adjusts the effective aggregator count on the mean
// degree EWMA of the currently active shards: saturated batches grow
// toward Spec.Aggregators, near-empty ones consolidate toward 1 so the
// remaining shards see enough load to batch. A grow seeds the
// newly-live aggregator's controller state from the survivors before
// publishing the new count, so remapped sessions never observe the
// stale tuning the shard retired with. Resizes are serialized by
// resizeMu - TryLock, so a freezer whose check collides with a
// resize in flight simply skips it (its degree signal is stale by
// definition then) rather than wait.
func (e *Engine[S, P]) maybeResize() {
	if !e.resizeMu.TryLock() {
		return
	}
	defer e.resizeMu.Unlock()
	k := int(e.effK.Load())
	if k < 1 || k > len(e.aggs) {
		return
	}
	var sum int64
	for i := 0; i < k; i++ {
		sum += e.ctl[i].ewma.Load()
	}
	mean := sum / int64(k)
	switch {
	case mean >= growDegree && k < len(e.aggs):
		e.inheritCtl(k)
		e.ctl[k].inherits.Add(1)
		e.m.RecordSpinInherit(k)
		e.effK.Store(int32(k + 1))
		e.scaleEpoch.Add(1)
	case mean <= shrinkDegree && k > 1:
		e.effK.Store(int32(k - 1))
		e.scaleEpoch.Add(1)
	}
}

// inheritCtl seeds aggregator idx's adaptivity state - batch-degree
// EWMA, solo/batched mode, and (under adaptive spin) the effective
// pre-freeze backoff - from the mean of the k currently live
// aggregators. Without it, a shard going live again after a shrink
// would resume with whatever EWMA and spin it retired with (or, on its
// first activation, the configured ceiling): sessions remapped onto it
// by the scale epoch would pay a backoff tuned for a load that no
// longer exists until enough of their own freezes retuned it. Called
// only under resizeMu, before the effK store that makes the shard
// reachable, so seeding can never touch a live shard's state.
func (e *Engine[S, P]) inheritCtl(k int) {
	var ewmaSum, spinSum int64
	for i := 0; i < k; i++ {
		ewmaSum += e.ctl[i].ewma.Load()
		spinSum += e.ctl[i].spin.Load()
	}
	c := &e.ctl[k]
	mean := ewmaSum / int64(k)
	c.ewma.Store(mean)
	if e.adaptiveSpin {
		c.spin.Store(spinSum / int64(k))
	}
	// Apply the solo-mode hysteresis to the inherited degree so the mode
	// bit is consistent with the seeded EWMA; inside the band the shard
	// keeps its previous mode, exactly as a live shard would.
	switch {
	case mean <= soloEnterMax:
		if e.trySoloPush != nil {
			c.mode.Store(modeSolo)
		}
	case mean >= soloExitMin:
		c.mode.Store(modeBatched)
	}
}

// Inherits reports how many times aggregator agg went live through a
// shard-scaling grow with controller state seeded from the surviving
// aggregators (diagnostics and tests).
func (e *Engine[S, P]) Inherits(agg int) int64 { return e.ctl[agg].inherits.Load() }

// observeFreeze records a frozen batch's degree into the adaptivity
// signal, retunes the spin controller, and periodically runs the
// shard-scaling check.
func (e *Engine[S, P]) observeFreeze(agg, ops int) {
	c := &e.ctl[agg]
	e.observe(c, int64(ops)*degreeUnit)
	if e.adaptiveSpin {
		e.updateSpin(c)
	}
	if e.adaptive && c.freezes.Add(1)%resizePeriod == 0 && e.partitioned && len(e.aggs) > 1 {
		e.maybeResize()
	}
}

// Freeze is the paper's FreezeBatch: after the batch-growing backoff,
// snapshot both counters clamped to the slot capacity, then install the
// next batch on aggregator agg, which releases every spinning
// announcer. Exactly one thread per batch - the freezer-race winner -
// calls it. With recycling on, the frozen batch retires to the
// aggregator's limbo list (before the install, so the next freezer
// inherits the list with a happens-before edge) and the installed
// batch is recycled when a quiescent one is available.
func (e *Engine[S, P]) Freeze(agg int, b *Batch[S, P]) {
	spin := e.spinFor(agg)
	if spin > 0 {
		backoff.Spin(spin) // grow the batch (§3.1)
	}
	limit := int64(len(b.slots))
	pops := min(b.PopCount.Load(), limit)
	pushes := min(b.PushCount.Load(), limit)
	b.PopAtFreeze.Store(pops)
	b.PushAtFreeze.Store(pushes)
	next := e.nextBatch(agg)
	if e.recycle {
		e.aggs[agg].limbo = append(e.aggs[agg].limbo, b)
	}
	e.aggs[agg].batch.Store(next)
	if e.m != nil {
		capacity := 2 * len(b.slots)
		if e.singleSided {
			capacity = len(b.slots)
		}
		e.m.RecordBatchOcc(agg, int(pushes+pops), int(2*e.eliminate(pushes, pops)), capacity)
		e.m.RecordSpin(agg, spin)
	}
	if e.adaptive || e.adaptiveSpin {
		e.observeFreeze(agg, int(pushes+pops))
	}
}

// freezeOrWait runs the freezer race for an announcer that drew
// sequence number seq: the first announcer of either side freezes the
// batch, everyone else waits for the aggregator's batch-pointer swap.
func (e *Engine[S, P]) freezeOrWait(agg int, b *Batch[S, P], seq int64) {
	if seq == 0 && b.frozen.CompareAndSwap(false, true) {
		e.Freeze(agg, b)
		return
	}
	var w backoff.Waiter
	for e.aggs[agg].batch.Load() == b {
		w.Wait()
	}
}

// announceSlow publishes batch b through hazard slot hz and
// re-validates aggregator agg's batch pointer, following it until the
// publish sticks. The re-validation closes the window between the
// caller's load and the publish: a batch that was uninstalled in that
// window is simply retried, so the hazard scan in reclaim sees every
// session that can still touch a retired batch.
//
// Push and Pop inline the fast path around this call themselves: load
// the active batch and skip the publish entirely when the session's
// hazard already names it (amortized announcement - a Done cadence
// left the hazard up, or a pop retried within one batch). The skip is
// sound because only the owner writes the slot: hazard == b means the
// slot has continuously named b since a validated publish, so every
// reclaim scan in between has seen it and b cannot have been recycled
// out from under us - and b is installed right now (the caller just
// loaded it).
func (e *Engine[S, P]) announceSlow(hz *HazardSlot[S, P], agg int, b *Batch[S, P]) *Batch[S, P] {
	for {
		hz.p.Store(b)
		nb := e.aggs[agg].batch.Load()
		if nb == b {
			return b
		}
		b = nb
	}
}

// soloBatch returns session id's one-slot scratch batch, allocating it
// on first use. Scratch batches never enter the recycling pool; the
// session is their only writer and their payload is fully overwritten
// by the solo applier before the ticket is read. The allocation lives
// in newSoloBatch so this lookup inlines into the per-op paths.
func (e *Engine[S, P]) soloBatch(id int) *Batch[S, P] {
	if b := e.solo[id]; b != nil {
		return b
	}
	return e.newSoloBatch(id)
}

// newSoloBatch is soloBatch's first-use slow path.
func (e *Engine[S, P]) newSoloBatch(id int) *Batch[S, P] {
	b := &Batch[S, P]{slots: make([]atomic.Pointer[S], 1)}
	if e.makeData != nil {
		b.Data = e.makeData(1)
	}
	e.solo[id] = b
	return b
}

// soloMode reports whether aggregator agg currently runs the solo fast
// path.
func (e *Engine[S, P]) soloMode(agg int) bool {
	return e.ctl[agg].mode.Load() == modeSolo
}

// SoloMode is the exported readout of aggregator agg's adaptive mode
// bit, for cross-layer controllers (the pool's elastic shard scaler
// reads it to detect shards with no recent contention). Always false
// when the solo fast path is disabled.
func (e *Engine[S, P]) SoloMode(agg int) bool { return e.soloMode(agg) }

// DegreeEWMA reports aggregator agg's batch-degree EWMA in operations
// per batch - the same contention estimate the engine's own mode
// hysteresis and shard scaling read, converted out of its internal
// fixed point.
func (e *Engine[S, P]) DegreeEWMA(agg int) float64 {
	return float64(e.ctl[agg].ewma.Load()) / degreeUnit
}

func (e *Engine[S, P]) soloHit(agg int) {
	c := &e.ctl[agg]
	c.fastHits.Add(1)
	e.observe(c, soloObsHit)
	e.m.RecordFastPath(agg, true)
}

func (e *Engine[S, P]) soloMiss(agg int) {
	c := &e.ctl[agg]
	c.fastMiss.Add(1)
	e.observe(c, soloObsMiss)
	e.m.RecordFastPath(agg, false)
}

// PushTicket reports how a push-side announcement was served.
type PushTicket[S, P any] struct {
	B   *Batch[S, P]
	Seq int64 // the announcement's sequence number within its side

	// Eliminated is true when the operation cancelled against the
	// opposite side; its record was (or will be) consumed through the
	// elimination array by its pop partner, and no combiner applies it.
	Eliminated bool
}

// Push announces val on the push side of aggregator agg's active batch
// on behalf of session id and drives the operation through the batch
// lifecycle (Algorithm 1 of the paper): freeze race, post-freeze
// retry, elimination, combiner election or applied-wait. When the
// aggregator is in solo mode, one direct apply is attempted first. On
// return the operation is linearized - applied solo, eliminated
// in-batch, or applied to the shared structure by its batch's push
// combiner. The caller must invoke Done(id) once it has finished
// reading the ticket.
func (e *Engine[S, P]) Push(id, agg int, val *S) PushTicket[S, P] {
	if e.soloPushOn && e.ctl[agg].mode.Load() == modeSolo {
		sb := e.solo[id]
		if sb == nil {
			sb = e.newSoloBatch(id)
		}
		sb.slots[0].Store(val)
		if e.trySoloPush(agg, sb) {
			e.soloHit(agg)
			return PushTicket[S, P]{B: sb, Seq: 0}
		}
		e.soloMiss(agg)
	}
	for {
		// Inlined announce: skip the publish-and-revalidate when the
		// session's hazard already names the active batch (see
		// announceSlow for the soundness argument).
		b := e.aggs[agg].batch.Load()
		if e.recycle {
			if hz := &e.hazards[id]; hz.p.Load() != b {
				b = e.announceSlow(hz, agg, b)
			}
		}
		seq := b.PushCount.Add(1) - 1
		if int(seq) < len(b.slots) {
			b.slots[seq].Store(val) // announce the record immediately (line 7)
		}

		e.freezeOrWait(agg, b, seq)

		pushAtF := b.PushAtFreeze.Load()
		popAtF := b.PopAtFreeze.Load()
		if seq >= pushAtF {
			continue // announced after the freeze: retry in a later batch
		}

		el := e.eliminate(pushAtF, popAtF)
		if seq < el {
			// Eliminated: the paired pop reads the record from the slot
			// array; the push returns right away.
			return PushTicket[S, P]{B: b, Seq: seq, Eliminated: true}
		}
		if seq == el { // first survivor: combiner
			e.applyPush(agg, b, seq, pushAtF)
			b.pushApplied.Store(true)
		} else {
			var w backoff.Waiter
			for !b.pushApplied.Load() {
				w.Wait()
			}
		}
		return PushTicket[S, P]{B: b, Seq: seq}
	}
}

// PopTicket reports how a pop-side announcement was served.
type PopTicket[S, P any] struct {
	B   *Batch[S, P]
	Off int64 // offset among the batch's surviving pops (seq - e)
	K   int64 // surviving pops in the batch (popAtFreeze - e)

	// Elim, when non-nil, is the record of the push this pop eliminated
	// against; Off and K are meaningless then.
	Elim *S
}

// Pop announces on the pop side of aggregator agg's active batch on
// behalf of session id and drives the operation through the batch
// lifecycle (Algorithm 2 of the paper), attempting one solo direct
// apply first when the aggregator is in solo mode. An eliminated pop
// returns its partner's record; a surviving pop returns after its
// batch's pop combiner ran, with its offset into the
// combiner-published results. The caller must invoke Done(id) once it
// has finished reading the ticket.
func (e *Engine[S, P]) Pop(id, agg int) PopTicket[S, P] {
	if e.soloPopOn && e.ctl[agg].mode.Load() == modeSolo {
		sb := e.solo[id]
		if sb == nil {
			sb = e.newSoloBatch(id)
		}
		if e.trySoloPop(id, agg, sb) {
			e.soloHit(agg)
			return PopTicket[S, P]{B: sb, Off: 0, K: 1}
		}
		e.soloMiss(agg)
	}
	for {
		// Inlined announce: see Push.
		b := e.aggs[agg].batch.Load()
		if e.recycle {
			if hz := &e.hazards[id]; hz.p.Load() != b {
				b = e.announceSlow(hz, agg, b)
			}
		}
		seq := b.PopCount.Add(1) - 1

		e.freezeOrWait(agg, b, seq)

		pushAtF := b.PushAtFreeze.Load()
		popAtF := b.PopAtFreeze.Load()
		if seq >= popAtF {
			continue // announced after the freeze: retry in a later batch
		}

		el := e.eliminate(pushAtF, popAtF)
		if seq < el {
			// Eliminated: take the record of the push with our sequence
			// number straight from the slot array.
			return PopTicket[S, P]{B: b, Elim: b.WaitSlot(seq)}
		}

		k := popAtF - el
		if seq == el { // first survivor: combiner
			e.applyPop(id, agg, b, el, popAtF)
			b.popApplied.Store(true)
		} else {
			var w backoff.Waiter
			for !b.popApplied.Load() {
				w.Wait()
			}
		}
		return PopTicket[S, P]{B: b, Off: seq - el, K: k}
	}
}

// TryPop attempts exactly one solo direct apply on aggregator agg on
// behalf of session id, bypassing the aggregator's mode and the batch
// protocol entirely - the pool's peek-then-steal primitive. On success
// the returned ticket reads like a surviving pop's (one op, offset 0);
// ok=false means the structure's solo applier detected contention and
// left the structure unchanged, with nothing announced, so the caller
// is free to walk away or escalate to the full Pop.
//
// Deliberately recorded nowhere: a foreign thief's single probe is not
// evidence about the home sessions' batch degree, so it feeds neither
// the EWMA nor the fast-path counters, and having announced on no
// batch it needs no hazard and no Done.
func (e *Engine[S, P]) TryPop(id, agg int) (PopTicket[S, P], bool) {
	if e.trySoloPop == nil {
		return PopTicket[S, P]{}, false
	}
	sb := e.soloBatch(id)
	if !e.trySoloPop(id, agg, sb) {
		return PopTicket[S, P]{}, false
	}
	return PopTicket[S, P]{B: sb, Off: 0, K: 1}, true
}

// TryPush is TryPop's push-side twin: exactly one solo direct apply of
// val on aggregator agg on behalf of session id, bypassing the
// aggregator's mode and the batch protocol entirely - the pool's
// Put-overflow primitive, which lets a Put spill onto a quiet foreign
// shard when its home shard's solo CAS keeps losing. On success the
// returned ticket reads like a solo push's; ok=false means the
// structure's solo applier detected contention and left the structure
// unchanged, with nothing announced, so the caller is free to try the
// next shard or escalate to the full Push.
//
// Like TryPop it is deliberately recorded nowhere: a foreign
// overflow's single attempt is not evidence about the victim sessions'
// batch degree, so it feeds neither the EWMA nor the fast-path
// counters, and having announced on no shared batch it needs no hazard
// and no Done.
func (e *Engine[S, P]) TryPush(id, agg int, val *S) (PushTicket[S, P], bool) {
	if e.trySoloPush == nil {
		return PushTicket[S, P]{}, false
	}
	sb := e.soloBatch(id)
	sb.slots[0].Store(val)
	if !e.trySoloPush(agg, sb) {
		return PushTicket[S, P]{}, false
	}
	return PushTicket[S, P]{B: sb, Seq: 0}, true
}
